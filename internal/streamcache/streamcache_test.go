package streamcache

import (
	"testing"

	"m2cc/internal/token"
)

// feed drives a minimal one-procedure split through a fresh Keyer:
// stream 0 (main) with toks0, stream 1 (procedure "P", child of 0)
// with head as its heading and toks1 as its body tokens.
func feed(toks0, head, toks1 []token.Token) *Keyer {
	k := NewKeyer()
	k.StartStream(0, -1, "")
	for _, t := range toks0 {
		k.Tokens(0, []token.Token{t})
	}
	k.StartStream(1, 0, "P")
	k.Heading(1, head)
	for _, t := range toks1 {
		k.Tokens(1, []token.Token{t})
	}
	k.EndStream(1)
	k.EndStream(0)
	k.Done()
	return k
}

func tok(kind token.Kind, text string, line, col int32) token.Token {
	return token.Token{Kind: kind, Text: text, Pos: token.Pos{Line: line, Col: col}}
}

// TestKeyerSensitivity pins the invalidation semantics the record
// encoding must preserve: text edits and layout shifts inside the
// procedure change its key; a pure line shift of the enclosing
// declarations does not (the ancestor chain hashes no positions); any
// edit anywhere changes the body key.
func TestKeyerSensitivity(t *testing.T) {
	p := KeyParams{}
	main0 := []token.Token{tok(token.VAR, "VAR", 1, 1), tok(token.Ident, "x", 1, 5), tok(token.EOF, "", 9, 1)}
	head := []token.Token{tok(token.PROCEDURE, "PROCEDURE", 3, 1), tok(token.Ident, "P", 3, 11)}
	body := []token.Token{tok(token.BEGIN, "BEGIN", 4, 1), tok(token.Ident, "x", 5, 3), tok(token.END, "END", 6, 1)}

	base := feed(main0, head, body)
	baseProc, baseBody := base.ProcKey(1, p), base.BodyKey(p)

	if again := feed(main0, head, body); again.ProcKey(1, p) != baseProc || again.BodyKey(p) != baseBody {
		t.Fatal("identical traffic must produce identical keys")
	}

	// Edit the procedure body's text.
	edited := append(append([]token.Token(nil), body[:1]...), tok(token.Ident, "y", 5, 3), body[2])
	if got := feed(main0, head, edited); got.ProcKey(1, p) == baseProc {
		t.Fatal("body text edit must change the procedure key")
	} else if got.BodyKey(p) == baseBody {
		t.Fatal("body text edit must change the module body key")
	}

	// Shift the procedure body down one line (same texts).
	shifted := make([]token.Token, len(body))
	for i, tk := range body {
		tk.Pos.Line++
		shifted[i] = tk
	}
	if got := feed(main0, head, shifted); got.ProcKey(1, p) == baseProc {
		t.Fatal("layout shift inside the procedure must change its key")
	}

	// Shift only the enclosing declarations' positions: the ancestor
	// own-text chain ignores positions, and stream 1's own records are
	// untouched, so the procedure key survives — but the body key (full
	// main-stream subtree layout) changes.
	shifted0 := make([]token.Token, len(main0))
	for i, tk := range main0 {
		tk.Pos.Line++
		shifted0[i] = tk
	}
	moved := feed(shifted0, head, body)
	if moved.ProcKey(1, p) != baseProc {
		t.Fatal("a pure position shift of enclosing declarations must not invalidate the procedure")
	}
	if moved.BodyKey(p) == baseBody {
		t.Fatal("a position shift of main-stream tokens must change the body key")
	}

	// Changing an enclosing declaration's text invalidates the
	// procedure through the ancestor chain.
	renamed := append([]token.Token(nil), main0...)
	renamed[1] = tok(token.Ident, "z", 1, 5)
	if got := feed(renamed, head, body); got.ProcKey(1, p) == baseProc {
		t.Fatal("an enclosing declaration edit must invalidate the procedure")
	}

	// BodyRef reference text is excluded: two splits that number the
	// child stream differently still agree on every key.
	withRef := func(ref string) *Keyer {
		k := NewKeyer()
		k.StartStream(0, -1, "")
		k.Tokens(0, []token.Token{tok(token.VAR, "VAR", 1, 1),
			{Kind: token.BodyRef, Text: ref, Pos: token.Pos{Line: 3, Col: 1}}})
		k.StartStream(1, 0, "P")
		k.Heading(1, head)
		k.Tokens(1, body)
		k.Done()
		return k
	}
	if withRef("7").BodyKey(p) != withRef("12").BodyKey(p) {
		t.Fatal("BodyRef reference text must not enter any key")
	}

	// Params separate key spaces.
	if base.ProcKey(1, KeyParams{Check: true}) == baseProc {
		t.Fatal("Check must namespace procedure keys")
	}
}

// TestCacheLRU pins the eviction order and the Stats counters.
func TestCacheLRU(t *testing.T) {
	c := New(2)
	key := func(i byte) Key { return Key{i} }
	for i := byte(1); i <= 3; i++ {
		c.Put(key(i), &Entry{})
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("oldest entry must be evicted at the cap")
	}
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("newest entry must survive")
	}
	c.Get(key(2))           // touch 2: now 3 is least recent
	c.Put(key(4), &Entry{}) // evicts 3
	if _, ok := c.Get(key(3)); ok {
		t.Fatal("least-recently-used entry must be the one evicted")
	}
	s := c.Stats()
	if s.Evictions != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 evictions, 2 entries", s)
	}
	c.SetLimit(1)
	if got := c.Len(); got != 1 {
		t.Fatalf("SetLimit must shrink the cache: len = %d", got)
	}
}
