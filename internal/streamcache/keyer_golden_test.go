package streamcache

import (
	"fmt"
	"strings"
	"testing"

	"m2cc/internal/token"
)

// goldenFeed drives a three-stream split (main, P, and Q nested in P)
// whose records exercise every encoding case: negative and multi-byte
// line deltas, multi-byte columns and text lengths, BodyRef, EOF.
func goldenFeed(emit func(k *Keyer, id int32, toks []token.Token)) *Keyer {
	long := strings.Repeat("x", 300)
	k := NewKeyer()
	k.StartStream(0, -1, "")
	emit(k, 0, []token.Token{tok(token.MODULE, "", 1, 1), tok(token.Ident, "M", 1, 8), tok(token.Semicolon, "", 1, 9),
		tok(token.FROM, "", 2, 1), tok(token.Ident, "Lib", 2, 6), tok(token.IMPORT, "", 2, 10), tok(token.Ident, "f", 2, 17), tok(token.Semicolon, "", 2, 18),
		tok(token.VAR, "", 3, 1), tok(token.Ident, long, 3, 5)})
	headP := []token.Token{tok(token.PROCEDURE, "", 200, 1), tok(token.Ident, "P", 200, 11), tok(token.Semicolon, "", 200, 12)}
	emit(k, 0, headP)
	k.StartStream(5, 0, "P")
	k.Heading(5, headP)
	emit(k, 0, []token.Token{{Kind: token.BodyRef, Text: "5", Pos: token.Pos{Line: 200, Col: 1}}})
	emit(k, 5, []token.Token{tok(token.VAR, "", 201, 1), tok(token.Ident, "v", 201, 300)})
	headQ := []token.Token{tok(token.PROCEDURE, "", 202, 3), tok(token.Ident, "Q", 202, 13), tok(token.Semicolon, "", 202, 14)}
	emit(k, 5, headQ)
	k.StartStream(9, 5, "Q")
	k.Heading(9, headQ)
	emit(k, 5, []token.Token{{Kind: token.BodyRef, Text: "9", Pos: token.Pos{Line: 202, Col: 3}}})
	emit(k, 9, []token.Token{tok(token.BEGIN, "", 203, 3), tok(token.StringLit, long+long, 203, 9), tok(token.END, "", 204, 3), tok(token.Ident, "Q", 204, 7),
		{Kind: token.EOF, Pos: token.Pos{Line: 204, Col: 3}}})
	k.EndStream(9)
	emit(k, 5, []token.Token{tok(token.Semicolon, "", 204, 8), tok(token.BEGIN, "", 205, 1), tok(token.END, "", 206, 1), tok(token.Ident, "P", 206, 5),
		{Kind: token.EOF, Pos: token.Pos{Line: 206, Col: 1}}})
	k.EndStream(5)
	emit(k, 0, []token.Token{tok(token.Semicolon, "", 206, 6), tok(token.END, "", 207, 1), tok(token.Ident, "M", 207, 5), tok(token.Dot, "", 207, 6),
		{Kind: token.EOF, Pos: token.Pos{Line: 208, Col: 1}}})
	k.EndStream(0)
	k.Done()
	return k
}

func goldenKeys(k *Keyer) string {
	p := KeyParams{Reprocess: true, Closure: [32]byte{1, 2, 3}}
	kp, kq, kb := k.ProcKey(5, p), k.ProcKey(9, p), k.BodyKey(p)
	return fmt.Sprintf("%x %x %x", kp[:], kq[:], kb[:])
}

// keysAtParent are goldenKeys of goldenFeed as the per-token,
// buffer-per-stream keyer this one replaced computed them.  Stream-cache
// keys are m2sc/2 as long as they hold: entries written before the
// change still hit.
const keysAtParent = "8067b29b73ae8ace93cb6ab332ca4da8b9cdae80c0cd82862f5ad93c1204c255 " +
	"cfb02fa0bced0c234b1312497b1ba0a3d3d7d6add4e41aff1ba7a72d4d3cffc4 " +
	"bfacacda66187484b5d6d8b5191ad1724ff09c2ca4238f42abed3fe82b22d0c2"

// TestKeyBytesUnchanged feeds the golden split a token at a time, in
// whole runs, and with the arena pre-filled so records land on every
// side of a chunk boundary: the keys are the parent commit's each time.
func TestKeyBytesUnchanged(t *testing.T) {
	if keyVersion != "m2sc/2" {
		t.Fatalf("keyVersion = %q", keyVersion)
	}
	perToken := func(k *Keyer, id int32, toks []token.Token) {
		for i := range toks {
			k.Tokens(id, toks[i:i+1])
		}
	}
	perRun := func(k *Keyer, id int32, toks []token.Token) { k.Tokens(id, toks) }
	for name, emit := range map[string]func(*Keyer, int32, []token.Token){"token": perToken, "run": perRun} {
		if got := goldenKeys(goldenFeed(emit)); got != keysAtParent {
			t.Errorf("per-%s feed: keys %s, want %s", name, got, keysAtParent)
		}
	}
	for fill := minChunk - 700; fill < minChunk; fill += 7 {
		got := goldenKeys(goldenFeed(func(k *Keyer, id int32, toks []token.Token) {
			if k.tail == nil {
				k.tail = make([]byte, fill, minChunk) // someone else's records
			}
			k.Tokens(id, toks)
		}))
		if got != keysAtParent {
			t.Fatalf("arena pre-filled to %d: keys %s, want %s", fill, got, keysAtParent)
		}
	}
}
