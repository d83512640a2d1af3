package token_test

import (
	"strings"
	"testing"

	"m2cc/internal/source"
	"m2cc/internal/token"
	"m2cc/internal/workload"
)

func TestLookupReservedWords(t *testing.T) {
	cases := map[string]token.Kind{
		"MODULE":         token.MODULE,
		"PROCEDURE":      token.PROCEDURE,
		"BEGIN":          token.BEGIN,
		"END":            token.END,
		"DEFINITION":     token.DEFINITION,
		"IMPLEMENTATION": token.IMPLEMENTATION,
		"EXCEPTION":      token.EXCEPTION,
		"TRY":            token.TRY,
		"LOCK":           token.LOCK,
		"REF":            token.REF,
	}
	for text, want := range cases {
		if got := token.Lookup(text); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", text, got, want)
		}
	}
}

func TestLookupNonReserved(t *testing.T) {
	for _, text := range []string{"module", "Begin", "INTEGER", "WriteInt", "x", "Procedure"} {
		if got := token.Lookup(text); got != token.Ident {
			t.Errorf("Lookup(%q) = %v, want Ident (Modula-2 reserved words are all upper case)", text, got)
		}
	}
}

// refLookup is the reserved-word map Lookup's perfect hash replaced,
// kept as the reference it must agree with.
var refLookup = func() map[string]token.Kind {
	m := make(map[string]token.Kind)
	for k := token.AND; k <= token.REF; k++ {
		m[k.String()] = k
	}
	return m
}()

func lookupRef(s string) token.Kind {
	if k, ok := refLookup[s]; ok {
		return k
	}
	return token.Ident
}

// TestLookupMatchesMap holds Lookup to the map it replaced on every
// reserved word, every one-byte edit of one (a byte changed, dropped
// or added), and every identifier of the generated suite.
func TestLookupMatchesMap(t *testing.T) {
	check := func(s string) {
		if got, want := token.Lookup(s), lookupRef(s); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", s, got, want)
		}
	}
	alphabet := "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_ \x00\xff"
	for word := range refLookup {
		check(word)
		for i := 0; i <= len(word); i++ {
			if i < len(word) {
				check(word[:i] + word[i+1:])
			}
			for _, c := range []byte(alphabet) {
				check(word[:i] + string(c) + word[i:])
				if i < len(word) {
					check(word[:i] + string(c) + word[i+1:])
				}
			}
		}
	}
	check("")
	check("end of file")
	// Every word of the suite's sources: runs of letters and digits.
	suite := workload.GenerateSuite(1992, 1)
	words := 0
	for _, file := range suite.Loader.Names() {
		name, ext, _ := strings.Cut(file, ".")
		kind := source.Impl
		if ext == "def" {
			kind = source.Def
		}
		text, err := suite.Loader.Load(name, kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range strings.FieldsFunc(text, func(r rune) bool {
			return !('A' <= r && r <= 'Z' || 'a' <= r && r <= 'z' || '0' <= r && r <= '9')
		}) {
			check(w)
			words++
		}
	}
	if words < 10000 {
		t.Fatalf("the suite has %d words, want many", words)
	}
}

func TestIsReserved(t *testing.T) {
	if !token.AND.IsReserved() || !token.REF.IsReserved() {
		t.Error("AND and REF must be reserved")
	}
	for _, k := range []token.Kind{token.Ident, token.IntLit, token.Plus, token.EOF, token.BodyRef} {
		if k.IsReserved() {
			t.Errorf("%v must not be reserved", k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[token.Kind]string{
		token.Assign:    ":=",
		token.NotEqual:  "#",
		token.DotDot:    "..",
		token.LessEq:    "<=",
		token.PROCEDURE: "PROCEDURE",
		token.EOF:       "end of file",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestPosBefore(t *testing.T) {
	a := token.Pos{Line: 2, Col: 3}
	cases := []struct {
		b    token.Pos
		want bool
	}{
		{token.Pos{Line: 2, Col: 4}, true},
		{token.Pos{Line: 3, Col: 1}, true},
		{token.Pos{Line: 2, Col: 3}, false},
		{token.Pos{Line: 2, Col: 2}, false},
		{token.Pos{Line: 1, Col: 9}, false},
	}
	for _, c := range cases {
		if got := a.Before(c.b); got != c.want {
			t.Errorf("%v.Before(%v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestPosValidity(t *testing.T) {
	if (token.Pos{}).IsValid() {
		t.Error("zero Pos must be invalid")
	}
	if !(token.Pos{Line: 1, Col: 1}).IsValid() {
		t.Error("1:1 must be valid")
	}
	if got := (token.Pos{}).String(); got != "-" {
		t.Errorf("invalid pos renders %q, want -", got)
	}
	if got := (token.Pos{Line: 3, Col: 7}).String(); got != "3:7" {
		t.Errorf("pos renders %q, want 3:7", got)
	}
}

func TestOpensEnd(t *testing.T) {
	opens := []token.Kind{token.CASE, token.FOR, token.IF, token.LOOP,
		token.MODULE, token.RECORD, token.WHILE, token.WITH, token.TRY, token.LOCK}
	for _, k := range opens {
		if !k.OpensEnd() {
			t.Errorf("%v must open an END", k)
		}
	}
	// BEGIN and PROCEDURE are deliberately excluded (see the doc
	// comment); REPEAT closes with UNTIL.
	for _, k := range []token.Kind{token.BEGIN, token.PROCEDURE, token.REPEAT, token.END, token.Ident} {
		if k.OpensEnd() {
			t.Errorf("%v must not open an END", k)
		}
	}
}

func TestTokenStringRoundTrippable(t *testing.T) {
	cases := []struct {
		tok  token.Token
		want string
	}{
		{token.Token{Kind: token.Ident, Text: "foo"}, "foo"},
		{token.Token{Kind: token.IntLit, Text: "0FFH"}, "0FFH"},
		{token.Token{Kind: token.CharLit, Text: "15C"}, "15C"},
		{token.Token{Kind: token.StringLit, Text: "abc"}, `"abc"`},
		{token.Token{Kind: token.StringLit, Text: `say "hi"`}, `'say "hi"'`},
		{token.Token{Kind: token.Semicolon}, ";"},
	}
	for _, c := range cases {
		if got := c.tok.String(); got != c.want {
			t.Errorf("token %v renders %q, want %q", c.tok.Kind, got, c.want)
		}
	}
}
