package lexer_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
	"m2cc/internal/workload"
)

// refrefLexer is the byte-at-a-time scanner the block-granular one
// replaced, kept verbatim as the oracle: one Scan call per token, line
// and column advanced per byte, a reserved-word map probe for every
// identifier, and a work-unit charge per token.
type refLexer struct {
	file  *source.File
	src   string
	off   int // byte offset of next unread character
	line  int32
	col   int32
	ctx   *ctrace.TaskCtx
	diags *diag.Bag

	lastCosted int // source offset already charged to the cost meter
}

// newRefLexer returns a reference lexer over f.  ctx supplies the work-unit meter (it must
// be non-nil; use a throwaway TaskCtx when instrumentation is not
// wanted).  Lexical errors are reported to diags.
func newRefLexer(f *source.File, ctx *ctrace.TaskCtx, diags *diag.Bag) *refLexer {
	return &refLexer{file: f, src: f.Text, line: 1, col: 1, ctx: ctx, diags: diags}
}

func (l *refLexer) pos() token.Pos {
	return token.Pos{Line: l.line, Col: l.col}
}

func (l *refLexer) errorf(p token.Pos, format string, args ...any) {
	l.diags.Errorf(l.file.Label(), p, format, args...)
}

// peek returns the next unread byte, or 0 at end of input.
func (l *refLexer) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

// peek2 returns the byte after next, or 0.
func (l *refLexer) peek2() byte {
	if l.off+1 < len(l.src) {
		return l.src[l.off+1]
	}
	return 0
}

// advance consumes one byte, maintaining line/column bookkeeping.
func (l *refLexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'A' && c <= 'F'
}

// skipBlanksAndComments consumes whitespace, (* ... *) comments (which
// nest, per the Modula-2 report) and <* ... *> pragmas.
func (l *refLexer) skipBlanksAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f':
			l.advance()
		case c == '(' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			depth := 1
			for depth > 0 {
				if l.off >= len(l.src) {
					l.errorf(start, "unterminated comment")
					return
				}
				switch {
				case l.peek() == '(' && l.peek2() == '*':
					l.advance()
					l.advance()
					depth++
				case l.peek() == '*' && l.peek2() == ')':
					l.advance()
					l.advance()
					depth--
				default:
					l.advance()
				}
			}
		case c == '<' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					l.errorf(start, "unterminated pragma")
					return
				}
				if l.peek() == '*' && l.peek2() == '>' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

// charge adds the cost of everything scanned since the last charge plus
// one token's worth of work.
func (l *refLexer) charge() {
	l.ctx.Add(float64(l.off-l.lastCosted)*ctrace.CostLexChar + ctrace.CostLexToken)
	l.lastCosted = l.off
}

// Scan returns the next token.  At end of input it returns (and keeps
// returning) a token of kind EOF positioned after the last character.
func (l *refLexer) Scan() token.Token {
	l.skipBlanksAndComments()
	p := l.pos()
	if l.off >= len(l.src) {
		l.charge()
		return token.Token{Kind: token.EOF, Pos: p}
	}
	c := l.peek()
	var t token.Token
	switch {
	case isLetter(c):
		t = l.scanIdent(p)
	case isDigit(c):
		t = l.scanNumber(p)
	case c == '"' || c == '\'':
		t = l.scanString(p)
	default:
		t = l.scanOperator(p)
	}
	l.charge()
	return t
}

// refReserved maps each reserved word to its kind, as token.Lookup did
// before its perfect hash, so FuzzLexer holds the hash to it.
var refReserved = func() map[string]token.Kind {
	m := make(map[string]token.Kind)
	for k := token.AND; k <= token.REF; k++ {
		m[k.String()] = k
	}
	return m
}()

func (l *refLexer) scanIdent(p token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
		l.advance()
	}
	text := l.src[start:l.off]
	if k, ok := refReserved[text]; ok { // the map token.Lookup replaced
		return token.Token{Kind: k, Pos: p}
	}
	return token.Token{Kind: token.Ident, Pos: p, Text: text}
}

// scanNumber handles the Modula-2 numeric forms:
//
//	decimal      123
//	hexadecimal  0FFH   (must start with a digit)
//	octal        17B
//	char code    15C    (octal, yields a character literal)
//	real         3.14   1.0E6   2.5E-3
func (l *refLexer) scanNumber(p token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && isHexDigit(l.peek()) {
		l.advance()
	}
	digits := l.src[start:l.off]
	// Real literal: digits '.' (but not '..') — only if the digit run was
	// purely decimal.
	if l.peek() == '.' && l.peek2() != '.' && isDecimal(digits) {
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == 'E' {
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if !isDigit(l.peek()) {
				l.errorf(l.pos(), "malformed real literal: missing exponent digits")
			}
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		return token.Token{Kind: token.RealLit, Pos: p, Text: l.src[start:l.off]}
	}
	switch l.peek() {
	case 'H':
		l.advance()
		return token.Token{Kind: token.IntLit, Pos: p, Text: l.src[start:l.off]}
	case 'B', 'C':
		// The final B/C may already have been consumed into the hex-digit
		// run (B and C are hex digits); handle the trailing-letter form.
		l.advance()
		text := l.src[start:l.off]
		if !isOctal(text[:len(text)-1]) {
			l.errorf(p, "malformed octal literal %q", text)
		}
		kind := token.IntLit
		if text[len(text)-1] == 'C' {
			kind = token.CharLit
		}
		return token.Token{Kind: kind, Pos: p, Text: text}
	}
	// The run may end in B/C/hex letters without an H suffix.
	if isDecimal(digits) {
		return token.Token{Kind: token.IntLit, Pos: p, Text: digits}
	}
	if last := digits[len(digits)-1]; (last == 'B' || last == 'C') && isOctal(digits[:len(digits)-1]) {
		kind := token.IntLit
		if last == 'C' {
			kind = token.CharLit
		}
		return token.Token{Kind: kind, Pos: p, Text: digits}
	}
	l.errorf(p, "malformed number %q (hexadecimal needs an H suffix)", digits)
	return token.Token{Kind: token.IntLit, Pos: p, Text: "0"}
}

func isDecimal(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return len(s) > 0
}

func isOctal(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '7' {
			return false
		}
	}
	return len(s) > 0
}

// scanString scans a single- or double-quoted string.  Modula-2 strings
// have no escape sequences and may not span lines.  A one-character
// string is char-compatible; that classification happens in the
// semantic analyzer, so the lexer always emits StringLit here.
func (l *refLexer) scanString(p token.Pos) token.Token {
	quote := l.advance()
	start := l.off
	for {
		if l.off >= len(l.src) || l.peek() == '\n' {
			l.errorf(p, "unterminated string")
			return token.Token{Kind: token.StringLit, Pos: p, Text: l.src[start:l.off]}
		}
		if l.peek() == quote {
			text := l.src[start:l.off]
			l.advance()
			return token.Token{Kind: token.StringLit, Pos: p, Text: text}
		}
		l.advance()
	}
}

func (l *refLexer) scanOperator(p token.Pos) token.Token {
	c := l.advance()
	kind := token.EOF
	switch c {
	case '+':
		kind = token.Plus
	case '-':
		kind = token.Minus
	case '*':
		kind = token.Star
	case '/':
		kind = token.Slash
	case '&':
		kind = token.Amp
	case '.':
		if l.peek() == '.' {
			l.advance()
			kind = token.DotDot
		} else {
			kind = token.Dot
		}
	case ',':
		kind = token.Comma
	case ';':
		kind = token.Semicolon
	case '(':
		kind = token.LParen
	case '[':
		kind = token.LBrack
	case '{':
		kind = token.LBrace
	case '^', '@':
		kind = token.Caret
	case '=':
		kind = token.Equal
	case '#':
		kind = token.NotEqual
	case '<':
		switch l.peek() {
		case '=':
			l.advance()
			kind = token.LessEq
		case '>':
			l.advance()
			kind = token.NotEqual
		default:
			kind = token.Less
		}
	case '>':
		if l.peek() == '=' {
			l.advance()
			kind = token.GreaterEq
		} else {
			kind = token.Greater
		}
	case ':':
		if l.peek() == '=' {
			l.advance()
			kind = token.Assign
		} else {
			kind = token.Colon
		}
	case ')':
		kind = token.RParen
	case ']':
		kind = token.RBrack
	case '}':
		kind = token.RBrace
	case '|':
		kind = token.Bar
	case '~':
		kind = token.Tilde
	default:
		l.errorf(p, "illegal character %q", string(rune(c)))
		return l.Scan()
	}
	return token.Token{Kind: kind, Pos: p}
}

// refScanAll runs the reference scanner to EOF.
func refScanAll(f *source.File, ctx *ctrace.TaskCtx, diags *diag.Bag) []token.Token {
	l := newRefLexer(f, ctx, diags)
	var toks []token.Token
	for {
		t := l.Scan()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

// checkAgainstReference asserts that ScanAll, and Run at several block
// sizes, produce the reference scanner's tokens (kind, position, text),
// diagnostics and — to within float rounding — work units.
func checkAgainstReference(t *testing.T, name string, kind source.FileKind, text string) {
	t.Helper()
	f := source.NewSet().Add(name, kind, text)
	wantCtx, wantDiags := &ctrace.TaskCtx{}, diag.NewBag(0)
	want := refScanAll(f, wantCtx, wantDiags)

	check := func(how string, got []token.Token, ctx *ctrace.TaskCtx, diags *diag.Bag) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d tokens, reference has %d", f.Label(), how, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %s: token %d is %v %q at %v, reference %v %q at %v", f.Label(), how, i,
					got[i].Kind, got[i].Text, got[i].Pos, want[i].Kind, want[i].Text, want[i].Pos)
			}
		}
		if diags.String() != wantDiags.String() {
			t.Fatalf("%s %s: diagnostics differ\ngot:\n%s\nreference:\n%s", f.Label(), how, diags, wantDiags)
		}
		if d := math.Abs(ctx.Units - wantCtx.Units); d > 1e-9*wantCtx.Units {
			t.Fatalf("%s %s: %v work units, reference %v", f.Label(), how, ctx.Units, wantCtx.Units)
		}
	}

	ctx, diags := &ctrace.TaskCtx{}, diag.NewBag(0)
	check("ScanAll", lexer.ScanAll(f, ctx, diags), ctx, diags)
	for _, size := range []int{1, 3, tokq.DefaultBlockSize} {
		ctx, diags := &ctrace.TaskCtx{}, diag.NewBag(0)
		q := tokq.New(size)
		lexer.Run(f, ctx, diags, q)
		var got []token.Token
		for r := q.NewReader(nil); ; {
			run := r.Run()
			got = append(got, run...)
			r.Skip(len(run))
			if run[len(run)-1].Kind == token.EOF {
				break
			}
		}
		check(fmt.Sprintf("Run/block=%d", size), got, ctx, diags)
	}
}

func TestLexerMatchesReferenceOnExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "modules")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		kind := source.Impl
		switch filepath.Ext(e.Name()) {
		case ".def":
			kind = source.Def
		case ".mod":
		default:
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, strings.TrimSuffix(e.Name(), filepath.Ext(e.Name())), kind, string(b))
		n++
	}
	if n == 0 {
		t.Fatal("no example modules found")
	}
}

func TestLexerMatchesReferenceOnSuite(t *testing.T) {
	suite := workload.GenerateSuite(1992, 1)
	for _, label := range suite.Loader.Names() {
		name, kind := strings.TrimSuffix(label, ".mod"), source.Impl
		if strings.HasSuffix(label, ".def") {
			name, kind = strings.TrimSuffix(label, ".def"), source.Def
		}
		text, err := suite.Loader.Load(name, kind)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, name, kind, text)
	}
}

// Every reserved word must survive the scanner's shortcut (all
// upper-case, at most maxReserved bytes) and reach the lookup.
func TestEveryReservedWordIsRecognized(t *testing.T) {
	for k := token.AND; k <= token.REF; k++ {
		f := source.NewSet().Add("T", source.Impl, k.String())
		toks := lexer.ScanAll(f, &ctrace.TaskCtx{}, diag.NewBag(0))
		if len(toks) != 2 || toks[0].Kind != k || toks[0].Text != "" {
			t.Fatalf("%s lexed as %v", k, toks)
		}
	}
}

// FuzzLexer holds the block-granular scanner to the reference scanner
// on arbitrary bytes: same tokens, positions, texts, diagnostics and
// work units, through ScanAll and through token queues of several block
// sizes, and never a panic.  The seeds are the hand-written hard cases
// under testdata/fuzz/FuzzLexer (nested and unterminated comments,
// pragmas, 1..2, 0FFH, 15C, lone quotes, CR/LF/FF, illegal bytes), which
// plain `go test` runs too.  The reference classifies words with the
// reserved-word map (refReserved), so the fuzzer also holds
// token.Lookup's perfect hash to it.
func FuzzLexer(f *testing.F) {
	f.Add("MODULE M; (* seed *) BEGIN x := 0FFH END M.")
	f.Add("EXPORT EXCEPT EXPORTS EXCEPTS XCEPT ENDX DIVV BY BYY REFS REf IMPLEMENTATIONS")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		checkAgainstReference(t, "T", source.Impl, src)
	})
}
