// Package lexer implements lexical analysis for Modula-2+.
//
// Lexor tasks are the highest-priority tasks in the Supervisor's ready
// queue (§2.3.4): splitting and importing cannot proceed past the tokens
// the lexer has produced, so getting token blocks flowing early maximizes
// the parallel work available to the rest of the compilation.  A Lexor
// task never blocks (§2.3.3), which is what makes barrier waits on token
// queues deadlock-free.
//
// The scanner works a block at a time: it writes tokens straight into
// the slots it is handed (a token queue's open block, or the tail of
// ScanAll's slice), classifies bytes through one table, crosses blank
// and identifier runs without per-byte position bookkeeping (a column is
// the distance from the line's first byte), and charges its work units
// once per fill.
package lexer

import (
	"slices"
	"strings"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/source"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
)

// Byte classes, one table lookup per byte.
const (
	cBlank  uint8 = 1 << iota // space, tab, CR, LF, FF
	cLetter                   // a-z, A-Z, _
	cUpper                    // A-Z
	cDigit                    // 0-9
	cHex                      // 0-9, A-F
)

var class = func() (t [256]uint8) {
	for _, c := range " \t\r\n\f" {
		t[c] = cBlank
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = cLetter
		t[c-'a'+'A'] = cLetter | cUpper
	}
	t['_'] = cLetter
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit | cHex
	}
	for c := 'A'; c <= 'F'; c++ {
		t[c] |= cHex
	}
	return t
}()

// maxReserved is the length of the longest reserved word
// (IMPLEMENTATION).  Reserved words are all upper-case letters, so an
// identifier that is longer, or has any other byte, skips the lookup.
const maxReserved = 14

// scanner scans one source file.
type scanner struct {
	file  *source.File
	src   string
	off   int // byte offset of next unread character
	line  int32
	bol   int // offset of the current line's first byte; column = off-bol+1
	ctx   *ctrace.TaskCtx
	diags *diag.Bag

	costed int // source offset already charged to the cost meter
}

func newScanner(f *source.File, ctx *ctrace.TaskCtx, diags *diag.Bag) *scanner {
	return &scanner{file: f, src: f.Text, line: 1, ctx: ctx, diags: diags}
}

func (l *scanner) pos() token.Pos {
	return token.Pos{Line: l.line, Col: int32(l.off-l.bol) + 1}
}

func (l *scanner) errorf(p token.Pos, format string, args ...any) {
	if l.diags != nil {
		l.diags.Errorf(l.file.Label(), p, format, args...)
	}
}

// peek returns the next unread byte, or 0 at end of input.
func (l *scanner) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

// peek2 returns the byte after next, or 0.
func (l *scanner) peek2() byte {
	if l.off+1 < len(l.src) {
		return l.src[l.off+1]
	}
	return 0
}

func isDigit(c byte) bool { return class[c]&cDigit != 0 }

// fill scans tokens into dst until it is full or holds the EOF token
// (past end of input it writes EOF again), and returns how many it
// wrote — at least one.  The work units for everything scanned are
// charged once, before returning, so a token block published next is
// stamped after its whole cost: n·CostLexToken + bytes·CostLexChar.
func (l *scanner) fill(dst []token.Token) int {
	src := l.src
	n := 0
scan:
	for n < len(dst) {
		// Blank run: the line bookkeeping moves once per newline.
		off := l.off
		for off < len(src) && class[src[off]]&cBlank != 0 {
			if src[off] == '\n' {
				l.line++
				l.bol = off + 1
			}
			off++
		}
		l.off = off
		p := l.pos()
		if off >= len(src) {
			dst[n] = token.Token{Kind: token.EOF, Pos: p}
			n++
			break
		}
		switch c := src[off]; {
		case class[c]&cLetter != 0:
			// Identifier run.  upper survives only if every byte is A-Z.
			upper := cUpper
			for off < len(src) && class[src[off]]&(cLetter|cDigit) != 0 {
				upper &= class[src[off]]
				off++
			}
			text := src[l.off:off]
			l.off = off
			dst[n] = token.Token{Kind: token.Ident, Pos: p, Text: text}
			if upper != 0 && len(text) <= maxReserved {
				if k := token.Lookup(text); k != token.Ident {
					dst[n] = token.Token{Kind: k, Pos: p}
				}
			}
		case class[c]&cDigit != 0:
			dst[n] = l.scanNumber(p)
		case c == '"' || c == '\'':
			dst[n] = l.scanString(p)
		case c == '(' && l.peek2() == '*':
			l.skipBracket(p, '(', ')', "comment")
			continue scan
		case c == '<' && l.peek2() == '*':
			l.skipBracket(p, 0, '>', "pragma")
			continue scan
		default:
			k := l.scanOperator(p)
			if k == token.EOF {
				// Illegal character: reported and skipped, at the price
				// of one token's work.
				if l.ctx != nil {
					l.ctx.Add(ctrace.CostLexToken)
				}
				continue scan
			}
			dst[n] = token.Token{Kind: k, Pos: p}
		}
		n++
	}
	if l.ctx != nil {
		l.ctx.Add(float64(n)*ctrace.CostLexToken + float64(l.off-l.costed)*ctrace.CostLexChar)
	}
	l.costed = l.off
	return n
}

// skipBracket consumes a comment "(* ... *)" — comments nest, per the
// Modula-2 report — or, with open 0, a pragma "<* ... *>", which does not.
func (l *scanner) skipBracket(start token.Pos, open, close byte, what string) {
	l.off += 2
	for depth := 1; depth > 0; {
		switch {
		case l.off >= len(l.src):
			l.errorf(start, "unterminated %s", what)
			return
		case open != 0 && l.peek() == open && l.peek2() == '*':
			l.off += 2
			depth++
		case l.peek() == '*' && l.peek2() == close:
			l.off += 2
			depth--
		default:
			if l.src[l.off] == '\n' {
				l.line++
				l.bol = l.off + 1
			}
			l.off++
		}
	}
}

// scanNumber handles the Modula-2 numeric forms:
//
//	decimal      123
//	hexadecimal  0FFH   (must start with a digit)
//	octal        17B
//	char code    15C    (octal, yields a character literal)
//	real         3.14   1.0E6   2.5E-3
func (l *scanner) scanNumber(p token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && class[l.peek()]&cHex != 0 {
		l.off++
	}
	digits := l.src[start:l.off]
	// Real literal: digits '.' (but not '..') — only if the digit run was
	// purely decimal.
	if l.peek() == '.' && l.peek2() != '.' && isDecimal(digits) {
		l.off++
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.off++
		}
		if l.peek() == 'E' {
			l.off++
			if l.peek() == '+' || l.peek() == '-' {
				l.off++
			}
			if !isDigit(l.peek()) {
				l.errorf(l.pos(), "malformed real literal: missing exponent digits")
			}
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.off++
			}
		}
		return token.Token{Kind: token.RealLit, Pos: p, Text: l.src[start:l.off]}
	}
	switch l.peek() {
	case 'H':
		l.off++
		return token.Token{Kind: token.IntLit, Pos: p, Text: l.src[start:l.off]}
	case 'B', 'C':
		// The final B/C may already have been consumed into the hex-digit
		// run (B and C are hex digits); handle the trailing-letter form.
		l.off++
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
func (l *scanner) scanString(p token.Pos) token.Token {
	quote := l.src[l.off]
	l.off++
	start := l.off
	for {
		if l.off >= len(l.src) || l.peek() == '\n' {
			l.errorf(p, "unterminated string")
			return token.Token{Kind: token.StringLit, Pos: p, Text: l.src[start:l.off]}
		}
		if l.peek() == quote {
			text := l.src[start:l.off]
			l.off++
			return token.Token{Kind: token.StringLit, Pos: p, Text: text}
		}
		l.off++
	}
}

// scanOperator scans an operator or delimiter and returns its kind; an
// illegal character is reported, consumed, and returned as token.EOF.
func (l *scanner) scanOperator(p token.Pos) token.Kind {
	c := l.src[l.off]
	l.off++
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
			l.off++
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
			l.off++
			kind = token.LessEq
		case '>':
			l.off++
			kind = token.NotEqual
		default:
			kind = token.Less
		}
	case '>':
		if l.peek() == '=' {
			l.off++
			kind = token.GreaterEq
		} else {
			kind = token.Greater
		}
	case ':':
		if l.peek() == '=' {
			l.off++
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
	}
	return kind
}

// Run scans the whole file into q — straight into the queue's open
// blocks — ending with an EOF token, and closes the queue.  This is the
// body of a Lexor task.
func Run(f *source.File, ctx *ctrace.TaskCtx, diags *diag.Bag, q *tokq.Queue) {
	l := newScanner(f, ctx, diags)
	for {
		slots := q.Slots()
		if slots == nil {
			return // sealed under us by panic isolation: no one is reading
		}
		n := l.fill(slots)
		q.Publish(n)
		if slots[n-1].Kind == token.EOF {
			break
		}
	}
	q.Close()
}

// Scanner scans a text a block at a time into buffers its caller holds,
// charging no task and reporting no diagnostic, for a reader that stops
// early (impscan.Prescan).
type Scanner struct{ l scanner }

// NewScanner returns a scanner at the start of text.
func NewScanner(text string) Scanner { return Scanner{scanner{src: text, line: 1}} }

// Fill scans tokens into dst until it is full or holds the EOF token
// (past end of input it writes EOF again) and returns how many it
// wrote, at least one.
func (s *Scanner) Fill(dst []token.Token) int { return s.l.fill(dst) }

// ScanAll scans the whole file into a slice ending with the EOF token.
// The sequential compiler and several tests use this form.
func ScanAll(f *source.File, ctx *ctrace.TaskCtx, diags *diag.Bag) []token.Token {
	l := newScanner(f, ctx, diags)
	// Preallocate for dense code (three bytes a token): regrowing a
	// slice this size costs more than the slack does.
	toks := make([]token.Token, 0, len(f.Text)/3+8)
	for {
		toks = slices.Grow(toks, 1)
		n := l.fill(toks[len(toks):cap(toks)])
		toks = toks[:len(toks)+n]
		if toks[len(toks)-1].Kind == token.EOF {
			return toks
		}
	}
}

// Print renders tokens back to compilable source text.  It is the
// inverse used by the lexer round-trip property test and by the
// workload generator's self-checks.
func Print(toks []token.Token) string {
	var sb strings.Builder
	col := 0
	for _, t := range toks {
		if t.Kind == token.EOF {
			break
		}
		s := t.String()
		if col+len(s) > 76 {
			sb.WriteByte('\n')
			col = 0
		} else if col > 0 {
			sb.WriteByte(' ')
			col++
		}
		sb.WriteString(s)
		col += len(s)
	}
	sb.WriteByte('\n')
	return sb.String()
}
