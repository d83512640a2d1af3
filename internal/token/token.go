// Package token defines the lexical tokens of Modula-2+ and the source
// positions attached to them.
//
// Reserved words (not keywords) determine the lexical structure of
// Modula-2+, which is what allows the concurrent compiler to partition a
// program into separately compilable streams during lexical analysis
// (Wortman & Junkin, §1).  The splitter and import scanner rely on the
// reserved-word kinds defined here.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind uint8

// Token kinds.  Literal and identifier kinds carry their text in the
// Token's Text field; reserved words and operators are identified by Kind
// alone.
const (
	EOF Kind = iota
	Ident
	IntLit    // 123, 0FFH, 17B (octal), ordinal char 15C handled as CharLit
	RealLit   // 3.14, 1.0E6
	CharLit   // 'a', "b" of length 1 in char context, 15C
	StringLit // "abc" or 'abc'

	// Operators and delimiters.
	Plus      // +
	Minus     // -
	Star      // *
	Slash     // /
	Assign    // :=
	Amp       // & (AND)
	Dot       // .
	Comma     // ,
	Semicolon // ;
	LParen    // (
	LBrack    // [
	LBrace    // {
	Caret     // ^
	Equal     // =
	NotEqual  // # or <>
	Less      // <
	Greater   // >
	LessEq    // <=
	GreaterEq // >=
	DotDot    // ..
	Colon     // :
	RParen    // )
	RBrack    // ]
	RBrace    // }
	Bar       // |
	Tilde     // ~ (NOT)

	// Reserved words.
	AND
	ARRAY
	BEGIN
	BY
	CASE
	CONST
	DEFINITION
	DIV
	DO
	ELSE
	ELSIF
	END
	EXIT
	EXPORT
	FOR
	FROM
	IF
	IMPLEMENTATION
	IMPORT
	IN
	LOOP
	MOD
	MODULE
	NOT
	OF
	OR
	POINTER
	PROCEDURE
	QUALIFIED
	RECORD
	REPEAT
	RETURN
	SET
	THEN
	TO
	TYPE
	UNTIL
	VAR
	WHILE
	WITH

	// Modula-2+ extensions (DEC SRC dialect).
	EXCEPTION
	RAISE
	TRY
	EXCEPT
	FINALLY
	LOCK
	PASSING
	REF

	// BodyRef is a synthetic token inserted by the splitter where a
	// procedure body was diverted to another stream (§2.1).  Text holds
	// the decimal stream number.  It never appears in source text.
	BodyRef

	numKinds
)

// NumKinds is the number of distinct token kinds.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	EOF:       "end of file",
	Ident:     "identifier",
	IntLit:    "integer literal",
	RealLit:   "real literal",
	CharLit:   "character literal",
	StringLit: "string literal",

	Plus:      "+",
	Minus:     "-",
	Star:      "*",
	Slash:     "/",
	Assign:    ":=",
	Amp:       "&",
	Dot:       ".",
	Comma:     ",",
	Semicolon: ";",
	LParen:    "(",
	LBrack:    "[",
	LBrace:    "{",
	Caret:     "^",
	Equal:     "=",
	NotEqual:  "#",
	Less:      "<",
	Greater:   ">",
	LessEq:    "<=",
	GreaterEq: ">=",
	DotDot:    "..",
	Colon:     ":",
	RParen:    ")",
	RBrack:    "]",
	RBrace:    "}",
	Bar:       "|",
	Tilde:     "~",

	AND:            "AND",
	ARRAY:          "ARRAY",
	BEGIN:          "BEGIN",
	BY:             "BY",
	CASE:           "CASE",
	CONST:          "CONST",
	DEFINITION:     "DEFINITION",
	DIV:            "DIV",
	DO:             "DO",
	ELSE:           "ELSE",
	ELSIF:          "ELSIF",
	END:            "END",
	EXIT:           "EXIT",
	EXPORT:         "EXPORT",
	FOR:            "FOR",
	FROM:           "FROM",
	IF:             "IF",
	IMPLEMENTATION: "IMPLEMENTATION",
	IMPORT:         "IMPORT",
	IN:             "IN",
	LOOP:           "LOOP",
	MOD:            "MOD",
	MODULE:         "MODULE",
	NOT:            "NOT",
	OF:             "OF",
	OR:             "OR",
	POINTER:        "POINTER",
	PROCEDURE:      "PROCEDURE",
	QUALIFIED:      "QUALIFIED",
	RECORD:         "RECORD",
	REPEAT:         "REPEAT",
	RETURN:         "RETURN",
	SET:            "SET",
	THEN:           "THEN",
	TO:             "TO",
	TYPE:           "TYPE",
	UNTIL:          "UNTIL",
	VAR:            "VAR",
	WHILE:          "WHILE",
	WITH:           "WITH",

	EXCEPTION: "EXCEPTION",
	RAISE:     "RAISE",
	TRY:       "TRY",
	EXCEPT:    "EXCEPT",
	FINALLY:   "FINALLY",
	LOCK:      "LOCK",
	PASSING:   "PASSING",
	REF:       "REF",

	BodyRef: "<diverted body>",
}

// String returns a human-readable name for the kind: the reserved word or
// operator text itself, or a description for identifier/literal classes.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsReserved reports whether k is a reserved word.
func (k Kind) IsReserved() bool { return k >= AND && k <= REF }

// reserved holds each reserved word at its slot, a perfect hash: no two
// share one, so a lookup is one hash and one comparison.  Modula-2
// reserved words are all upper case.
var reserved [128]Kind

func init() {
	for k := AND; k <= REF; k++ {
		reserved[slot(kindNames[k])] = k
	}
}

// slot hashes a spelling of at least two bytes by its first and its
// last two bytes and its length.
func slot(s string) int {
	n := len(s)
	return (int(s[0])*5 + int(s[n-2])*20 + int(s[n-1])*24 + n) & 127
}

// Lookup returns the reserved-word kind for an identifier spelling, or
// Ident if the spelling is not reserved.
func Lookup(spelling string) Kind {
	if len(spelling) < 2 || len(spelling) > len("IMPLEMENTATION") {
		return Ident
	}
	if k := reserved[slot(spelling)]; k != EOF && kindNames[k] == spelling {
		return k
	}
	return Ident
}

// Pos is a source position within one file: line and column, both
// 1-based.  The file is named beside it (diagnostics and findings carry
// the file label), so a position means the same thing in every
// compilation and cached records replay it verbatim.  The zero Pos
// means "no position".
type Pos struct {
	Line int32
	Col  int32
}

// IsValid reports whether p denotes a real source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Before reports whether p is strictly before q in (line, column)
// order.  Used to merge diagnostics from concurrent streams into a stable
// order.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Token is one lexical token.  Text is set only for identifier and
// literal kinds (reserved words and operators carry no payload).
type Token struct {
	Kind Kind
	Pos  Pos
	Text string
}

func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit, RealLit, CharLit:
		// CharLit text is the octal 15C form and prints as written.
		return t.Text
	case StringLit:
		// Modula-2 strings have no escapes; pick whichever quote the
		// text does not contain.
		for i := 0; i < len(t.Text); i++ {
			if t.Text[i] == '"' {
				return "'" + t.Text + "'"
			}
		}
		return `"` + t.Text + `"`
	default:
		return t.Kind.String()
	}
}

// OpensEnd reports whether this reserved word opens a construct that is
// closed by END.  The splitter's finite-state recognizer uses this to
// match the END that terminates a procedure body without parsing
// (Wortman & Junkin §2.1: streams are identified by "a simple finite
// state recognizer" over the token sequence).
//
// BEGIN is deliberately absent: Modula-2 has no compound statement — the
// END after a block's BEGIN is matched by the PROCEDURE or MODULE that
// opened the block.  PROCEDURE is also absent because only a procedure
// *declaration* (PROCEDURE followed by an identifier) opens an END; a
// procedure *type* does not.  The splitter resolves that with one token
// of lookahead, as the paper describes.
func (k Kind) OpensEnd() bool {
	switch k {
	case CASE, FOR, IF, LOOP, MODULE, RECORD, WHILE, WITH, TRY, LOCK:
		return true
	}
	return false
}
