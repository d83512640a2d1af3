// Package ast defines the abstract syntax tree for Modula-2+.
//
// The concurrent compiler's task split (§3 of the paper) shows up
// directly in this tree: a ProcDecl in one stream may have its body
// compiled by a different stream, in which case Decls/Body are nil and
// BodyStream names the stream the splitter diverted the body to.
package ast

import "m2cc/internal/token"

// Name is an identifier occurrence.
type Name struct {
	Text string
	Pos  token.Pos
}

// ModKind distinguishes the three compilation-unit forms.
type ModKind uint8

const (
	// DefMod is a DEFINITION MODULE (an interface, file M.def).
	DefMod ModKind = iota
	// ImplMod is an IMPLEMENTATION MODULE (file M.mod).
	ImplMod
	// ProgMod is a program MODULE (a main module without a .def).
	ProgMod
)

func (k ModKind) String() string {
	switch k {
	case DefMod:
		return "DEFINITION MODULE"
	case ImplMod:
		return "IMPLEMENTATION MODULE"
	default:
		return "MODULE"
	}
}

// Module is one compilation unit.
type Module struct {
	Kind    ModKind
	Name    Name
	Imports []*Import
	Decls   []Decl
	Body    *StmtList // initialization/body statements; nil for DefMod
	Pos     token.Pos
}

// Import is one import declaration: either "FROM M IMPORT a, b;" (From
// set) or "IMPORT M, N;" (From empty, each name a module).
type Import struct {
	From  Name // zero Name for plain IMPORT
	Names []Name
	Pos   token.Pos
}

// Decl is a declaration.
type Decl interface{ declNode() }

// ConstDecl is "name = expr" within a CONST section.
type ConstDecl struct {
	Name Name
	Expr Expr
}

// TypeDecl is "name = type" within a TYPE section.  Type is nil for an
// opaque type declaration in a definition module ("TYPE T;").
type TypeDecl struct {
	Name Name
	Type Type
}

// VarDecl is "a, b: T" within a VAR section.
type VarDecl struct {
	Names []Name
	Type  Type
}

// ExceptionDecl is the Modula-2+ "EXCEPTION e1, e2;" declaration.
type ExceptionDecl struct {
	Names []Name
	Pos   token.Pos
}

// ProcHead is a procedure heading: name, formal parameters and optional
// result type.  Per §2.4 this is the information shared between parent
// and child scopes.
type ProcHead struct {
	Name   Name
	Params []*FPSection
	Ret    *Qualident // nil for proper procedures
	Pos    token.Pos
}

// FPSection is one formal-parameter section "VAR a, b: ARRAY OF T".
type FPSection struct {
	VarMode bool
	Names   []Name
	Open    bool // ARRAY OF prefix (open array)
	Type    *Qualident
}

// ProcDecl is a procedure declaration.  In a definition module, or for
// a body diverted to another stream, Decls and Body are nil.
type ProcDecl struct {
	Head *ProcHead
	// HeadingOnly marks a declaration with no body in this stream: a
	// definition-module heading, or (concurrent mode) a body that the
	// splitter diverted to stream BodyStream.
	HeadingOnly bool
	BodyStream  int32 // stream compiling the body; 0 = this stream
	Decls       []Decl
	Body        *StmtList
	EndName     Name
}

func (*ConstDecl) declNode()     {}
func (*TypeDecl) declNode()      {}
func (*VarDecl) declNode()       {}
func (*ExceptionDecl) declNode() {}
func (*ProcDecl) declNode()      {}

// Type is a syntactic type expression.
type Type interface{ typeNode() }

// Qualident is "ident" or "Module.ident" (or longer chains, resolved
// during semantic analysis).
type Qualident struct {
	Parts []Name
}

// Pos returns the position of the first component.
func (q *Qualident) Pos() token.Pos { return q.Parts[0].Pos }

// String renders the dotted form.
func (q *Qualident) String() string {
	s := q.Parts[0].Text
	for _, p := range q.Parts[1:] {
		s += "." + p.Text
	}
	return s
}

// NamedType is a type denoted by a (possibly qualified) identifier.
type NamedType struct {
	Name *Qualident
}

// EnumType is "(a, b, c)".
type EnumType struct {
	Names []Name
	Pos   token.Pos
}

// SubrangeType is "[lo .. hi]" with an optional base-type prefix
// "BaseType[lo .. hi]".
type SubrangeType struct {
	Base   *Qualident // may be nil
	Lo, Hi Expr
	Pos    token.Pos
}

// ArrayType is "ARRAY ix {, ix} OF elem".
type ArrayType struct {
	Indexes []Type
	Elem    Type
	Pos     token.Pos
}

// RecordType is "RECORD fields END".
type RecordType struct {
	Fields []*FieldList
	Pos    token.Pos
}

// FieldList is either a plain field group (Names/Type) or a variant
// part (Variant non-nil).
type FieldList struct {
	Names   []Name
	Type    Type
	Variant *VariantPart
}

// VariantPart is "CASE [tag :] TagType OF variants [ELSE fields] END".
type VariantPart struct {
	TagName Name       // zero Name when the tag field is anonymous
	TagType *Qualident // discriminating type
	Cases   []*VariantCase
	Else    []*FieldList
	Pos     token.Pos
}

// VariantCase is "labels : fields" within a variant part.
type VariantCase struct {
	Labels []*CaseLabel
	Fields []*FieldList
}

// SetType is "SET OF base".
type SetType struct {
	Base Type
	Pos  token.Pos
}

// PointerType is "POINTER TO base".
type PointerType struct {
	Base Type
	Pos  token.Pos
}

// RefType is the Modula-2+ "REF base" (a garbage-collected reference;
// this reproduction treats it as a pointer allocated with NEW and never
// DISPOSEd explicitly).
type RefType struct {
	Base Type
	Pos  token.Pos
}

// ProcType is "PROCEDURE [(formal types) [: ret]]".
type ProcType struct {
	Params []*ProcTypeParam
	Ret    *Qualident
	Pos    token.Pos
}

// ProcTypeParam is one formal type in a procedure type.
type ProcTypeParam struct {
	VarMode bool
	Open    bool
	Type    *Qualident
}

func (*NamedType) typeNode()    {}
func (*EnumType) typeNode()     {}
func (*SubrangeType) typeNode() {}
func (*ArrayType) typeNode()    {}
func (*RecordType) typeNode()   {}
func (*SetType) typeNode()      {}
func (*PointerType) typeNode()  {}
func (*RefType) typeNode()      {}
func (*ProcType) typeNode()     {}

// StmtList is a statement sequence.
type StmtList struct {
	Stmts []Stmt
}

// Stmt is a statement.
type Stmt interface{ stmtNode() }

// StmtPos returns a statement's source position.
func StmtPos(s Stmt) token.Pos {
	switch s := s.(type) {
	case *AssignStmt:
		return s.Pos
	case *CallStmt:
		return s.Pos
	case *IfStmt:
		return s.Pos
	case *CaseStmt:
		return s.Pos
	case *WhileStmt:
		return s.Pos
	case *RepeatStmt:
		return s.Pos
	case *LoopStmt:
		return s.Pos
	case *ExitStmt:
		return s.Pos
	case *ForStmt:
		return s.Pos
	case *WithStmt:
		return s.Pos
	case *ReturnStmt:
		return s.Pos
	case *RaiseStmt:
		return s.Pos
	case *TryStmt:
		return s.Pos
	case *LockStmt:
		return s.Pos
	}
	return token.Pos{}
}

// AssignStmt is "designator := expr".
type AssignStmt struct {
	LHS *Designator
	RHS Expr
	Pos token.Pos
}

// CallStmt is a procedure call used as a statement.
type CallStmt struct {
	Proc    *Designator
	Args    []Expr
	HasArgs bool // distinguishes "P" from "P()"
	Pos     token.Pos
}

// IfStmt is IF/ELSIF/ELSE/END.
type IfStmt struct {
	Cond   Expr
	Then   *StmtList
	Elsifs []ElsifArm
	Else   *StmtList // nil when absent
	Pos    token.Pos
}

// ElsifArm is one ELSIF branch.
type ElsifArm struct {
	Cond Expr
	Then *StmtList
}

// CaseLabel is "lo" or "lo .. hi" in CASE statements and variant parts.
type CaseLabel struct {
	Lo, Hi Expr // Hi nil for a single label
}

// CaseArm is "labels : statements" within a CASE statement.
type CaseArm struct {
	Labels []*CaseLabel
	Body   *StmtList
}

// CaseStmt is CASE expr OF arms [ELSE seq] END.
type CaseStmt struct {
	Expr Expr
	Arms []*CaseArm
	Else *StmtList // nil when no ELSE part
	Pos  token.Pos
}

// WhileStmt is WHILE cond DO body END.
type WhileStmt struct {
	Cond Expr
	Body *StmtList
	Pos  token.Pos
}

// RepeatStmt is REPEAT body UNTIL cond.
type RepeatStmt struct {
	Body *StmtList
	Cond Expr
	Pos  token.Pos
}

// LoopStmt is LOOP body END.
type LoopStmt struct {
	Body *StmtList
	Pos  token.Pos
}

// ExitStmt leaves the innermost LOOP.
type ExitStmt struct {
	Pos token.Pos
}

// ForStmt is FOR v := from TO to [BY step] DO body END.
type ForStmt struct {
	Var  Name
	From Expr
	To   Expr
	By   Expr // nil when absent
	Body *StmtList
	Pos  token.Pos
}

// WithStmt is WITH designator DO body END.
type WithStmt struct {
	Rec  *Designator
	Body *StmtList
	Pos  token.Pos
}

// ReturnStmt is RETURN [expr].
type ReturnStmt struct {
	Expr Expr // nil for proper procedures
	Pos  token.Pos
}

// RaiseStmt is the Modula-2+ "RAISE exception".
type RaiseStmt struct {
	Exc *Qualident
	Pos token.Pos
}

// TryStmt is the Modula-2+ "TRY body [EXCEPT handlers [ELSE seq]]
// [FINALLY seq] END".
type TryStmt struct {
	Body     *StmtList
	Handlers []*Handler
	Else     *StmtList // nil when no ELSE part
	Finally  *StmtList // nil when no FINALLY part
	Pos      token.Pos
}

// Handler is "exc1, exc2: statements" within EXCEPT.
type Handler struct {
	Excs []*Qualident
	Body *StmtList
}

// LockStmt is the Modula-2+ "LOCK mutex DO body END".
type LockStmt struct {
	Mutex Expr
	Body  *StmtList
	Pos   token.Pos
}

func (*AssignStmt) stmtNode() {}
func (*CallStmt) stmtNode()   {}
func (*IfStmt) stmtNode()     {}
func (*CaseStmt) stmtNode()   {}
func (*WhileStmt) stmtNode()  {}
func (*RepeatStmt) stmtNode() {}
func (*LoopStmt) stmtNode()   {}
func (*ExitStmt) stmtNode()   {}
func (*ForStmt) stmtNode()    {}
func (*WithStmt) stmtNode()   {}
func (*ReturnStmt) stmtNode() {}
func (*RaiseStmt) stmtNode()  {}
func (*TryStmt) stmtNode()    {}
func (*LockStmt) stmtNode()   {}

// Expr is an expression.
type Expr interface {
	exprNode()
	// ExprPos returns a representative source position for diagnostics.
	ExprPos() token.Pos
}

// BinaryExpr is "x op y".
type BinaryExpr struct {
	Op   token.Kind
	X, Y Expr
	Pos  token.Pos
}

// UnaryExpr is "+x", "-x" or "NOT x".
type UnaryExpr struct {
	Op  token.Kind
	X   Expr
	Pos token.Pos
}

// IntLit is an integer literal (decimal, hex or octal, already decoded).
type IntLit struct {
	Value int64
	Text  string
	Pos   token.Pos
}

// RealLit is a real literal.
type RealLit struct {
	Value float64
	Text  string
	Pos   token.Pos
}

// StringLit is a string literal.  One-character strings double as
// character literals; the semantic analyzer decides from context.
type StringLit struct {
	Value string
	Pos   token.Pos
}

// CharLit is an octal character literal (e.g. 15C).
type CharLit struct {
	Value byte
	Text  string
	Pos   token.Pos
}

// SetExpr is a set constructor "{a, b..c}" with an optional set-type
// qualifier "T{...}" (the parser records the qualifier in Type; a bare
// "{...}" has Type nil and defaults to BITSET).
type SetExpr struct {
	Type  *Qualident
	Elems []SetElem
	Pos   token.Pos
}

// SetElem is one element or range in a set constructor.
type SetElem struct {
	Lo, Hi Expr // Hi nil for a single element
}

// Selector is one step of a designator: field selection, indexing or
// pointer dereference.
type Selector interface{ selNode() }

// FieldSel is ".name".  Module qualification (M.x) parses as FieldSel
// too; the semantic analyzer reclassifies it when the head resolves to
// a module.
type FieldSel struct {
	Name Name
}

// IndexSel is "[e1, e2]".
type IndexSel struct {
	Indexes []Expr
	Pos     token.Pos
}

// DerefSel is "^".
type DerefSel struct {
	Pos token.Pos
}

func (*FieldSel) selNode() {}
func (*IndexSel) selNode() {}
func (*DerefSel) selNode() {}

// Designator is a variable/procedure reference with selectors.
type Designator struct {
	Head Name
	Sels []Selector
}

// CallExpr is a function call in an expression.
type CallExpr struct {
	Fun  *Designator
	Args []Expr
	Pos  token.Pos
}

func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*IntLit) exprNode()     {}
func (*RealLit) exprNode()    {}
func (*StringLit) exprNode()  {}
func (*CharLit) exprNode()    {}
func (*SetExpr) exprNode()    {}
func (*Designator) exprNode() {}
func (*CallExpr) exprNode()   {}

// ExprPos implementations.
func (e *BinaryExpr) ExprPos() token.Pos { return e.Pos }
func (e *UnaryExpr) ExprPos() token.Pos  { return e.Pos }
func (e *IntLit) ExprPos() token.Pos     { return e.Pos }
func (e *RealLit) ExprPos() token.Pos    { return e.Pos }
func (e *StringLit) ExprPos() token.Pos  { return e.Pos }
func (e *CharLit) ExprPos() token.Pos    { return e.Pos }
func (e *SetExpr) ExprPos() token.Pos    { return e.Pos }
func (e *Designator) ExprPos() token.Pos { return e.Head.Pos }
func (e *CallExpr) ExprPos() token.Pos   { return e.Pos }
