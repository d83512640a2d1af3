// Package parser implements recursive-descent syntax analysis for
// Modula-2+.
//
// The concurrent compiler uses the parser in *staged* form, matching the
// unorthodox task division of §3: the Parser/Declarations-Analyzer task
// of a stream parses the prologue and declarations (ParsePrologue,
// ParseDeclarations), runs declaration analysis, marks the stream's
// symbol table complete, and only then builds the statement parse tree
// (ParseBody) — "the symbol table for the declarations is marked
// complete before the statement parse tree is built", so tables complete
// early and DKY blockages resolve sooner.  The sequential compiler uses
// ParseUnit, which performs the same stages back to back.
package parser

import (
	"fmt"
	"strconv"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/token"
)

// TokenSource supplies tokens.  Both tokq.Reader (concurrent streams)
// and SliceSource (sequential compilation, tests) satisfy it.
type TokenSource interface {
	Next() token.Token
	PeekN(n int) token.Token
}

// SliceSource is a TokenSource over a pre-lexed token slice ending in an
// EOF token.
type SliceSource struct {
	Toks []token.Token
	i    int
}

// NewSliceSource returns a source over toks, which must end with EOF.
func NewSliceSource(toks []token.Token) *SliceSource { return &SliceSource{Toks: toks} }

// Next implements TokenSource.
func (s *SliceSource) Next() token.Token {
	if s.i >= len(s.Toks) {
		return s.Toks[len(s.Toks)-1] // the EOF token
	}
	t := s.Toks[s.i]
	s.i++
	return t
}

// PeekN implements TokenSource.
func (s *SliceSource) PeekN(n int) token.Token {
	j := s.i + n - 1
	if j >= len(s.Toks) {
		return s.Toks[len(s.Toks)-1]
	}
	return s.Toks[j]
}

// Parser holds the state of one syntax analysis.
type Parser struct {
	src   TokenSource
	tok   token.Token
	file  string
	ctx   *ctrace.TaskCtx
	diags *diag.Bag

	inDef    bool // parsing a DEFINITION MODULE: procedures are headings only
	errCount int  // parser-local error count, bounds cascading recovery
	depth    int  // nesting level of the tree under construction (see MaxNesting)
	procs    int  // inline procedure bodies open (see MaxProcNesting)

	// Arena receives the nodes parsed from then on, declarations and
	// statements alike (see ast.Arena); nil allocates them from the
	// heap.  The concurrent driver lends a stream's parse an arena for
	// each stretch of parsing and takes it back while the stream's
	// declarations are analyzed, which may wait on other streams.
	Arena *ast.Arena
	own   ast.Stacks // scratch stacks when there is no arena
}

// New returns a parser over src.  file is the human-readable file label
// for diagnostics; ctx accumulates parse cost (must be non-nil).
func New(src TokenSource, file string, ctx *ctrace.TaskCtx, diags *diag.Bag) *Parser {
	p := new(Parser)
	p.Init(nil, src, file, ctx, diags)
	return p
}

// Init readies p, whatever it parsed before, for a parse of src into a,
// as New does; a driver that keeps its parser in place (on its task's
// stack) makes none per parse.
func (p *Parser) Init(a *ast.Arena, src TokenSource, file string, ctx *ctrace.TaskCtx, diags *diag.Bag) {
	*p = Parser{src: src, file: file, ctx: ctx, diags: diags, Arena: a}
	p.next()
}

func (p *Parser) next() {
	p.ctx.Add(ctrace.CostParseToken)
	p.tok = p.src.Next()
}

func (p *Parser) peek() token.Token { return p.src.PeekN(1) }

// maxErrors is how many diagnostics one parse reports.
const maxErrors = 40

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	p.errCount++
	if p.errCount <= maxErrors {
		p.diags.Errorf(p.file, pos, format, args...)
	}
}

// MaxNesting bounds the depth of the trees the parser builds.  A nested
// expression, statement sequence or type is one level deeper than the
// one it is in, and so is each operator of a chain such as 1+1+…+1,
// whose tree is as deep as the chain is long.  Sema, codegen, check and
// the printer walk these trees recursively, and Go cannot recover from
// a stack overflow, so a deeper input is rejected here.
const MaxNesting = 1000

// nest enters one more level and reports whether it could.  Past
// MaxNesting it reports where, skips the rest of the stream with
// nothing more reported, and returns false, so the parse unwinds
// without building deeper.  A caller that entered leaves again before
// it returns.
func (p *Parser) nest() bool {
	if p.depth < MaxNesting {
		p.depth++
		return true
	}
	return p.tooDeep()
}

func (p *Parser) tooDeep() bool {
	p.errorf(p.tok.Pos, "nesting deeper than %d levels", MaxNesting)
	p.errCount = maxErrors
	for !p.at(token.EOF) {
		p.next()
	}
	return false
}

func (p *Parser) unnest() { p.depth-- }

func (p *Parser) at(k token.Kind) bool { return p.tok.Kind == k }

// expect consumes a token of kind k, reporting an error (without
// consuming) on mismatch.  It returns the matched token's position.
func (p *Parser) expect(k token.Kind) token.Pos {
	pos := p.tok.Pos
	if p.tok.Kind != k {
		p.errorf(pos, "expected %s, found %s", k, p.tok)
		return pos
	}
	p.next()
	return pos
}

// accept consumes a token of kind k if present and reports whether it
// did.
func (p *Parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) name() ast.Name {
	if p.tok.Kind != token.Ident {
		p.errorf(p.tok.Pos, "expected identifier, found %s", p.tok)
		return ast.Name{Text: "?", Pos: p.tok.Pos}
	}
	n := ast.Name{Text: p.tok.Text, Pos: p.tok.Pos}
	p.next()
	return n
}

func (p *Parser) nameList() []ast.Name {
	return list(p, &p.stacks().Names, token.Comma, p.name)
}

// list parses items separated by sep, pushing each on the scratch stack
// *st, and returns them as one exact-size list.
func list[T any](p *Parser, st *[]T, sep token.Kind, item func() T) []T {
	base := len(*st)
	for {
		v := item() // may push and pop nested lists: append after
		*st = append(*st, v)
		if !p.accept(sep) {
			return ast.Pop(p.Arena, st, base)
		}
	}
}

func (p *Parser) qualident() *ast.Qualident {
	q := ast.New(p.Arena, ast.Qualident{Parts: ast.Append(p.Arena, nil, p.name())})
	for p.at(token.Dot) && p.peek().Kind == token.Ident {
		p.next()
		q.Parts = ast.Append(p.Arena, q.Parts, p.name())
	}
	return q
}

// ---------------------------------------------------------------------
// Compilation units

// ParsePrologue parses the module header and import list, returning a
// Module with Kind, Name and Imports set.  Declarations and body are
// parsed by the later stages.
func (p *Parser) ParsePrologue() *ast.Module {
	m := ast.New(p.Arena, ast.Module{Pos: p.tok.Pos})
	switch p.tok.Kind {
	case token.DEFINITION:
		p.next()
		p.expect(token.MODULE)
		m.Kind = ast.DefMod
		p.inDef = true
	case token.IMPLEMENTATION:
		p.next()
		p.expect(token.MODULE)
		m.Kind = ast.ImplMod
	case token.MODULE:
		p.next()
		m.Kind = ast.ProgMod
	default:
		p.errorf(p.tok.Pos, "expected DEFINITION, IMPLEMENTATION or MODULE, found %s", p.tok)
		m.Kind = ast.ProgMod
	}
	m.Name = p.name()
	// Optional module priority "[const]" (parsed and ignored).
	if p.accept(token.LBrack) {
		p.parseExpr()
		p.expect(token.RBrack)
	}
	p.expect(token.Semicolon)
	m.Imports = p.parseImports()
	// Old-style definition modules may carry EXPORT QUALIFIED lists;
	// definition modules export everything, so the list is parsed and
	// ignored.
	if m.Kind == ast.DefMod && p.accept(token.EXPORT) {
		p.accept(token.QUALIFIED)
		p.nameList()
		p.expect(token.Semicolon)
	}
	return m
}

func (p *Parser) parseImports() []*ast.Import {
	st := p.stacks()
	base := len(st.Imports)
	for p.at(token.FROM) || p.at(token.IMPORT) {
		imp := ast.New(p.Arena, ast.Import{Pos: p.tok.Pos})
		if p.accept(token.FROM) {
			imp.From = p.name()
			p.expect(token.IMPORT)
		} else {
			p.next()
		}
		imp.Names = p.nameList()
		st.Imports = append(st.Imports, imp)
		p.expect(token.Semicolon)
	}
	return ast.Pop(p.Arena, &st.Imports, base)
}

// ParseDeclarations parses declaration sections until BEGIN, END or end
// of stream.
func (p *Parser) ParseDeclarations() []ast.Decl {
	st := p.stacks()
	base := len(st.Decls)
	for {
		var d ast.Decl // pushed once parsed: nested lists push and pop first
		switch p.tok.Kind {
		case token.CONST:
			p.next()
			for p.at(token.Ident) {
				d := ast.New(p.Arena, ast.ConstDecl{Name: p.name()})
				p.expect(token.Equal)
				d.Expr = p.parseExpr()
				p.expect(token.Semicolon)
				st.Decls = append(st.Decls, d)
			}
		case token.TYPE:
			p.next()
			for p.at(token.Ident) {
				d := ast.New(p.Arena, ast.TypeDecl{Name: p.name()})
				if p.accept(token.Equal) {
					d.Type = p.parseType()
				}
				p.expect(token.Semicolon)
				st.Decls = append(st.Decls, d)
			}
		case token.VAR:
			p.next()
			for p.at(token.Ident) {
				d := ast.New(p.Arena, ast.VarDecl{Names: p.nameList()})
				p.expect(token.Colon)
				d.Type = p.parseType()
				p.expect(token.Semicolon)
				st.Decls = append(st.Decls, d)
			}
		case token.EXCEPTION:
			pos := p.tok.Pos
			p.next()
			d = ast.New(p.Arena, ast.ExceptionDecl{Names: p.nameList(), Pos: pos})
			p.expect(token.Semicolon)
		case token.PROCEDURE:
			d = p.parseProcDecl()
		case token.MODULE:
			p.errorf(p.tok.Pos, "local modules are not supported by this compiler")
			p.next()
			p.skipBlock(1)
			p.accept(token.Semicolon)
		case token.BEGIN, token.END, token.EOF:
			return ast.Pop(p.Arena, &st.Decls, base)
		default:
			p.errorf(p.tok.Pos, "expected a declaration, found %s", p.tok)
			p.next() // guarantee progress
		}
		if d != nil {
			st.Decls = append(st.Decls, d)
		}
	}
}

// skipBlock consumes tokens up to the END that closes depth open
// constructs, using END-depth matching, and the name after that END, so
// parsing can continue after a construct it does not build.
func (p *Parser) skipBlock(depth int) {
	for depth > 0 && !p.at(token.EOF) {
		switch {
		case p.tok.Kind.OpensEnd(), p.tok.Kind == token.PROCEDURE && p.peek().Kind == token.Ident:
			depth++
		case p.tok.Kind == token.END:
			depth--
		}
		p.next()
	}
	if depth == 0 {
		p.accept(token.Ident)
	}
}

// ParseProcHead parses "PROCEDURE name [params] [: ret]".  The caller
// has verified that the current token is PROCEDURE.
func (p *Parser) ParseProcHead() *ast.ProcHead {
	pos := p.expect(token.PROCEDURE)
	h := ast.New(p.Arena, ast.ProcHead{Pos: pos, Name: p.name()})
	if p.accept(token.LParen) {
		st := p.stacks()
		base := len(st.Params)
		for !p.at(token.RParen) && !p.at(token.EOF) {
			sec := p.fpSection() // may push and pop nested lists: append after
			st.Params = append(st.Params, sec)
			if !p.accept(token.Semicolon) {
				break
			}
		}
		h.Params = ast.Pop(p.Arena, &st.Params, base)
		p.expect(token.RParen)
	}
	if p.accept(token.Colon) {
		h.Ret = p.qualident()
	}
	return h
}

// fpSection parses one formal-parameter section "[VAR] a, b: [ARRAY OF] T".
func (p *Parser) fpSection() *ast.FPSection {
	sec := ast.New(p.Arena, ast.FPSection{VarMode: p.accept(token.VAR)})
	sec.Names = p.nameList()
	p.expect(token.Colon)
	if p.accept(token.ARRAY) {
		p.expect(token.OF)
		sec.Open = true
	}
	sec.Type = p.qualident()
	return sec
}

// MaxProcNesting bounds how deep procedures nest.  Each procedure body
// is a stream of its own, so MaxNesting never sees this depth: the
// splitter drops a body nested deeper and leaves a BodyRef without a
// stream number, which the parser reports, and the parser does the
// same with an inline body (the sequential compiler and the linter).
const MaxProcNesting = 500

func (p *Parser) parseProcDecl() *ast.ProcDecl {
	head := p.ParseProcHead()
	d := ast.New(p.Arena, ast.ProcDecl{Head: head})
	p.expect(token.Semicolon)
	switch {
	case p.tok.Kind == token.BodyRef:
		// Concurrent mode: the splitter diverted the body to another
		// stream and left its number behind.
		n, err := strconv.Atoi(p.tok.Text)
		switch {
		case p.tok.Text == "":
			p.tooManyProcs(p.tok.Pos)
		case err != nil:
			p.errorf(p.tok.Pos, "corrupt stream reference %q", p.tok.Text)
		}
		d.HeadingOnly = true
		d.BodyStream = int32(n)
		p.next()
		p.expect(token.Semicolon)
	case p.inDef:
		// Definition module: headings never have bodies.
		d.HeadingOnly = true
	default:
		// Sequential mode: the body follows inline, whatever it starts
		// with, as the splitter diverts it whatever it starts with.
		if p.procs == MaxProcNesting {
			p.tooManyProcs(head.Pos)
			d.HeadingOnly = true
			p.skipBlock(1)
			p.expect(token.Semicolon)
			return d
		}
		p.procs++
		d.Decls = p.ParseDeclarations()
		if p.accept(token.BEGIN) {
			d.Body = p.parseStmtList()
		}
		p.procs--
		p.expect(token.END)
		d.EndName = p.name()
		if d.EndName.Text != head.Name.Text {
			p.errorf(d.EndName.Pos, "procedure %s ends with name %s", head.Name.Text, d.EndName.Text)
		}
		p.expect(token.Semicolon)
	}
	return d
}

// ErrProcNesting is the message reported at a procedure nested deeper
// than MaxProcNesting.
var ErrProcNesting = fmt.Sprintf("procedures nested deeper than %d levels", MaxProcNesting)

func (p *Parser) tooManyProcs(pos token.Pos) { p.errorf(pos, "%s", ErrProcNesting) }

// ParseBody parses the optional module body "BEGIN seq" (a definition
// module has none) plus the closing "END name .".
func (p *Parser) ParseBody(m *ast.Module) {
	if m.Kind != ast.DefMod && p.accept(token.BEGIN) {
		m.Body = p.parseStmtList()
	}
	p.expect(token.END)
	end := p.name()
	if end.Text != m.Name.Text {
		p.errorf(end.Pos, "module %s ends with name %s", m.Name.Text, end.Text)
	}
	p.expect(token.Dot)
}

// ParseUnit parses a complete compilation unit (sequential compiler and
// definition-module streams).
func (p *Parser) ParseUnit() *ast.Module {
	m := p.ParsePrologue()
	m.Decls = p.ParseDeclarations()
	p.ParseBody(m)
	return m
}

// ProcStream is the parse result of a procedure stream's tail: its body
// and the END name.
type ProcStream struct {
	Body    *ast.StmtList
	EndName ast.Name
}

// ParseProcTail parses the remainder of a procedure stream after its
// declarations: "[BEGIN seq] END name".  procName is the expected END
// name.  A nameless END is followed by a copy of the token after it in
// the source (see splitter.RunObserved), reported in the name's place.
func (p *Parser) ParseProcTail(procName string) (ps ProcStream) {
	if p.accept(token.BEGIN) {
		ps.Body = p.parseStmtList()
	}
	ended := p.at(token.END)
	p.expect(token.END)
	named := p.at(token.Ident)
	ps.EndName = p.name()
	if ps.EndName.Text != procName {
		p.errorf(ps.EndName.Pos, "procedure %s ends with name %s", procName, ps.EndName.Text)
	}
	if ended && !named && p.peek().Kind == token.EOF {
		p.next() // the splitter's copy of the token after a nameless END, which the parent parses
	}
	if !p.at(token.EOF) {
		p.errorf(p.tok.Pos, "unexpected %s after procedure body", p.tok)
	}
	return ps
}

// AcceptSemicolon consumes a ";" if present (used after a re-processed
// procedure heading in header-sharing alternative 3).
func (p *Parser) AcceptSemicolon() bool { return p.accept(token.Semicolon) }

// ---------------------------------------------------------------------
// Types

func (p *Parser) parseType() ast.Type {
	if !p.nest() {
		return p.badType()
	}
	defer p.unnest()
	switch p.tok.Kind {
	case token.Ident:
		q := p.qualident()
		if p.at(token.LBrack) {
			// Base-qualified subrange: T[lo..hi].
			return p.parseSubrange(q)
		}
		return ast.New(p.Arena, ast.NamedType{Name: q})
	case token.LParen:
		pos := p.tok.Pos
		p.next()
		e := ast.New(p.Arena, ast.EnumType{Pos: pos, Names: p.nameList()})
		p.expect(token.RParen)
		return e
	case token.LBrack:
		return p.parseSubrange(nil)
	case token.ARRAY:
		pos := p.tok.Pos
		p.next()
		a := ast.New(p.Arena, ast.ArrayType{Pos: pos, Indexes: list(p, &p.stacks().Types, token.Comma, p.parseType)})
		p.expect(token.OF)
		a.Elem = p.parseType()
		return a
	case token.RECORD:
		pos := p.tok.Pos
		p.next()
		r := ast.New(p.Arena, ast.RecordType{Pos: pos, Fields: p.parseFieldLists()})
		p.expect(token.END)
		return r
	case token.SET:
		pos := p.tok.Pos
		p.next()
		p.expect(token.OF)
		return ast.New(p.Arena, ast.SetType{Pos: pos, Base: p.parseType()})
	case token.POINTER:
		pos := p.tok.Pos
		p.next()
		p.expect(token.TO)
		return ast.New(p.Arena, ast.PointerType{Pos: pos, Base: p.parseType()})
	case token.REF:
		pos := p.tok.Pos
		p.next()
		return ast.New(p.Arena, ast.RefType{Pos: pos, Base: p.parseType()})
	case token.PROCEDURE:
		return p.parseProcType()
	default:
		p.errorf(p.tok.Pos, "expected a type, found %s", p.tok)
		p.next()
		return p.badType()
	}
}

// badType stands in for a type that could not be parsed.
func (p *Parser) badType() ast.Type {
	q := ast.New(p.Arena, ast.Qualident{Parts: ast.Append(p.Arena, nil, ast.Name{Text: "INTEGER", Pos: p.tok.Pos})})
	return ast.New(p.Arena, ast.NamedType{Name: q})
}

func (p *Parser) parseSubrange(base *ast.Qualident) ast.Type {
	pos := p.expect(token.LBrack)
	s := ast.New(p.Arena, ast.SubrangeType{Base: base, Pos: pos})
	s.Lo = p.parseExpr()
	p.expect(token.DotDot)
	s.Hi = p.parseExpr()
	p.expect(token.RBrack)
	return s
}

func (p *Parser) parseFieldLists() []*ast.FieldList {
	if !p.nest() {
		return nil
	}
	defer p.unnest()
	st := p.stacks()
	base := len(st.Fields)
	for {
		var fl *ast.FieldList
		switch p.tok.Kind {
		case token.Ident:
			fl = ast.New(p.Arena, ast.FieldList{Names: p.nameList()})
			p.expect(token.Colon)
			fl.Type = p.parseType()
		case token.CASE:
			v := p.parseVariantPart()
			fl = ast.New(p.Arena, ast.FieldList{Variant: v})
		}
		if fl != nil {
			st.Fields = append(st.Fields, fl)
		}
		if !p.accept(token.Semicolon) {
			return ast.Pop(p.Arena, &st.Fields, base)
		}
	}
}

func (p *Parser) parseVariantPart() *ast.VariantPart {
	pos := p.expect(token.CASE)
	v := ast.New(p.Arena, ast.VariantPart{Pos: pos})
	// "CASE tag : Type OF" or "CASE Type OF" (anonymous tag, old-style
	// "CASE : Type OF" also accepted).
	if p.at(token.Ident) && p.peek().Kind == token.Colon {
		v.TagName = p.name()
		p.next() // ':'
		v.TagType = p.qualident()
	} else {
		p.accept(token.Colon)
		v.TagType = p.qualident()
	}
	p.expect(token.OF)
	for {
		if p.at(token.Bar) {
			p.next()
			continue
		}
		if p.at(token.ELSE) || p.at(token.END) || p.at(token.EOF) {
			break
		}
		c := ast.New(p.Arena, ast.VariantCase{Labels: p.parseCaseLabels()})
		p.expect(token.Colon)
		c.Fields = p.parseFieldLists()
		v.Cases = ast.Append(p.Arena, v.Cases, c)
		if !p.accept(token.Bar) {
			break
		}
	}
	if p.accept(token.ELSE) {
		v.Else = p.parseFieldLists()
	}
	p.expect(token.END)
	return v
}

func (p *Parser) parseCaseLabels() []*ast.CaseLabel {
	var labels []*ast.CaseLabel
	for {
		l := ast.New(p.Arena, ast.CaseLabel{Lo: p.parseExpr()})
		if p.accept(token.DotDot) {
			l.Hi = p.parseExpr()
		}
		labels = ast.Append(p.Arena, labels, l)
		if !p.accept(token.Comma) {
			return labels
		}
	}
}

func (p *Parser) parseProcType() ast.Type {
	pos := p.expect(token.PROCEDURE)
	t := ast.New(p.Arena, ast.ProcType{Pos: pos})
	if p.accept(token.LParen) {
		for !p.at(token.RParen) && !p.at(token.EOF) {
			param := ast.New(p.Arena, ast.ProcTypeParam{VarMode: p.accept(token.VAR)})
			if p.accept(token.ARRAY) {
				p.expect(token.OF)
				param.Open = true
			}
			param.Type = p.qualident()
			t.Params = ast.Append(p.Arena, t.Params, param)
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RParen)
	}
	if p.accept(token.Colon) {
		t.Ret = p.qualident()
	}
	return t
}

// stacks returns the scratch stacks for lists under construction.
func (p *Parser) stacks() *ast.Stacks {
	if p.Arena != nil {
		return &p.Arena.Stacks
	}
	return &p.own
}

// exprList parses "expr {, expr}" and returns it as an exact-size
// slice.
func (p *Parser) exprList() []ast.Expr {
	return list(p, &p.stacks().Exprs, token.Comma, p.parseExpr)
}

// ---------------------------------------------------------------------
// Statements

// stmtListStop reports whether the current token terminates a statement
// sequence.
func (p *Parser) stmtListStop() bool {
	switch p.tok.Kind {
	case token.END, token.ELSE, token.ELSIF, token.UNTIL, token.Bar,
		token.EXCEPT, token.FINALLY, token.EOF:
		return true
	}
	return false
}

func (p *Parser) parseStmtList() *ast.StmtList {
	if !p.nest() {
		return ast.New(p.Arena, ast.StmtList{})
	}
	st := p.stacks()
	base := len(st.Stmts)
	for {
		for p.accept(token.Semicolon) {
		}
		if p.stmtListStop() {
			break
		}
		if s := p.parseStmt(); s != nil {
			st.Stmts = append(st.Stmts, s)
		}
		if !p.at(token.Semicolon) && !p.stmtListStop() {
			p.errorf(p.tok.Pos, "expected ; between statements, found %s", p.tok)
			p.next() // guarantee progress
		}
	}
	sl := ast.New(p.Arena, ast.StmtList{Stmts: ast.Pop(p.Arena, &st.Stmts, base)})
	p.unnest()
	return sl
}

func (p *Parser) parseStmt() ast.Stmt {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.Ident:
		d := p.parseDesignator()
		switch p.tok.Kind {
		case token.Assign:
			p.next()
			return ast.New(p.Arena, ast.AssignStmt{LHS: d, RHS: p.parseExpr(), Pos: pos})
		case token.LParen:
			p.next()
			var args []ast.Expr
			if !p.at(token.RParen) {
				args = p.exprList()
			}
			p.expect(token.RParen)
			return ast.New(p.Arena, ast.CallStmt{Proc: d, Args: args, HasArgs: true, Pos: pos})
		default:
			return ast.New(p.Arena, ast.CallStmt{Proc: d, Pos: pos})
		}
	case token.IF:
		p.next()
		s := ast.New(p.Arena, ast.IfStmt{Pos: pos, Cond: p.parseExpr()})
		p.expect(token.THEN)
		s.Then = p.parseStmtList()
		for p.at(token.ELSIF) {
			p.next()
			arm := ast.ElsifArm{Cond: p.parseExpr()}
			p.expect(token.THEN)
			arm.Then = p.parseStmtList()
			s.Elsifs = ast.Append(p.Arena, s.Elsifs, arm)
		}
		if p.accept(token.ELSE) {
			s.Else = p.parseStmtList()
		}
		p.expect(token.END)
		return s
	case token.CASE:
		p.next()
		s := ast.New(p.Arena, ast.CaseStmt{Pos: pos, Expr: p.parseExpr()})
		p.expect(token.OF)
		for {
			if p.at(token.Bar) {
				p.next()
				continue
			}
			if p.at(token.ELSE) || p.at(token.END) || p.at(token.EOF) {
				break
			}
			arm := ast.New(p.Arena, ast.CaseArm{Labels: p.parseCaseLabels()})
			p.expect(token.Colon)
			arm.Body = p.parseStmtList()
			s.Arms = ast.Append(p.Arena, s.Arms, arm)
			if !p.accept(token.Bar) {
				break
			}
		}
		if p.accept(token.ELSE) {
			s.Else = p.parseStmtList()
		}
		p.expect(token.END)
		return s
	case token.WHILE:
		p.next()
		s := ast.New(p.Arena, ast.WhileStmt{Pos: pos, Cond: p.parseExpr()})
		p.expect(token.DO)
		s.Body = p.parseStmtList()
		p.expect(token.END)
		return s
	case token.REPEAT:
		p.next()
		s := ast.New(p.Arena, ast.RepeatStmt{Pos: pos, Body: p.parseStmtList()})
		p.expect(token.UNTIL)
		s.Cond = p.parseExpr()
		return s
	case token.LOOP:
		p.next()
		s := ast.New(p.Arena, ast.LoopStmt{Pos: pos, Body: p.parseStmtList()})
		p.expect(token.END)
		return s
	case token.EXIT:
		p.next()
		return ast.New(p.Arena, ast.ExitStmt{Pos: pos})
	case token.FOR:
		p.next()
		s := ast.New(p.Arena, ast.ForStmt{Pos: pos, Var: p.name()})
		p.expect(token.Assign)
		s.From = p.parseExpr()
		p.expect(token.TO)
		s.To = p.parseExpr()
		if p.accept(token.BY) {
			s.By = p.parseExpr()
		}
		p.expect(token.DO)
		s.Body = p.parseStmtList()
		p.expect(token.END)
		return s
	case token.WITH:
		p.next()
		s := ast.New(p.Arena, ast.WithStmt{Pos: pos, Rec: p.parseDesignator()})
		p.expect(token.DO)
		s.Body = p.parseStmtList()
		p.expect(token.END)
		return s
	case token.RETURN:
		p.next()
		s := ast.New(p.Arena, ast.ReturnStmt{Pos: pos})
		if !p.stmtListStop() && !p.at(token.Semicolon) {
			s.Expr = p.parseExpr()
		}
		return s
	case token.RAISE:
		p.next()
		return ast.New(p.Arena, ast.RaiseStmt{Pos: pos, Exc: p.qualident()})
	case token.TRY:
		p.next()
		s := ast.New(p.Arena, ast.TryStmt{Pos: pos, Body: p.parseStmtList()})
		if p.accept(token.EXCEPT) {
			for p.at(token.Ident) {
				h := ast.New(p.Arena, ast.Handler{Excs: ast.Append(p.Arena, nil, p.qualident())})
				for p.accept(token.Comma) {
					h.Excs = ast.Append(p.Arena, h.Excs, p.qualident())
				}
				p.expect(token.Colon)
				h.Body = p.parseStmtList()
				s.Handlers = ast.Append(p.Arena, s.Handlers, h)
				p.accept(token.Bar)
			}
			if p.accept(token.ELSE) {
				s.Else = p.parseStmtList()
			}
		}
		if p.accept(token.FINALLY) {
			s.Finally = p.parseStmtList()
		}
		p.expect(token.END)
		return s
	case token.LOCK:
		p.next()
		s := ast.New(p.Arena, ast.LockStmt{Pos: pos, Mutex: p.parseExpr()})
		p.expect(token.DO)
		s.Body = p.parseStmtList()
		p.expect(token.END)
		return s
	default:
		p.errorf(pos, "expected a statement, found %s", p.tok)
		p.next()
		return nil
	}
}

// ---------------------------------------------------------------------
// Expressions

func (p *Parser) parseExpr() ast.Expr {
	if !p.nest() {
		return ast.New(p.Arena, ast.IntLit{Text: "0", Pos: p.tok.Pos})
	}
	x := p.parseSimpleExpr()
	switch p.tok.Kind {
	case token.Equal, token.NotEqual, token.Less, token.LessEq,
		token.Greater, token.GreaterEq, token.IN:
		op := p.tok.Kind
		pos := p.tok.Pos
		p.next()
		x = ast.New(p.Arena, ast.BinaryExpr{Op: op, X: x, Y: p.parseSimpleExpr(), Pos: pos})
	}
	p.unnest()
	return x
}

func (p *Parser) parseSimpleExpr() ast.Expr {
	var lead *ast.UnaryExpr
	if p.at(token.Plus) || p.at(token.Minus) {
		lead = ast.New(p.Arena, ast.UnaryExpr{Op: p.tok.Kind, Pos: p.tok.Pos})
		p.next()
	}
	x := p.parseTerm()
	if lead != nil {
		lead.X = x
		x = lead
	}
	depth := p.depth // each operator of a chain is one level deeper
	for (p.at(token.Plus) || p.at(token.Minus) || p.at(token.OR)) && p.nest() {
		op := p.tok.Kind
		pos := p.tok.Pos
		p.next()
		x = ast.New(p.Arena, ast.BinaryExpr{Op: op, X: x, Y: p.parseTerm(), Pos: pos})
	}
	p.depth = depth
	return x
}

func (p *Parser) parseTerm() ast.Expr {
	x := p.parseFactor()
	depth := p.depth // as in parseSimpleExpr
	for p.mulOp() && p.nest() {
		op := p.tok.Kind
		if op == token.Amp {
			op = token.AND
		}
		pos := p.tok.Pos
		p.next()
		x = ast.New(p.Arena, ast.BinaryExpr{Op: op, X: x, Y: p.parseFactor(), Pos: pos})
	}
	p.depth = depth
	return x
}

func (p *Parser) mulOp() bool {
	switch p.tok.Kind {
	case token.Star, token.Slash, token.DIV, token.MOD, token.AND, token.Amp:
		return true
	}
	return false
}

func (p *Parser) parseFactor() ast.Expr {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.IntLit:
		e := ast.New(p.Arena, ast.IntLit{Value: decodeInt(p.tok.Text), Text: p.tok.Text, Pos: pos})
		p.next()
		return e
	case token.RealLit:
		v, _ := strconv.ParseFloat(p.tok.Text, 64)
		e := ast.New(p.Arena, ast.RealLit{Value: v, Text: p.tok.Text, Pos: pos})
		p.next()
		return e
	case token.CharLit:
		// Octal form nnC.
		v, _ := strconv.ParseUint(p.tok.Text[:len(p.tok.Text)-1], 8, 16)
		e := ast.New(p.Arena, ast.CharLit{Value: byte(v), Text: p.tok.Text, Pos: pos})
		p.next()
		return e
	case token.StringLit:
		e := ast.New(p.Arena, ast.StringLit{Value: p.tok.Text, Pos: pos})
		p.next()
		return e
	case token.LBrace:
		return p.parseSetExpr(nil, pos)
	case token.Ident:
		return p.parseDesignatorOrCall()
	case token.LParen:
		p.next()
		e := p.parseExpr()
		p.expect(token.RParen)
		return e
	case token.NOT, token.Tilde:
		p.next()
		if !p.nest() {
			return ast.New(p.Arena, ast.IntLit{Text: "0", Pos: pos})
		}
		e := ast.New(p.Arena, ast.UnaryExpr{Op: token.NOT, X: p.parseFactor(), Pos: pos})
		p.unnest()
		return e
	default:
		p.errorf(pos, "expected an expression, found %s", p.tok)
		p.next()
		return ast.New(p.Arena, ast.IntLit{Value: 0, Text: "0", Pos: pos})
	}
}

func (p *Parser) parseSetExpr(qual *ast.Qualident, pos token.Pos) ast.Expr {
	p.expect(token.LBrace)
	s := ast.New(p.Arena, ast.SetExpr{Type: qual, Pos: pos})
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		el := ast.SetElem{Lo: p.parseExpr()}
		if p.accept(token.DotDot) {
			el.Hi = p.parseExpr()
		}
		s.Elems = ast.Append(p.Arena, s.Elems, el)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RBrace)
	return s
}

// parseDesignatorOrCall parses a factor beginning with an identifier:
// a designator, a set constructor qualified by a type name, or a
// function call.
func (p *Parser) parseDesignatorOrCall() ast.Expr {
	pos := p.tok.Pos
	d := ast.New(p.Arena, ast.Designator{Head: p.name()})
	// While the selector chain is still purely dotted it could turn out
	// to be the type qualifier of a set constructor.
	for {
		if p.at(token.Dot) && p.peek().Kind == token.Ident {
			p.next()
			d.Sels = ast.Append[ast.Selector](p.Arena, d.Sels, ast.New(p.Arena, ast.FieldSel{Name: p.name()}))
			continue
		}
		break
	}
	if p.at(token.LBrace) {
		q := ast.New(p.Arena, ast.Qualident{Parts: ast.Append(p.Arena, nil, d.Head)})
		for _, s := range d.Sels {
			q.Parts = ast.Append(p.Arena, q.Parts, s.(*ast.FieldSel).Name)
		}
		return p.parseSetExpr(q, pos)
	}
	p.parseSelectors(d)
	if p.at(token.LParen) {
		p.next()
		c := ast.New(p.Arena, ast.CallExpr{Fun: d, Pos: pos})
		if !p.at(token.RParen) {
			c.Args = p.exprList()
		}
		p.expect(token.RParen)
		return c
	}
	return d
}

// parseDesignator parses a designator (no call suffix).
func (p *Parser) parseDesignator() *ast.Designator {
	d := ast.New(p.Arena, ast.Designator{Head: p.name()})
	p.parseSelectors(d)
	return d
}

func (p *Parser) parseSelectors(d *ast.Designator) {
	for {
		switch {
		case p.at(token.Dot) && p.peek().Kind == token.Ident:
			p.next()
			d.Sels = ast.Append[ast.Selector](p.Arena, d.Sels, ast.New(p.Arena, ast.FieldSel{Name: p.name()}))
		case p.at(token.LBrack):
			pos := p.tok.Pos
			p.next()
			sel := ast.New(p.Arena, ast.IndexSel{Pos: pos, Indexes: p.exprList()})
			p.expect(token.RBrack)
			d.Sels = ast.Append[ast.Selector](p.Arena, d.Sels, sel)
		case p.at(token.Caret):
			d.Sels = ast.Append[ast.Selector](p.Arena, d.Sels, ast.New(p.Arena, ast.DerefSel{Pos: p.tok.Pos}))
			p.next()
		default:
			return
		}
	}
}

// decodeInt decodes the Modula-2 integer literal forms: decimal, nnnH
// (hex) and nnnB (octal).
func decodeInt(text string) int64 {
	if text == "" {
		return 0
	}
	switch text[len(text)-1] {
	case 'H':
		v, _ := strconv.ParseUint(text[:len(text)-1], 16, 64)
		return int64(v)
	case 'B':
		v, _ := strconv.ParseUint(text[:len(text)-1], 8, 64)
		return int64(v)
	default:
		v, _ := strconv.ParseInt(text, 10, 64)
		return v
	}
}
