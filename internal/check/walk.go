package check

import (
	"m2cc/internal/ast"
	"m2cc/internal/token"
)

// walker accumulates one unit's identifier mention set and counts the
// AST nodes visited (the unit's deterministic analysis cost).
//
// Mentions are use-sites only: declaration-name positions (a VarDecl's
// names, a heading's procedure and parameter names, record field
// names, enum constants, import clauses) are not mentions.  Nested
// procedure declarations are never descended into beyond their heading
// — in the concurrent compiler the nested body belongs to another
// stream's unit, and the sequential decomposition follows the same
// rule, so both modes walk identical shapes.
type walker struct {
	mentions map[string]bool
	nodes    int
}

func newWalker() *walker { return &walker{mentions: make(map[string]bool)} }

func (w *walker) mention(name string) {
	if name != "" {
		w.mentions[name] = true
	}
}

func (w *walker) qualident(q *ast.Qualident) {
	if q == nil {
		return
	}
	w.nodes++
	for _, p := range q.Parts {
		w.mention(p.Text)
	}
}

func (w *walker) decls(decls []ast.Decl) {
	for _, d := range decls {
		w.nodes++
		switch d := d.(type) {
		case *ast.ConstDecl:
			w.expr(d.Expr)
		case *ast.TypeDecl:
			w.typ(d.Type)
		case *ast.VarDecl:
			w.typ(d.Type)
		case *ast.ExceptionDecl:
			// declares names, mentions nothing
		case *ast.ProcDecl:
			w.head(d.Head)
		}
	}
}

// head walks a heading's formal types and result type; the procedure
// and parameter names themselves are declarations, not mentions.
func (w *walker) head(h *ast.ProcHead) {
	if h == nil {
		return
	}
	w.nodes++
	for _, sec := range h.Params {
		w.nodes++
		w.qualident(sec.Type)
	}
	w.qualident(h.Ret)
}

func (w *walker) typ(t ast.Type) {
	if t == nil {
		return
	}
	w.nodes++
	switch t := t.(type) {
	case *ast.NamedType:
		w.qualident(t.Name)
	case *ast.EnumType:
		// declares constant names
	case *ast.SubrangeType:
		w.qualident(t.Base)
		w.expr(t.Lo)
		w.expr(t.Hi)
	case *ast.ArrayType:
		for _, ix := range t.Indexes {
			w.typ(ix)
		}
		w.typ(t.Elem)
	case *ast.RecordType:
		w.fields(t.Fields)
	case *ast.SetType:
		w.typ(t.Base)
	case *ast.PointerType:
		w.typ(t.Base)
	case *ast.RefType:
		w.typ(t.Base)
	case *ast.ProcType:
		for _, p := range t.Params {
			w.qualident(p.Type)
		}
		w.qualident(t.Ret)
	}
}

func (w *walker) fields(fields []*ast.FieldList) {
	for _, f := range fields {
		w.nodes++
		w.typ(f.Type) // field names are declarations
		if f.Variant != nil {
			w.qualident(f.Variant.TagType)
			for _, c := range f.Variant.Cases {
				for _, l := range c.Labels {
					w.expr(l.Lo)
					w.expr(l.Hi)
				}
				w.fields(c.Fields)
			}
			w.fields(f.Variant.Else)
		}
	}
}

func (w *walker) stmts(l *ast.StmtList) {
	if l == nil {
		return
	}
	for _, s := range l.Stmts {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	w.nodes++
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.designator(s.LHS)
		w.expr(s.RHS)
	case *ast.CallStmt:
		w.designator(s.Proc)
		for _, a := range s.Args {
			w.expr(a)
		}
	case *ast.IfStmt:
		w.expr(s.Cond)
		w.stmts(s.Then)
		for _, e := range s.Elsifs {
			w.expr(e.Cond)
			w.stmts(e.Then)
		}
		w.stmts(s.Else)
	case *ast.CaseStmt:
		w.expr(s.Expr)
		for _, arm := range s.Arms {
			for _, l := range arm.Labels {
				w.expr(l.Lo)
				w.expr(l.Hi)
			}
			w.stmts(arm.Body)
		}
		w.stmts(s.Else)
	case *ast.WhileStmt:
		w.expr(s.Cond)
		w.stmts(s.Body)
	case *ast.RepeatStmt:
		w.stmts(s.Body)
		w.expr(s.Cond)
	case *ast.LoopStmt:
		w.stmts(s.Body)
	case *ast.ExitStmt:
	case *ast.ForStmt:
		w.mention(s.Var.Text)
		w.expr(s.From)
		w.expr(s.To)
		w.expr(s.By)
		w.stmts(s.Body)
	case *ast.WithStmt:
		w.designator(s.Rec)
		w.stmts(s.Body)
	case *ast.ReturnStmt:
		w.expr(s.Expr)
	case *ast.RaiseStmt:
		w.qualident(s.Exc)
	case *ast.TryStmt:
		w.stmts(s.Body)
		for _, h := range s.Handlers {
			for _, exc := range h.Excs {
				w.qualident(exc)
			}
			w.stmts(h.Body)
		}
		w.stmts(s.Else)
		w.stmts(s.Finally)
	case *ast.LockStmt:
		w.expr(s.Mutex)
		w.stmts(s.Body)
	}
}

func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	w.nodes++
	switch e := e.(type) {
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.SetExpr:
		w.qualident(e.Type)
		for _, el := range e.Elems {
			w.expr(el.Lo)
			w.expr(el.Hi)
		}
	case *ast.Designator:
		w.designator(e)
	case *ast.CallExpr:
		w.designator(e.Fun)
		for _, a := range e.Args {
			w.expr(a)
		}
	}
	// literals mention nothing
}

func (w *walker) designator(d *ast.Designator) {
	if d == nil {
		return
	}
	w.nodes++
	w.mention(d.Head.Text)
	for _, sel := range d.Sels {
		switch sel := sel.(type) {
		case *ast.FieldSel:
			w.mention(sel.Name.Text)
		case *ast.IndexSel:
			for _, ix := range sel.Indexes {
				w.expr(ix)
			}
		}
	}
}

// unreachable reports the first statement after a RETURN, EXIT or
// RAISE in each statement sequence (one report per sequence), then
// recurses into every nested sequence.
func unreachable(l *ast.StmtList, report func(pos token.Pos)) {
	if l == nil {
		return
	}
	dead, reported := false, false
	for _, s := range l.Stmts {
		if dead && !reported {
			report(ast.StmtPos(s))
			reported = true
		}
		switch s := s.(type) {
		case *ast.ReturnStmt, *ast.ExitStmt, *ast.RaiseStmt:
			dead = true
		case *ast.IfStmt:
			unreachable(s.Then, report)
			for _, e := range s.Elsifs {
				unreachable(e.Then, report)
			}
			unreachable(s.Else, report)
		case *ast.CaseStmt:
			for _, arm := range s.Arms {
				unreachable(arm.Body, report)
			}
			unreachable(s.Else, report)
		case *ast.WhileStmt:
			unreachable(s.Body, report)
		case *ast.RepeatStmt:
			unreachable(s.Body, report)
		case *ast.LoopStmt:
			unreachable(s.Body, report)
		case *ast.ForStmt:
			unreachable(s.Body, report)
		case *ast.WithStmt:
			unreachable(s.Body, report)
		case *ast.TryStmt:
			unreachable(s.Body, report)
			for _, h := range s.Handlers {
				unreachable(h.Body, report)
			}
			unreachable(s.Else, report)
			unreachable(s.Finally, report)
		case *ast.LockStmt:
			unreachable(s.Body, report)
		}
	}
}
