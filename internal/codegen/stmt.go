package codegen

import (
	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

func (g *Gen) stmtList(sl *ast.StmtList) {
	if sl == nil {
		return
	}
	for _, s := range sl.Stmts {
		g.stmt(s)
	}
}

func (g *Gen) stmt(s ast.Stmt) {
	g.env.Ctx.Add(ctrace.CostStmtNode)
	g.cur = s
	switch s := s.(type) {
	case *ast.AssignStmt:
		g.assign(s)
	case *ast.CallStmt:
		g.callStmt(s)
	case *ast.IfStmt:
		g.ifStmt(s)
	case *ast.CaseStmt:
		g.caseStmt(s)
	case *ast.WhileStmt:
		top := g.here()
		g.boolOperand(s.Cond)
		j := g.emit(vm.Jz, 0, 0)
		g.stmtList(s.Body)
		g.emit(vm.Jmp, top, 0)
		g.patch(j)
	case *ast.RepeatStmt:
		top := g.here()
		g.stmtList(s.Body)
		g.boolOperand(s.Cond)
		g.emit(vm.Jz, top, 0)
	case *ast.LoopStmt:
		top := g.here()
		g.loops = append(g.loops, &loopCtx{})
		g.stmtList(s.Body)
		g.emit(vm.Jmp, top, 0)
		lc := g.loops[len(g.loops)-1]
		g.loops = g.loops[:len(g.loops)-1]
		for _, e := range lc.exits {
			g.patch(e)
		}
	case *ast.ExitStmt:
		if len(g.loops) == 0 {
			g.errorf(s.Pos, "EXIT outside of LOOP")
			return
		}
		lc := g.loops[len(g.loops)-1]
		lc.exits = append(lc.exits, g.emit(vm.Jmp, 0, 0))
	case *ast.ForStmt:
		g.forStmt(s)
	case *ast.WithStmt:
		g.withStmt(s)
	case *ast.ReturnStmt:
		g.returnStmt(s)
	case *ast.RaiseStmt:
		sym := g.env.ResolveQualident(g.scope, s.Exc, g.withs)
		if sym == nil {
			return
		}
		if sym.Kind != symtab.KException {
			g.errorf(s.Pos, "%s is not an exception", s.Exc)
			return
		}
		g.emit(vm.Raise, g.excIdx(sym.ExcName), int32(s.Pos.Line))
	case *ast.TryStmt:
		g.tryStmt(s)
	case *ast.LockStmt:
		t := g.compileScalarExpr(s.Mutex)
		if t != types.Bad && t.Under().Kind != types.MutexK && !t.IsPointerLike() {
			g.errorf(s.Pos, "LOCK requires a MUTEX, have %s", t)
		}
		g.emit(vm.Drop, 0, 0)
		g.stmtList(s.Body)
	}
}

// assign compiles "lhs := rhs", covering the scalar, aggregate-copy and
// string-into-char-array forms.
func (g *Gen) assign(s *ast.AssignStmt) {
	p := g.resolveDesig(s.LHS, false)
	if p.kind == pNone {
		g.discard(s.RHS)
		return
	}
	if p.kind != pAddr && p.kind != pDirect {
		g.errorf(s.Pos, "cannot assign to %s", s.LHS.Head.Text)
		g.discard(s.RHS)
		return
	}

	if !isScalar(p.t) {
		// Aggregate destination: the address is on the stack (pAddr is
		// guaranteed — aggregates never yield pDirect).
		if str, ok := s.RHS.(*ast.StringLit); ok {
			d := p.t.Deref()
			if d.Kind != types.ArrayK || !d.Base.IsChar() {
				g.errorf(s.Pos, "string constant requires an ARRAY OF CHAR destination, have %s", p.t)
				g.emit(vm.Drop, 0, 0)
				return
			}
			n := int32(d.Slots())
			if int32(len(str.Value)) > n {
				g.errorf(s.Pos, "string constant of length %d does not fit in %s", len(str.Value), p.t)
			}
			g.emitStr(str.Value)
			g.emit(vm.StrToA, n, 0)
			return
		}
		rd, ok := s.RHS.(*ast.Designator)
		if !ok {
			g.errorf(s.Pos, "aggregate assignment requires a variable or string constant on the right")
			g.emit(vm.Drop, 0, 0)
			return
		}
		rp := g.resolveDesig(rd, true)
		if rp.kind != pAddr {
			if rp.kind != pNone {
				g.errorf(s.Pos, "aggregate assignment requires a variable on the right")
			}
			g.emit(vm.Drop, 0, 0)
			return
		}
		if rp.t.Deref() != p.t.Deref() {
			g.errorf(s.Pos, "incompatible assignment: %s := %s", p.t, rp.t)
		}
		g.emit(vm.Copy, int32(p.t.Slots()), 0)
		return
	}

	rt := g.compileCoerced(s.RHS, p.t)
	g.env.CheckAssignable(s.Pos, p.t, rt)
	g.rangeCheck(p.t, s.Pos)
	g.storePlace(p, s.Pos)
}

// discard compiles an expression whose destination failed to resolve,
// keeping diagnostics flowing without corrupting the stack.
func (g *Gen) discard(e ast.Expr) {
	_, agg := g.compileExpr(e)
	_ = agg
	g.emit(vm.Drop, 0, 0)
}

func (g *Gen) ifStmt(s *ast.IfStmt) {
	var ends []int32
	g.boolOperand(s.Cond)
	next := g.emit(vm.Jz, 0, 0)
	g.stmtList(s.Then)
	for _, arm := range s.Elsifs {
		ends = append(ends, g.emit(vm.Jmp, 0, 0))
		g.patch(next)
		g.boolOperand(arm.Cond)
		next = g.emit(vm.Jz, 0, 0)
		g.stmtList(arm.Then)
	}
	if s.Else != nil {
		ends = append(ends, g.emit(vm.Jmp, 0, 0))
		g.patch(next)
		g.stmtList(s.Else)
	} else {
		g.patch(next)
	}
	for _, e := range ends {
		g.patch(e)
	}
}

// caseStmt compiles CASE with a label-compare chain over a cached
// selector temp.
func (g *Gen) caseStmt(s *ast.CaseStmt) {
	mark := g.tempTop
	sel := g.allocTemp(1)
	st := g.compileOrdinalExpr(s.Expr)
	g.emit(vm.StLoc, 0, sel)

	var ends []int32
	for _, arm := range s.Arms {
		var hits []int32
		for _, l := range arm.Labels {
			lo, lot, ok := g.env.EvalConstInt(g.scope, l.Lo)
			hi := lo
			if l.Hi != nil {
				hi, _, _ = g.env.EvalConstInt(g.scope, l.Hi)
			}
			if ok && st != types.Bad && !types.SameClass(st, lot) {
				g.errorf(s.Pos, "case label type %s does not match selector type %s", lot, st)
			}
			g.emit(vm.LdLoc, 0, sel)
			if l.Hi == nil {
				g.emitInt(lo)
				g.emit(vm.CmpI, vm.RelEq, 0)
				hits = append(hits, g.emit(vm.Jnz, 0, 0))
			} else {
				// lo <= sel <= hi via two compares.
				g.emitInt(lo)
				g.emit(vm.CmpI, vm.RelGe, 0)
				miss := g.emit(vm.Jz, 0, 0)
				g.emit(vm.LdLoc, 0, sel)
				g.emitInt(hi)
				g.emit(vm.CmpI, vm.RelLe, 0)
				hits = append(hits, g.emit(vm.Jnz, 0, 0))
				g.patch(miss)
			}
		}
		skip := g.emit(vm.Jmp, 0, 0)
		for _, h := range hits {
			g.patch(h)
		}
		g.stmtList(arm.Body)
		ends = append(ends, g.emit(vm.Jmp, 0, 0))
		g.patch(skip)
	}
	if s.Else != nil {
		g.stmtList(s.Else)
	} else {
		g.emit(vm.CaseTrap, int32(s.Pos.Line), 0)
	}
	for _, e := range ends {
		g.patch(e)
	}
	g.releaseTemp(mark)
}

func (g *Gen) forStmt(s *ast.ForStmt) {
	res := g.env.Search.Lookup(g.scope, s.Var.Text, g.withs)
	if !res.Found() || res.Sym == nil ||
		(res.Sym.Kind != symtab.KVar && res.Sym.Kind != symtab.KParam) {
		g.errorf(s.Var.Pos, "FOR control variable %s must be a declared variable", s.Var.Text)
		return
	}
	v := res.Sym
	if !v.Type.IsOrdinal() || v.ByRef || v.Open {
		g.errorf(s.Var.Pos, "FOR control variable %s must be a plain ordinal variable", s.Var.Text)
		return
	}
	step := int64(1)
	if s.By != nil {
		var ok bool
		step, _, ok = g.env.EvalConstInt(g.scope, s.By)
		if !ok {
			step = 1
		}
		if step == 0 {
			g.errorf(s.Pos, "FOR step must not be zero")
			step = 1
		}
	}

	store := func() {
		if v.Global {
			g.emit(vm.StGlb, g.areaIdx(v.Area), v.Offset)
		} else {
			g.emit(vm.StLoc, g.hops(v.Level), v.Offset)
		}
	}
	load := func() {
		if v.Global {
			g.emit(vm.LdGlb, g.areaIdx(v.Area), v.Offset)
		} else {
			g.emit(vm.LdLoc, g.hops(v.Level), v.Offset)
		}
	}

	mark := g.tempTop
	limit := g.allocTemp(1)
	ft := g.compileCoerced(s.From, v.Type)
	g.env.CheckAssignable(s.Var.Pos, v.Type, ft)
	store()
	tt := g.compileCoerced(s.To, v.Type)
	g.env.CheckAssignable(s.Var.Pos, v.Type, tt)
	g.emit(vm.StLoc, 0, limit)

	top := g.here()
	load()
	g.emit(vm.LdLoc, 0, limit)
	if step > 0 {
		g.emit(vm.CmpI, vm.RelLe, 0)
	} else {
		g.emit(vm.CmpI, vm.RelGe, 0)
	}
	done := g.emit(vm.Jz, 0, 0)
	g.stmtList(s.Body)
	load()
	g.emitInt(step)
	g.emit(vm.AddI, 0, 0)
	store()
	g.emit(vm.Jmp, top, 0)
	g.patch(done)
	g.releaseTemp(mark)
}

func (g *Gen) withStmt(s *ast.WithStmt) {
	p := g.resolveDesig(s.Rec, true)
	if p.kind != pAddr || p.t.Deref().Kind != types.RecordK {
		if p.kind != pNone {
			g.errorf(s.Pos, "WITH requires a record designator, have %s", p.t)
		}
		if p.kind == pAddr {
			g.emit(vm.Drop, 0, 0)
		}
		g.stmtList(s.Body)
		return
	}
	mark := g.tempTop
	temp := g.allocTemp(1)
	g.emit(vm.StLoc, 0, temp)
	g.withs = append(g.withs, symtab.WithBinding{Rec: p.t})
	g.withTemp = append(g.withTemp, temp)
	g.stmtList(s.Body)
	g.withs, g.withTemp = g.withs[:len(g.withs)-1], g.withTemp[:len(g.withTemp)-1]
	g.releaseTemp(mark)
}

func (g *Gen) returnStmt(s *ast.ReturnStmt) {
	if g.sig == nil || g.sig.Ret == nil {
		if s.Expr != nil {
			g.errorf(s.Pos, "RETURN with a value in a proper procedure")
			g.discard(s.Expr)
		}
		g.emit(vm.RetP, 0, 0)
		return
	}
	if s.Expr == nil {
		g.errorf(s.Pos, "RETURN in a function must carry a value")
		g.emit(vm.PushInt, 0, 0)
		g.emit(vm.RetF, 0, 0)
		return
	}
	rt := g.compileCoerced(s.Expr, g.sig.Ret)
	g.env.CheckAssignable(s.Pos, g.sig.Ret, rt)
	g.rangeCheck(g.sig.Ret, s.Pos)
	g.emit(vm.RetF, 0, 0)
}

func (g *Gen) tryStmt(s *ast.TryStmt) {
	// FINALLY compiles by duplication, the classic inline scheme: the
	// cleanup statements run on the normal path, after a matched
	// handler, and before an unhandled exception propagates.
	finally := func() {
		if s.Finally != nil {
			g.stmtList(s.Finally)
		}
	}

	try := g.emit(vm.EnterTry, 0, 0)
	g.stmtList(s.Body)
	g.emit(vm.EndTry, 0, 0)
	finally()
	end := g.emit(vm.Jmp, 0, 0)
	g.patch(try)

	var ends []int32
	for _, h := range s.Handlers {
		var hits []int32
		for _, exq := range h.Excs {
			sym := g.env.ResolveQualident(g.scope, exq, g.withs)
			if sym == nil {
				continue
			}
			if sym.Kind != symtab.KException {
				g.errorf(exq.Pos(), "%s is not an exception", exq)
				continue
			}
			g.emit(vm.ExcIs, g.excIdx(sym.ExcName), 0)
			hits = append(hits, g.emit(vm.Jnz, 0, 0))
		}
		skip := g.emit(vm.Jmp, 0, 0)
		for _, h2 := range hits {
			g.patch(h2)
		}
		g.stmtList(h.Body)
		finally()
		ends = append(ends, g.emit(vm.Jmp, 0, 0))
		g.patch(skip)
	}
	if s.Else != nil {
		g.stmtList(s.Else)
		finally()
	} else {
		finally()
		g.emit(vm.Reraise, 0, 0)
	}
	for _, e := range ends {
		g.patch(e)
	}
	g.patch(end)
}

// callStmt compiles a procedure-call statement: user procedures,
// procedure variables and the builtin proper procedures.
func (g *Gen) callStmt(s *ast.CallStmt) {
	p := g.resolveDesig(s.Proc, false)
	switch p.kind {
	case pBuiltin:
		g.builtinProc(p.sym, s)
	case pProc:
		sig := p.t
		if sig.Ret != nil {
			g.errorf(s.Pos, "function %s result must be used", p.sym.Name)
		}
		mark := g.tempTop
		g.emitArgs(sig, s.Args, s.Pos)
		g.emitDirectCall(p.sym, sig)
		g.releaseTemp(mark)
		if sig.Ret != nil {
			g.emit(vm.Drop, 0, 0)
		}
	case pDirect, pAddr:
		t, _ := g.loadPlace(p, s.Pos)
		if t.Under().Kind != types.ProcTypeK && t.Under().Kind != types.ProcK {
			if t != types.Bad {
				g.errorf(s.Pos, "%s is not callable", t)
			}
			g.emit(vm.Drop, 0, 0)
			return
		}
		sig := t.Under()
		if sig.Kind == types.ProcK {
			sig = types.NewProcType(nil, nil)
		}
		if sig.Ret != nil {
			g.errorf(s.Pos, "function result must be used")
		}
		mark := g.tempTop
		g.emitArgs(sig, s.Args, s.Pos)
		g.emit(vm.CallInd, 0, g.argSlotsOf(sig))
		g.releaseTemp(mark)
	case pNone:
		for _, a := range s.Args {
			g.discard(a)
		}
	default:
		g.errorf(s.Pos, "%s cannot be called", s.Proc.Head.Text)
	}
}

// needArgs checks the argument count for a builtin.
func (g *Gen) needArgs(s *ast.CallStmt, name string, lo, hi int) bool {
	if len(s.Args) < lo || len(s.Args) > hi {
		if lo == hi {
			g.errorf(s.Pos, "%s expects %d argument(s)", name, lo)
		} else {
			g.errorf(s.Pos, "%s expects %d to %d arguments", name, lo, hi)
		}
		return false
	}
	return true
}

// argAddr compiles the address of a designator argument and returns its
// type (types.Bad on failure, with a placeholder address emitted).
func (g *Gen) argAddr(a ast.Expr, what string) *types.Type {
	d, ok := a.(*ast.Designator)
	if !ok {
		g.errorf(a.ExprPos(), "%s requires a variable", what)
		g.emit(vm.PushNil, 0, 0)
		return types.Bad
	}
	p := g.resolveDesig(d, true)
	if p.kind != pAddr {
		if p.kind != pNone {
			g.errorf(a.ExprPos(), "%s requires a variable", what)
		}
		g.emit(vm.PushNil, 0, 0)
		return types.Bad
	}
	return p.t
}

func (g *Gen) builtinProc(sym *symtab.Symbol, s *ast.CallStmt) {
	pos := s.Pos
	switch sym.BID {
	case symtab.BInc, symtab.BDec:
		if !g.needArgs(s, sym.Name, 1, 2) {
			return
		}
		t := g.argAddr(s.Args[0], sym.Name)
		if t != types.Bad && !t.IsOrdinal() {
			g.errorf(pos, "%s requires an ordinal variable, have %s", sym.Name, t)
		}
		g.emit(vm.Dup, 0, 0)
		g.emit(vm.LdInd, 0, 0)
		if len(s.Args) == 2 {
			at := g.compileScalarExpr(s.Args[1])
			if at != types.Bad && !at.IsInteger() {
				g.errorf(pos, "%s step must be an integer, have %s", sym.Name, at)
			}
		} else {
			g.emitInt(1)
		}
		if sym.BID == symtab.BInc {
			g.emit(vm.AddI, 0, 0)
		} else {
			g.emit(vm.SubI, 0, 0)
		}
		g.rangeCheck(t, pos)
		g.emit(vm.StInd, 0, 0)

	case symtab.BIncl, symtab.BExcl:
		if !g.needArgs(s, sym.Name, 2, 2) {
			return
		}
		t := g.argAddr(s.Args[0], sym.Name)
		if t != types.Bad && !t.IsSet() {
			g.errorf(pos, "%s requires a set variable, have %s", sym.Name, t)
		}
		g.compileOrdinalExpr(s.Args[1])
		if sym.BID == symtab.BIncl {
			g.emit(vm.InclM, int32(pos.Line), 0)
		} else {
			g.emit(vm.ExclM, int32(pos.Line), 0)
		}

	case symtab.BNew:
		if !g.needArgs(s, sym.Name, 1, 1) {
			return
		}
		t := g.argAddr(s.Args[0], sym.Name)
		d := t.Deref()
		if t != types.Bad && d.Kind != types.PointerK && d.Kind != types.RefK {
			g.errorf(pos, "NEW requires a pointer variable, have %s", t)
			g.emit(vm.Drop, 0, 0)
			return
		}
		slots := int32(1)
		if d.Base != nil {
			slots = int32(d.Base.Slots())
		}
		g.emit(vm.NewObj, slots, 0)

	case symtab.BDispose:
		if !g.needArgs(s, sym.Name, 1, 1) {
			return
		}
		t := g.argAddr(s.Args[0], sym.Name)
		if t != types.Bad && t.Deref().Kind != types.PointerK {
			g.errorf(pos, "DISPOSE requires a POINTER variable, have %s", t)
		}
		g.emit(vm.Dispose, 0, 0)

	case symtab.BHalt:
		if !g.needArgs(s, sym.Name, 0, 0) {
			return
		}
		g.emit(vm.HaltOp, 0, 0)

	case symtab.BAssert:
		if !g.needArgs(s, sym.Name, 1, 1) {
			return
		}
		g.boolOperand(s.Args[0])
		g.emit(vm.AssertOp, int32(pos.Line), 0)

	case symtab.BWriteInt, symtab.BWriteCard:
		if !g.needArgs(s, sym.Name, 1, 2) {
			return
		}
		t := g.compileScalarExpr(s.Args[0])
		if t != types.Bad && !t.IsInteger() {
			g.errorf(pos, "%s requires an integer, have %s", sym.Name, t)
		}
		g.emitWidth(s, 1)
		g.emit(vm.IOWriteInt, 0, 0)

	case symtab.BWriteReal:
		if !g.needArgs(s, sym.Name, 1, 2) {
			return
		}
		t := g.compileScalarExpr(s.Args[0])
		if t != types.Bad && !t.IsReal() {
			g.errorf(pos, "WriteReal requires a real, have %s", t)
		}
		g.emitWidth(s, 1)
		g.emit(vm.IOWriteReal, 0, 0)

	case symtab.BWriteChar:
		if !g.needArgs(s, sym.Name, 1, 1) {
			return
		}
		t := g.compileCoerced(s.Args[0], types.Char)
		if t != types.Bad && !t.IsChar() {
			g.errorf(pos, "WriteChar requires a CHAR, have %s", t)
		}
		g.emit(vm.IOWriteChar, 0, 0)

	case symtab.BWriteLn:
		if !g.needArgs(s, sym.Name, 0, 0) {
			return
		}
		g.emit(vm.IOWriteLn, 0, 0)

	case symtab.BWriteString, symtab.BWriteText:
		if !g.needArgs(s, sym.Name, 1, 1) {
			return
		}
		g.writeStringArg(s.Args[0])

	case symtab.BReadInt:
		if !g.needArgs(s, sym.Name, 1, 1) {
			return
		}
		t := g.argAddr(s.Args[0], sym.Name)
		if t != types.Bad && !t.IsInteger() {
			g.errorf(pos, "ReadInt requires an integer variable, have %s", t)
		}
		g.emit(vm.IOReadInt, 0, 0)

	case symtab.BReadChar:
		if !g.needArgs(s, sym.Name, 1, 1) {
			return
		}
		t := g.argAddr(s.Args[0], sym.Name)
		if t != types.Bad && !t.IsChar() {
			g.errorf(pos, "ReadChar requires a CHAR variable, have %s", t)
		}
		g.emit(vm.IOReadChar, 0, 0)

	default:
		g.errorf(pos, "%s is a function; its result must be used", sym.Name)
	}
}

// emitWidth pushes the optional field-width argument (default 0).
func (g *Gen) emitWidth(s *ast.CallStmt, idx int) {
	if len(s.Args) > idx {
		t := g.compileScalarExpr(s.Args[idx])
		if t != types.Bad && !t.IsInteger() {
			g.errorf(s.Pos, "field width must be an integer, have %s", t)
		}
		return
	}
	g.emitInt(0)
}

// writeStringArg compiles WriteString/WriteText for a string literal,
// TEXT value or character array.
func (g *Gen) writeStringArg(a ast.Expr) {
	if d, ok := a.(*ast.Designator); ok {
		p := g.resolveDesig(d, true)
		switch {
		case p.kind == pOpen:
			if !p.t.Deref().Base.IsChar() {
				g.errorf(a.ExprPos(), "WriteString requires characters, have %s", p.t)
			}
			hops := g.hops(p.sym.Level)
			g.emit(vm.LdLoc, hops, p.sym.Offset)
			g.emit(vm.LdLoc, hops, p.sym.Offset+1)
			g.emit(vm.IOWriteStr, 0, 0)
			return
		case p.kind == pAddr && p.t.Deref().Kind == types.ArrayK:
			d := p.t.Deref()
			if !d.Base.IsChar() {
				g.errorf(a.ExprPos(), "WriteString requires an ARRAY OF CHAR, have %s", p.t)
			}
			g.emitInt(int64(d.Slots()))
			g.emit(vm.IOWriteStr, 0, 0)
			return
		case p.kind == pAddr || p.kind == pDirect:
			t, _ := g.loadPlaceFrom(p, a.ExprPos())
			if t != types.Bad && t.Under().Kind != types.TextK && t.Under().Kind != types.StringK {
				g.errorf(a.ExprPos(), "WriteString requires text or characters, have %s", t)
			}
			g.emit(vm.IOWriteText, 0, 0)
			return
		case p.kind == pConst:
			g.emitConst(p.v, a.ExprPos())
			g.emit(vm.IOWriteText, 0, 0)
			return
		default:
			g.errorf(a.ExprPos(), "WriteString cannot print this designator")
			return
		}
	}
	t := g.compileScalarExpr(a)
	if t != types.Bad && t.Under().Kind != types.TextK && t.Under().Kind != types.StringK {
		g.errorf(a.ExprPos(), "WriteString requires a string, have %s", t)
	}
	g.emit(vm.IOWriteText, 0, 0)
}

// loadPlaceFrom is loadPlace without re-resolving (helper for places
// already classified).
func (g *Gen) loadPlaceFrom(p place, pos token.Pos) (*types.Type, bool) {
	return g.loadPlace(p, pos)
}
