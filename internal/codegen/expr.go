package codegen

import (
	"m2cc/internal/ast"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// charLitByte reports whether e is a single-character string literal
// (which Modula-2 treats as CHAR-compatible) and returns its value.
func charLitByte(e ast.Expr) (byte, bool) {
	switch e := e.(type) {
	case *ast.StringLit:
		if len(e.Value) == 1 {
			return e.Value[0], true
		}
	case *ast.CharLit:
		return e.Value, true
	}
	return 0, false
}

// compileExpr compiles e, leaving its value on the stack (for
// aggregates: its address; the bool result reports that case).
func (g *Gen) compileExpr(e ast.Expr) (*types.Type, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		g.emitInt(e.Value)
		return types.Whole, false
	case *ast.RealLit:
		g.emitReal(e.Value)
		return types.Real, false
	case *ast.CharLit:
		g.emitInt(int64(e.Value))
		return types.Char, false
	case *ast.StringLit:
		g.emitStr(e.Value)
		return types.StringT, false
	case *ast.SetExpr:
		return g.compileSet(e), false
	case *ast.UnaryExpr:
		return g.compileUnary(e), false
	case *ast.BinaryExpr:
		return g.compileBinary(e), false
	case *ast.Designator:
		p := g.resolveDesig(e, false)
		return g.loadPlace(p, e.Head.Pos)
	case *ast.CallExpr:
		return g.compileCallExpr(e), false
	default:
		g.errorf(e.ExprPos(), "unsupported expression")
		g.emit(vm.PushInt, 0, 0)
		return types.Bad, false
	}
}

// compileScalarExpr compiles e and requires a one-slot value.
func (g *Gen) compileScalarExpr(e ast.Expr) *types.Type {
	t, agg := g.compileExpr(e)
	if agg {
		g.errorf(e.ExprPos(), "aggregate value of type %s not allowed here", t)
		g.emit(vm.LdInd, 0, 0) // degrade to first slot to keep the stack balanced
	}
	return t
}

// compileOrdinalExpr compiles e and requires an ordinal value.
func (g *Gen) compileOrdinalExpr(e ast.Expr) *types.Type {
	if b, ok := charLitByte(e); ok {
		g.emitInt(int64(b))
		return types.Char
	}
	t := g.compileScalarExpr(e)
	if t != types.Bad && !t.IsOrdinal() {
		g.errorf(e.ExprPos(), "ordinal value expected, have %s", t)
	}
	return t
}

// compileCoerced compiles e in a context expecting type want, turning
// single-character string literals into CHAR ordinals when the context
// asks for a CHAR (and rejecting longer literals there — the one case
// types.Assignable cannot see, since it has no literal lengths).
func (g *Gen) compileCoerced(e ast.Expr, want *types.Type) *types.Type {
	if want != nil && want.IsChar() {
		if b, ok := charLitByte(e); ok {
			g.emitInt(int64(b))
			return types.Char
		}
		if s, ok := e.(*ast.StringLit); ok && len(s.Value) != 1 {
			g.errorf(e.ExprPos(), "incompatible assignment: CHAR := string of length %d", len(s.Value))
			g.emit(vm.PushInt, 0, 0)
			return types.Char
		}
	}
	return g.compileScalarExpr(e)
}

func (g *Gen) compileUnary(e *ast.UnaryExpr) *types.Type {
	t := g.compileScalarExpr(e.X)
	switch e.Op {
	case token.Plus:
		if !t.IsInteger() && !t.IsReal() {
			g.errorf(e.Pos, "unary + requires a numeric operand, have %s", t)
		}
		return t
	case token.Minus:
		switch {
		case t.IsReal():
			g.emit(vm.NegF, 0, 0)
		case t.IsInteger():
			g.emit(vm.NegI, 0, 0)
			if t.Under().Kind == types.WholeK {
				return types.Whole
			}
			return types.Integer
		default:
			g.errorf(e.Pos, "unary - requires a numeric operand, have %s", t)
		}
		return t
	case token.NOT:
		if t.Under().Kind != types.BooleanK && t != types.Bad {
			g.errorf(e.Pos, "NOT requires a BOOLEAN operand, have %s", t)
		}
		g.emit(vm.NotB, 0, 0)
		return types.Boolean
	}
	return types.Bad
}

// relOf maps a relation token to the VM relation code.
func relOf(op token.Kind) int32 {
	switch op {
	case token.Equal:
		return vm.RelEq
	case token.NotEqual:
		return vm.RelNe
	case token.Less:
		return vm.RelLt
	case token.LessEq:
		return vm.RelLe
	case token.Greater:
		return vm.RelGt
	default:
		return vm.RelGe
	}
}

// swapRel mirrors a relation for swapped operands.
func swapRel(r int32) int32 {
	switch r {
	case vm.RelLt:
		return vm.RelGt
	case vm.RelLe:
		return vm.RelGe
	case vm.RelGt:
		return vm.RelLt
	case vm.RelGe:
		return vm.RelLe
	default:
		return r
	}
}

func (g *Gen) compileBinary(e *ast.BinaryExpr) *types.Type {
	switch e.Op {
	case token.AND:
		g.boolOperand(e.X)
		g.emit(vm.Dup, 0, 0)
		j := g.emit(vm.Jz, 0, 0)
		g.emit(vm.Drop, 0, 0)
		g.boolOperand(e.Y)
		g.patch(j)
		return types.Boolean
	case token.OR:
		g.boolOperand(e.X)
		g.emit(vm.Dup, 0, 0)
		j := g.emit(vm.Jnz, 0, 0)
		g.emit(vm.Drop, 0, 0)
		g.boolOperand(e.Y)
		g.patch(j)
		return types.Boolean
	case token.Equal, token.NotEqual, token.Less, token.LessEq, token.Greater, token.GreaterEq:
		return g.compileRelation(e)
	case token.IN:
		et := g.compileOrdinalExpr(e.X)
		st := g.compileScalarExpr(e.Y)
		if st != types.Bad && !st.IsSet() {
			g.errorf(e.Pos, "IN requires a set, have %s", st)
		}
		_ = et
		g.emit(vm.SetIn, 0, 0)
		return types.Boolean
	}

	// Arithmetic and set operators.
	tx := g.compileScalarExpr(e.X)
	ty := g.compileCoerced(e.Y, tx)
	if !types.SameClass(tx, ty) {
		g.errorf(e.Pos, "operands of %s are incompatible: %s and %s", e.Op, tx, ty)
		return types.Bad
	}
	result := tx
	if tx.Under().Kind == types.WholeK {
		result = ty
	}
	switch {
	case tx.IsInteger() && ty.IsInteger():
		switch e.Op {
		case token.Plus:
			g.emit(vm.AddI, 0, 0)
		case token.Minus:
			g.emit(vm.SubI, 0, 0)
		case token.Star:
			g.emit(vm.MulI, 0, 0)
		case token.DIV:
			g.emit(vm.DivI, int32(e.Pos.Line), 0)
		case token.MOD:
			g.emit(vm.ModI, int32(e.Pos.Line), 0)
		case token.Slash:
			g.errorf(e.Pos, "/ applies to reals and sets; use DIV for whole numbers")
		default:
			g.errorf(e.Pos, "invalid integer operator %s", e.Op)
		}
		return result
	case tx.IsReal() && ty.IsReal():
		switch e.Op {
		case token.Plus:
			g.emit(vm.AddF, 0, 0)
		case token.Minus:
			g.emit(vm.SubF, 0, 0)
		case token.Star:
			g.emit(vm.MulF, 0, 0)
		case token.Slash:
			g.emit(vm.DivF, int32(e.Pos.Line), 0)
		default:
			g.errorf(e.Pos, "invalid real operator %s", e.Op)
		}
		return result
	case tx.IsSet() && ty.IsSet():
		switch e.Op {
		case token.Plus:
			g.emit(vm.SetUnion, 0, 0)
		case token.Minus:
			g.emit(vm.SetDiff, 0, 0)
		case token.Star:
			g.emit(vm.SetInter, 0, 0)
		case token.Slash:
			g.emit(vm.SetSymDiff, 0, 0)
		default:
			g.errorf(e.Pos, "invalid set operator %s", e.Op)
		}
		return result
	}
	g.errorf(e.Pos, "operator %s does not apply to %s", e.Op, tx)
	return types.Bad
}

func (g *Gen) boolOperand(e ast.Expr) {
	t := g.compileScalarExpr(e)
	if t != types.Bad && t.Under().Kind != types.BooleanK {
		g.errorf(e.ExprPos(), "BOOLEAN operand expected, have %s", t)
	}
}

func (g *Gen) compileRelation(e *ast.BinaryExpr) *types.Type {
	rel := relOf(e.Op)
	x, y := e.X, e.Y
	// Single-character string literals adapt to a CHAR on the other
	// side; compile the non-literal side first so its type decides.
	if _, ok := charLitByte(x); ok {
		if _, oy := charLitByte(y); !oy {
			x, y = y, x
			rel = swapRel(rel)
		}
	}
	tx := g.compileScalarExpr(x)
	ty := g.compileCoerced(y, tx)
	ux, uy := tx.Under(), ty.Under()
	switch {
	case tx.IsInteger() && ty.IsInteger(),
		ux.Kind == types.CharK && uy.Kind == types.CharK,
		ux.Kind == types.BooleanK && uy.Kind == types.BooleanK,
		ux.Kind == types.EnumK && ux == uy:
		g.emit(vm.CmpI, rel, 0)
	case tx.IsReal() && ty.IsReal():
		g.emit(vm.CmpF, rel, 0)
	case (ux.Kind == types.StringK || ux.Kind == types.TextK) &&
		(uy.Kind == types.StringK || uy.Kind == types.TextK):
		g.emit(vm.CmpS, rel, 0)
	case tx.IsSet() && ty.IsSet():
		if rel == vm.RelLt || rel == vm.RelGt {
			g.errorf(e.Pos, "sets compare with =, #, <= and >= only")
		}
		g.emit(vm.SetCmp, rel, 0)
	case tx.IsPointerLike() && ty.IsPointerLike():
		if rel != vm.RelEq && rel != vm.RelNe {
			g.errorf(e.Pos, "pointers compare with = and # only")
		}
		if !types.Comparable(tx, ty) {
			g.errorf(e.Pos, "cannot compare %s with %s", tx, ty)
		}
		g.emit(vm.CmpA, rel, 0)
	default:
		if tx != types.Bad && ty != types.Bad {
			g.errorf(e.Pos, "cannot compare %s with %s", tx, ty)
		}
		g.emit(vm.CmpI, rel, 0)
	}
	return types.Boolean
}

// compileSet compiles a set constructor.
func (g *Gen) compileSet(e *ast.SetExpr) *types.Type {
	setType := types.BitSet
	if e.Type != nil {
		t := g.env.ResolveTypeName(g.scope, e.Type)
		if t != types.Bad && !t.IsSet() {
			g.errorf(e.Pos, "%s is not a set type", t)
		} else if t != types.Bad {
			setType = t
		}
	}
	g.emitInt(0)
	for _, el := range e.Elems {
		g.compileOrdinalExpr(el.Lo)
		if el.Hi == nil {
			g.emit(vm.SetAdd, int32(e.Pos.Line), 0)
		} else {
			g.compileOrdinalExpr(el.Hi)
			g.emit(vm.SetAddRng, int32(e.Pos.Line), 0)
		}
	}
	return setType
}

// compileCallExpr compiles a function application: a builtin function,
// a type transfer T(x), or a user function (direct or through a
// procedure variable).
func (g *Gen) compileCallExpr(e *ast.CallExpr) *types.Type {
	p := g.resolveDesig(e.Fun, false)
	switch p.kind {
	case pBuiltin:
		return g.builtinFunc(p.sym, e)
	case pType:
		return g.typeTransfer(p.t, e)
	case pProc:
		sig := p.t
		if sig.Ret == nil {
			g.errorf(e.Pos, "procedure %s returns no value", p.sym.Name)
		}
		mark := g.tempTop
		g.emitArgs(sig, e.Args, e.Pos)
		g.emitDirectCall(p.sym, sig)
		g.releaseTemp(mark)
		if sig.Ret == nil {
			g.emit(vm.PushInt, 0, 0)
			return types.Bad
		}
		return sig.Ret
	case pDirect, pAddr:
		// Call through a procedure variable: the value goes below the
		// arguments.
		t, _ := g.loadPlace(p, e.Pos)
		if t.Under().Kind != types.ProcTypeK {
			if t != types.Bad {
				g.errorf(e.Pos, "%s is not a procedure", t)
			}
			return types.Bad
		}
		sig := t.Under()
		if sig.Ret == nil {
			g.errorf(e.Pos, "procedure variable returns no value")
		}
		mark := g.tempTop
		g.emitArgs(sig, e.Args, e.Pos)
		g.emit(vm.CallInd, 0, g.argSlotsOf(sig))
		g.releaseTemp(mark)
		return sig.Ret
	case pNone:
		g.emit(vm.PushInt, 0, 0)
		return types.Bad
	default:
		g.errorf(e.Pos, "this designator cannot be called")
		g.emit(vm.PushInt, 0, 0)
		return types.Bad
	}
}

// typeTransfer compiles the Modula-2 type transfer T(x): a free
// reinterpretation between one-slot ordinal/set/pointer values.
func (g *Gen) typeTransfer(t *types.Type, e *ast.CallExpr) *types.Type {
	if len(e.Args) != 1 {
		g.errorf(e.Pos, "type transfer %s expects one argument", t)
		g.emit(vm.PushInt, 0, 0)
		return t
	}
	at := g.compileScalarExpr(e.Args[0])
	switch {
	case at == types.Bad || t == types.Bad:
	case at.IsReal() != t.IsReal():
		g.errorf(e.Pos, "cannot transfer %s to %s; use FLOAT or TRUNC", at, t)
	case !isScalar(t):
		g.errorf(e.Pos, "type transfer target %s must be scalar", t)
	}
	return t
}

func (g *Gen) argSlotsOf(sig *types.Type) int32 {
	var n int32
	for _, p := range sig.Params {
		n += paramSlots(p)
	}
	return n
}

func paramSlots(p types.Param) int32 {
	switch {
	case p.Open:
		return 2
	case p.ByRef:
		return 1
	default:
		return int32(p.Type.Slots())
	}
}

func (g *Gen) emitDirectCall(sym *symtab.Symbol, sig *types.Type) {
	if ext := sym.External(); ext != "" {
		g.emit(vm.CallExt, g.extIdx(ext), g.argSlotsOf(sig))
	} else {
		g.emit(vm.Call, sym.ProcIdx, g.argSlotsOf(sig))
	}
}

// emitArgs compiles an actual-parameter list against a signature.
func (g *Gen) emitArgs(sig *types.Type, args []ast.Expr, pos token.Pos) {
	if len(args) != len(sig.Params) {
		g.errorf(pos, "call expects %d argument(s), have %d", len(sig.Params), len(args))
		// Compile nothing further; push zeros to keep the frame shape.
		for _, p := range sig.Params {
			for i := int32(0); i < paramSlots(p); i++ {
				g.emit(vm.PushInt, 0, 0)
			}
		}
		return
	}
	for i, formal := range sig.Params {
		g.compileArg(formal, args[i])
	}
}

// compileArg compiles one actual parameter.
func (g *Gen) compileArg(formal types.Param, a ast.Expr) {
	pos := a.ExprPos()
	switch {
	case formal.Open:
		g.compileOpenArg(formal, a)
	case formal.ByRef:
		d, ok := a.(*ast.Designator)
		if !ok {
			g.errorf(pos, "VAR parameter requires a variable")
			g.emit(vm.PushNil, 0, 0)
			return
		}
		p := g.resolveDesig(d, true)
		if p.kind != pAddr {
			if p.kind != pNone {
				g.errorf(pos, "VAR parameter requires a variable")
			}
			g.emit(vm.PushNil, 0, 0)
			return
		}
		if !types.Assignable(formal.Type, p.t) && !types.Assignable(p.t, formal.Type) {
			g.errorf(pos, "VAR parameter type mismatch: have %s, want %s", p.t, formal.Type)
		}
	case isScalar(formal.Type):
		at := g.compileCoerced(a, formal.Type)
		g.env.CheckAssignable(pos, formal.Type, at)
		g.rangeCheck(formal.Type, pos)
	default:
		// Value aggregate: the caller copies the slots onto the stack.
		n := int32(formal.Type.Slots())
		if s, ok := a.(*ast.StringLit); ok {
			g.stringToTempThen(s, n, func(temp int32) {
				g.emit(vm.LdaLoc, 0, temp)
				g.emit(vm.LdIndN, n, 0)
			})
			return
		}
		d, ok := a.(*ast.Designator)
		if !ok {
			g.errorf(pos, "aggregate argument must be a variable or string constant")
			for i := int32(0); i < n; i++ {
				g.emit(vm.PushInt, 0, 0)
			}
			return
		}
		p := g.resolveDesig(d, true)
		if p.kind != pAddr {
			if p.kind != pNone {
				g.errorf(pos, "aggregate argument must be a variable")
			}
			for i := int32(0); i < n; i++ {
				g.emit(vm.PushInt, 0, 0)
			}
			return
		}
		if p.t.Deref() != formal.Type.Deref() {
			g.errorf(pos, "argument type mismatch: have %s, want %s", p.t, formal.Type)
		}
		g.emit(vm.LdIndN, n, 0)
	}
}

// compileOpenArg passes (base, length) for an open-array parameter.
func (g *Gen) compileOpenArg(formal types.Param, a ast.Expr) {
	pos := a.ExprPos()
	elem := formal.Type.Deref().Base
	if s, ok := a.(*ast.StringLit); ok {
		if !elem.IsChar() {
			g.errorf(pos, "string constant requires ARRAY OF CHAR, want ARRAY OF %s", elem)
		}
		n := int32(len(s.Value))
		if n == 0 {
			n = 1
		}
		g.stringToTempThen(s, n, func(temp int32) {
			g.emit(vm.LdaLoc, 0, temp)
			g.emitInt(int64(n))
		})
		return
	}
	d, ok := a.(*ast.Designator)
	if !ok {
		g.errorf(pos, "open array argument must be an array variable or string constant")
		g.emit(vm.PushNil, 0, 0)
		g.emit(vm.PushInt, 0, 0)
		return
	}
	p := g.resolveDesig(d, true)
	switch p.kind {
	case pOpen:
		sym := p.sym
		hops := g.hops(sym.Level)
		g.emit(vm.LdLoc, hops, sym.Offset)
		g.emit(vm.LdLoc, hops, sym.Offset+1)
		g.checkOpenElem(elem, sym.Type.Deref().Base, pos)
	case pAddr:
		at := p.t.Deref()
		if at.Kind != types.ArrayK {
			g.errorf(pos, "open array argument must be an array, have %s", p.t)
			g.emit(vm.PushInt, 0, 0)
			return
		}
		lo, hi, _ := at.Index.Bounds()
		g.emitInt(hi - lo + 1)
		g.checkOpenElem(elem, at.Base, pos)
	default:
		if p.kind != pNone {
			g.errorf(pos, "open array argument must be an array variable")
		}
		g.emit(vm.PushNil, 0, 0)
		g.emit(vm.PushInt, 0, 0)
	}
}

func (g *Gen) checkOpenElem(want, have *types.Type, pos token.Pos) {
	if want.Deref() != have.Deref() && !(want.IsInteger() && have.IsInteger()) {
		g.errorf(pos, "open array element mismatch: have %s, want %s", have, want)
	}
}

// stringToTempThen materializes a string literal into n temp slots and
// runs use with the temp's offset.  The temp stays allocated; the call
// paths release argument temps only after the Call instruction, since
// open-array arguments pass the temp's address to the callee.
func (g *Gen) stringToTempThen(s *ast.StringLit, n int32, use func(temp int32)) {
	temp := g.allocTemp(n)
	g.emit(vm.LdaLoc, 0, temp)
	g.emitStr(s.Value)
	g.emit(vm.StrToA, n, 0)
	use(temp)
}
