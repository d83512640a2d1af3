package codegen

import (
	"m2cc/internal/ast"
	"m2cc/internal/symtab"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// builtinFunc compiles an application of a pervasive function.
func (g *Gen) builtinFunc(sym *symtab.Symbol, e *ast.CallExpr) *types.Type {
	bad := func() *types.Type {
		g.emit(vm.PushInt, 0, 0)
		return types.Bad
	}
	need := func(n int) bool {
		if len(e.Args) != n {
			g.errorf(e.Pos, "%s expects %d argument(s)", sym.Name, n)
			return false
		}
		return true
	}

	switch sym.BID {
	case symtab.BAbs:
		if !need(1) {
			return bad()
		}
		t := g.compileScalarExpr(e.Args[0])
		switch {
		case t.IsReal():
			g.emit(vm.AbsF, 0, 0)
		case t.IsInteger():
			g.emit(vm.AbsI, 0, 0)
		default:
			g.errorf(e.Pos, "ABS requires a numeric argument, have %s", t)
		}
		return t

	case symtab.BCap:
		if !need(1) {
			return bad()
		}
		t := g.compileCoerced(e.Args[0], types.Char)
		if t != types.Bad && !t.IsChar() {
			g.errorf(e.Pos, "CAP requires a CHAR, have %s", t)
		}
		g.emit(vm.CapCh, 0, 0)
		return types.Char

	case symtab.BChr:
		if !need(1) {
			return bad()
		}
		t := g.compileScalarExpr(e.Args[0])
		if t != types.Bad && !t.IsInteger() {
			g.errorf(e.Pos, "CHR requires a whole number, have %s", t)
		}
		g.emitChkRange(0, 255, int32(e.Pos.Line))
		return types.Char

	case symtab.BFloat:
		if !need(1) {
			return bad()
		}
		t := g.compileScalarExpr(e.Args[0])
		if t != types.Bad && !t.IsInteger() {
			g.errorf(e.Pos, "FLOAT requires a whole number, have %s", t)
		}
		g.emit(vm.IntToReal, 0, 0)
		return types.Real

	case symtab.BTrunc:
		if !need(1) {
			return bad()
		}
		t := g.compileScalarExpr(e.Args[0])
		if t != types.Bad && !t.IsReal() {
			g.errorf(e.Pos, "TRUNC requires a real, have %s", t)
		}
		g.emit(vm.RealToInt, 0, 0)
		return types.Cardinal

	case symtab.BOdd:
		if !need(1) {
			return bad()
		}
		t := g.compileScalarExpr(e.Args[0])
		if t != types.Bad && !t.IsInteger() {
			g.errorf(e.Pos, "ODD requires a whole number, have %s", t)
		}
		g.emit(vm.OddI, 0, 0)
		return types.Boolean

	case symtab.BOrd:
		if !need(1) {
			return bad()
		}
		t := g.compileOrdinalExpr(e.Args[0])
		_ = t
		return types.Cardinal

	case symtab.BHigh:
		if !need(1) {
			return bad()
		}
		d, ok := e.Args[0].(*ast.Designator)
		if !ok {
			g.errorf(e.Pos, "HIGH requires an array designator")
			return bad()
		}
		p := g.resolveDesig(d, true)
		switch {
		case p.kind == pOpen:
			g.emit(vm.LdLoc, g.hops(p.sym.Level), p.sym.Offset+1)
			g.emitInt(1)
			g.emit(vm.SubI, 0, 0)
			return types.Cardinal
		case p.kind == pAddr && p.t.Deref().Kind == types.ArrayK:
			g.emit(vm.Drop, 0, 0)
			lo, hi, _ := p.t.Deref().Index.Bounds()
			g.emitInt(hi - lo)
			return types.Cardinal
		default:
			if p.kind != pNone {
				g.errorf(e.Pos, "HIGH requires an array, have %s", p.t)
			}
			return bad()
		}

	case symtab.BMin, symtab.BMax, symtab.BSize, symtab.BTSize:
		// Constant-foldable; the shared constant evaluator handles the
		// type-argument forms.  SIZE of a variable folds from its type.
		if sym.BID == symtab.BSize && len(e.Args) == 1 {
			if d, ok := e.Args[0].(*ast.Designator); ok {
				if t := g.sizeOfVar(d); t != nil {
					return t
				}
			}
		}
		v := g.env.EvalConst(g.scope, e)
		if !v.IsValid() {
			return bad()
		}
		return g.emitConst(v, e.Pos)

	case symtab.BVal:
		if !need(2) {
			return bad()
		}
		t := g.typeArg(e.Args[0])
		if t == nil || !t.IsOrdinal() {
			g.errorf(e.Pos, "VAL expects an ordinal type and a value")
			return bad()
		}
		at := g.compileScalarExpr(e.Args[1])
		if at != types.Bad && !at.IsOrdinal() {
			g.errorf(e.Pos, "VAL requires an ordinal value, have %s", at)
		}
		if lo, hi, ok := t.Bounds(); ok {
			g.emitChkRange(lo, hi, int32(e.Pos.Line))
		}
		return t

	case symtab.BSin, symtab.BCos, symtab.BSqrt, symtab.BLn, symtab.BExp, symtab.BArctan:
		if !need(1) {
			return bad()
		}
		t := g.compileScalarExpr(e.Args[0])
		if t != types.Bad && !t.IsReal() {
			g.errorf(e.Pos, "%s requires a real argument, have %s", sym.Name, t)
		}
		var fn int32
		switch sym.BID {
		case symtab.BSin:
			fn = vm.MathSin
		case symtab.BCos:
			fn = vm.MathCos
		case symtab.BSqrt:
			fn = vm.MathSqrt
		case symtab.BLn:
			fn = vm.MathLn
		case symtab.BExp:
			fn = vm.MathExp
		default:
			fn = vm.MathArctan
		}
		g.emit(vm.MathOp, fn, int32(e.Pos.Line))
		return types.Real

	default:
		g.errorf(e.Pos, "%s is a proper procedure, not a function", sym.Name)
		return bad()
	}
}

// typeArg resolves an argument that must be a type name.
func (g *Gen) typeArg(a ast.Expr) *types.Type {
	d, ok := a.(*ast.Designator)
	if !ok {
		return nil
	}
	p := g.resolveDesig(d, false)
	if p.kind != pType {
		return nil
	}
	return p.t
}

// sizeOfVar folds SIZE(v) for a variable designator; returns nil if the
// argument is not a plain variable.
func (g *Gen) sizeOfVar(d *ast.Designator) *types.Type {
	res := g.env.Search.Lookup(g.scope, d.Head.Text, g.withs)
	if !res.Found() || res.Sym == nil {
		return nil
	}
	sym := res.Sym
	if (sym.Kind != symtab.KVar && sym.Kind != symtab.KParam) || len(d.Sels) != 0 || sym.Open {
		return nil
	}
	g.emitInt(int64(sym.Type.Slots() * types.WordBytes))
	return types.Cardinal
}
