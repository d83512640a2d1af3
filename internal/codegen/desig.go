package codegen

import (
	"m2cc/internal/ast"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// placeKind classifies what a designator denotes.
type placeKind uint8

const (
	pNone    placeKind = iota // resolution failed (error already reported)
	pConst                    // a constant value
	pType                     // a type name (type-transfer call target)
	pBuiltin                  // a pervasive routine (call target only)
	pExc                      // an exception (RAISE target)
	pProc                     // a procedure (call target or procedure value)
	pDirect                   // a scalar variable addressable without code
	pOpen                     // a whole open-array parameter (base+length pair)
	pAddr                     // an address has been pushed on the stack
)

// place is the result of resolving a designator.
type place struct {
	kind placeKind
	t    *types.Type
	sym  *symtab.Symbol
	v    types.Const
}

func badPlace() place { return place{kind: pNone, t: types.Bad} }

// resolveDesig resolves a designator to a place, emitting address
// computation code for anything that needs it.  wantAddr forces even
// simple scalar variables into pAddr form.
func (g *Gen) resolveDesig(d *ast.Designator, wantAddr bool) place {
	res := g.env.Search.Lookup(g.scope, d.Head.Text, g.withs)
	if !res.Found() {
		if res.DeepAlias {
			g.errorf(d.Head.Pos, "import chain for %s is cyclic or too deep (more than %d re-export links)", d.Head.Text, symtab.MaxAliasDepth)
		} else {
			g.errorf(d.Head.Pos, "undeclared identifier %s", d.Head.Text)
		}
		return badPlace()
	}
	var t *types.Type
	sels := d.Sels
	if res.Field != nil {
		// WITH-bound field: the record's address is cached in a temp.
		g.emit(vm.LdLoc, 0, g.withTemp[res.WithIndex])
		g.emit(vm.AddOff, int32(res.Field.Offset), 0)
		t = res.Field.Type
		return g.walkSelectors(t, sels, d.Head.Pos)
	}

	sym := res.Sym
	// Module qualification: M.x (possibly chained).
	for sym.Kind == symtab.KModule {
		if len(sels) == 0 {
			g.errorf(d.Head.Pos, "module %s cannot be used as a value", sym.Name)
			return badPlace()
		}
		fs, ok := sels[0].(*ast.FieldSel)
		if !ok {
			g.errorf(d.Head.Pos, "module %s must be qualified with .name", sym.Name)
			return badPlace()
		}
		qres := g.env.Search.QualifiedLookup(sym.IfaceScope, fs.Name.Text)
		if qres.Sym == nil {
			if qres.DeepAlias {
				g.errorf(fs.Name.Pos, "import chain for %s.%s is cyclic or too deep (more than %d re-export links)", sym.Name, fs.Name.Text, symtab.MaxAliasDepth)
			} else {
				g.errorf(fs.Name.Pos, "%s is not declared in module %s", fs.Name.Text, sym.Name)
			}
			return badPlace()
		}
		sym = qres.Sym
		sels = sels[1:]
	}

	switch sym.Kind {
	case symtab.KConst:
		if len(sels) != 0 {
			g.errorf(d.Head.Pos, "constant %s cannot be selected or indexed", sym.Name)
			return badPlace()
		}
		return place{kind: pConst, t: sym.Type, sym: sym, v: sym.Val}
	case symtab.KType:
		if len(sels) != 0 {
			g.errorf(d.Head.Pos, "type %s cannot be selected or indexed", sym.Name)
			return badPlace()
		}
		return place{kind: pType, t: sym.Type, sym: sym}
	case symtab.KBuiltin:
		return place{kind: pBuiltin, t: types.Bad, sym: sym}
	case symtab.KException:
		return place{kind: pExc, t: types.Exception, sym: sym}
	case symtab.KProc:
		if len(sels) != 0 {
			g.errorf(d.Head.Pos, "procedure %s cannot be selected or indexed", sym.Name)
			return badPlace()
		}
		return place{kind: pProc, t: sym.Type, sym: sym}
	case symtab.KVar, symtab.KParam:
		return g.varPlace(sym, sels, d.Head.Pos, wantAddr)
	default:
		g.errorf(d.Head.Pos, "%s cannot be used here", sym.Name)
		return badPlace()
	}
}

// varPlace emits addressing for a variable or parameter designator.
func (g *Gen) varPlace(sym *symtab.Symbol, sels []ast.Selector, pos token.Pos, wantAddr bool) place {
	if sym.Open {
		return g.openArrayPlace(sym, sels, pos)
	}
	if len(sels) == 0 && !sym.ByRef && isScalar(sym.Type) && !wantAddr {
		return place{kind: pDirect, t: sym.Type, sym: sym}
	}
	g.pushVarAddr(sym)
	return g.walkSelectors(sym.Type, sels, pos)
}

// pushVarAddr pushes the address of a (non-open) variable or parameter.
func (g *Gen) pushVarAddr(sym *symtab.Symbol) {
	switch {
	case sym.ByRef:
		g.emit(vm.LdLoc, g.hops(sym.Level), sym.Offset)
	case sym.Global:
		g.emit(vm.LdaGlb, g.areaIdx(sym.Area), sym.Offset)
	default:
		g.emit(vm.LdaLoc, g.hops(sym.Level), sym.Offset)
	}
}

// openArrayPlace handles open-array parameters: bare (for HIGH and
// argument forwarding) or indexed.
func (g *Gen) openArrayPlace(sym *symtab.Symbol, sels []ast.Selector, pos token.Pos) place {
	if len(sels) == 0 {
		return place{kind: pOpen, t: sym.Type, sym: sym}
	}
	idx, ok := sels[0].(*ast.IndexSel)
	if !ok {
		g.errorf(pos, "open array %s must be indexed", sym.Name)
		return badPlace()
	}
	elem := sym.Type.Deref().Base
	hops := g.hops(sym.Level)
	g.emit(vm.LdLoc, hops, sym.Offset)   // base
	g.emit(vm.LdLoc, hops, sym.Offset+1) // length
	g.compileOrdinalExpr(idx.Indexes[0])
	g.emit(vm.IndexOp, int32(elem.Slots()), int32(pos.Line))
	t := elem
	// Any further indexes in the same bracket apply to the element.
	if len(idx.Indexes) > 1 {
		rest := &ast.IndexSel{Indexes: idx.Indexes[1:], Pos: idx.Pos}
		return g.walkSelectors(t, append([]ast.Selector{rest}, sels[1:]...), pos)
	}
	return g.walkSelectors(t, sels[1:], pos)
}

// walkSelectors applies field/index/deref selectors to the address on
// the stack.
func (g *Gen) walkSelectors(t *types.Type, sels []ast.Selector, pos token.Pos) place {
	for _, sel := range sels {
		if t == types.Bad {
			return badPlace()
		}
		switch sel := sel.(type) {
		case *ast.FieldSel:
			d := t.Deref()
			if d.Kind != types.RecordK {
				g.errorf(sel.Name.Pos, "%s is not a record; cannot select field %s", t, sel.Name.Text)
				return badPlace()
			}
			f := d.FieldNamed(sel.Name.Text)
			if f == nil {
				g.errorf(sel.Name.Pos, "record %s has no field %s", t, sel.Name.Text)
				return badPlace()
			}
			if f.Offset != 0 {
				g.emit(vm.AddOff, int32(f.Offset), 0)
			}
			t = f.Type
		case *ast.IndexSel:
			for _, ix := range sel.Indexes {
				d := t.Deref()
				if d.Kind != types.ArrayK {
					g.errorf(sel.Pos, "%s is not an array; cannot index", t)
					return badPlace()
				}
				g.compileOrdinalExpr(ix)
				lo, hi, _ := d.Index.Bounds()
				g.emitIndex(lo, hi-lo+1, int32(d.Base.Slots()))
				t = d.Base
			}
		case *ast.DerefSel:
			d := t.Deref()
			if d.Kind != types.PointerK && d.Kind != types.RefK {
				g.errorf(sel.Pos, "%s is not a pointer; cannot dereference", t)
				return badPlace()
			}
			g.emit(vm.LdInd, 0, 0)
			t = d.Base
			if t == nil {
				t = types.Bad
			}
		}
	}
	return place{kind: pAddr, t: t}
}

// isScalar reports whether a value of type t occupies one stack slot.
func isScalar(t *types.Type) bool {
	switch t.Deref().Kind {
	case types.ArrayK, types.RecordK, types.OpenArrayK:
		return false
	}
	return true
}

// loadPlace turns a place into a value on the stack.  For aggregates
// the "value" is the address; the caller handles copying.  Returns the
// value's type and whether it is an aggregate address.
func (g *Gen) loadPlace(p place, pos token.Pos) (*types.Type, bool) {
	switch p.kind {
	case pConst:
		return g.emitConst(p.v, pos), false
	case pDirect:
		if p.sym.Global {
			g.emit(vm.LdGlb, g.areaIdx(p.sym.Area), p.sym.Offset)
		} else {
			g.emit(vm.LdLoc, g.hops(p.sym.Level), p.sym.Offset)
		}
		return p.t, false
	case pAddr:
		if isScalar(p.t) {
			g.emit(vm.LdInd, 0, 0)
			return p.t, false
		}
		return p.t, true
	case pProc:
		// Procedure used as a value: only non-nested procedures may be
		// assigned (the Modula-2 rule that makes procedure values need
		// no closure).
		sym := p.sym
		if ext := sym.External(); ext != "" {
			g.emit(vm.PushProc, -1, g.extIdx(ext))
		} else {
			g.emit(vm.PushProc, sym.ProcIdx, 0)
		}
		return p.t, false
	case pOpen:
		g.errorf(pos, "open array %s cannot be used as a value here", p.sym.Name)
		return types.Bad, false
	case pNone:
		g.emit(vm.PushInt, 0, 0)
		return types.Bad, false
	default:
		g.errorf(pos, "%s cannot be used as a value", p.sym.Name)
		g.emit(vm.PushInt, 0, 0)
		return types.Bad, false
	}
}

// storePlace stores the value on top of the stack into the place (the
// address, for pAddr, was pushed before the value).
func (g *Gen) storePlace(p place, pos token.Pos) {
	switch p.kind {
	case pDirect:
		if p.sym.Global {
			g.emit(vm.StGlb, g.areaIdx(p.sym.Area), p.sym.Offset)
		} else {
			g.emit(vm.StLoc, g.hops(p.sym.Level), p.sym.Offset)
		}
	case pAddr:
		g.emit(vm.StInd, 0, 0)
	case pNone:
		g.emit(vm.Drop, 0, 0)
	default:
		g.errorf(pos, "cannot assign to this designator")
		g.emit(vm.Drop, 0, 0)
	}
}
