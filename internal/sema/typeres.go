package sema

import (
	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// fixup is one deferred pointer-target resolution ("POINTER TO T" with
// T possibly declared later in the same scope).
type fixup struct {
	target *types.Type // the pointer/REF type whose Base is pending
	name   string
	pos    token.Pos
}

// deferPointerBase registers a forward-reference fixup.  While fixups
// are outstanding, the scope queues new symbols unpublished, preserving
// the entry-atomicity rule of §2.2 footnote 1.
func (a *DeclAnalyzer) deferPointerBase(pt *types.Type, name string, pos token.Pos) {
	a.fixups = append(a.fixups, fixup{target: pt, name: name, pos: pos})
	a.Scope.DeferFixup()
}

// ResolveForwardRefs patches all deferred pointer targets.  Self-scope
// declarations take priority (the Modula-2 forward-reference rule);
// otherwise the ordinary search runs, which may DKY-wait on outer
// scopes.  Children held back behind the fixups are announced once every
// target is patched.  Must be called before Scope.Complete.
func (a *DeclAnalyzer) ResolveForwardRefs() {
	for _, f := range a.fixups {
		a.Env.Ctx.Add(ctrace.CostTypeNode)
		var t *types.Type
		if sym := a.Scope.OwnerProbe(f.name); sym != nil {
			if sym.Kind == symtab.KType {
				t = sym.Type
			} else {
				a.Env.Errorf(f.pos, "%s is a %s, not a type", f.name, sym.Kind)
				t = types.Bad
			}
		} else {
			q := &ast.Qualident{Parts: []ast.Name{{Text: f.name, Pos: f.pos}}}
			t = a.Env.ResolveTypeName(a.Scope, q)
		}
		f.target.Base = t
		a.Scope.ResolveFixup(a.Env.Ctx)
	}
	a.fixups = nil
	for _, cp := range a.held {
		a.OnChild(cp)
	}
	a.held = nil
}

// resolveTypeDecl resolves the right-hand side of "TYPE name = ...".
// Structural constructors yield a fresh type carrying the declared
// name; a type identifier on the right creates a synonym (the same
// *Type object, per Modula-2 identity rules).
func (a *DeclAnalyzer) resolveTypeDecl(d *ast.TypeDecl) *types.Type {
	t := a.resolveType(d.Type)
	if _, isName := d.Type.(*ast.NamedType); !isName && t.Name == "" {
		t.Name = d.Name.Text
	}
	return t
}

// resolveType resolves a syntactic type denotation to a *types.Type,
// inserting enumeration constants into the current scope as a side
// effect.
func (a *DeclAnalyzer) resolveType(t ast.Type) *types.Type {
	e := a.Env
	e.Ctx.Add(ctrace.CostTypeNode)
	switch t := t.(type) {
	case *ast.NamedType:
		return e.ResolveTypeName(a.Scope, t.Name)

	case *ast.EnumType:
		et := types.NewEnum("", len(t.Names))
		for i, n := range t.Names {
			a.insert(&symtab.Symbol{
				Name: n.Text, Kind: symtab.KConst, Pos: n.Pos,
				Type: et, Payload: &symtab.Payload{Val: types.MakeInt(et, int64(i))},
			})
		}
		return et

	case *ast.SubrangeType:
		lo, loT, ok1 := e.EvalConstInt(a.Scope, t.Lo)
		hi, _, ok2 := e.EvalConstInt(a.Scope, t.Hi)
		if !ok1 || !ok2 {
			return types.Bad
		}
		base := loT.Under()
		if t.Base != nil {
			base = e.ResolveTypeName(a.Scope, t.Base)
			if base != types.Bad && !base.IsOrdinal() {
				e.Errorf(t.Pos, "subrange base %s is not an ordinal type", base)
				return types.Bad
			}
		} else if base.Kind == types.WholeK {
			base = types.Integer
		}
		if lo > hi {
			e.Errorf(t.Pos, "empty subrange [%d..%d]", lo, hi)
		}
		return types.NewSubrange(base, lo, hi)

	case *ast.ArrayType:
		elem := a.resolveType(t.Elem)
		// Multiple index types nest right-to-left: ARRAY a, b OF T is
		// ARRAY a OF ARRAY b OF T.
		result := elem
		for i := len(t.Indexes) - 1; i >= 0; i-- {
			idx := a.resolveType(t.Indexes[i])
			switch idx.Deref().Kind {
			case types.SubrangeK, types.EnumK, types.BooleanK, types.CharK:
				// bounded ordinal, fine
			default:
				if idx != types.Bad {
					e.Errorf(t.Pos, "array index type %s must be a bounded ordinal (use a subrange)", idx)
				}
				idx = types.NewSubrange(types.Integer, 0, 0)
			}
			if result = types.NewArray(idx, result); result.Slots() > types.MaxSlots {
				e.Errorf(t.Pos, vm.LimitFmt, "the size in slots of "+result.String())
				return types.Bad
			}
		}
		return result

	case *ast.RecordType:
		rec := &recordLayout{a: a, seen: make(map[string]token.Pos)}
		rec.layout(t.Fields, 0)
		// Every field offset is below the record's size, so this one
		// check bounds them all.
		if rt := types.NewRecord(rec.fields); rt.Slots() <= types.MaxSlots {
			return rt
		}
		e.Errorf(t.Pos, vm.LimitFmt, "the size in slots of a RECORD")
		return types.Bad

	case *ast.SetType:
		base := a.resolveType(t.Base)
		if base != types.Bad {
			lo, hi, ok := base.Bounds()
			if !ok || lo < 0 || hi > 63 {
				e.Errorf(t.Pos, "set base type %s must be an ordinal within 0..63", base)
				return types.Bad
			}
		}
		st := types.NewSet(base)
		st.Lo, st.Hi, _ = base.Bounds()
		return st

	case *ast.PointerType:
		return a.resolvePointer(types.NewPointer(nil), t.Base, t.Pos)

	case *ast.RefType:
		return a.resolvePointer(types.NewRef(nil), t.Base, t.Pos)

	case *ast.ProcType:
		params := make([]types.Param, 0, len(t.Params))
		for _, p := range t.Params {
			pt := e.ResolveTypeName(a.Scope, p.Type)
			if p.Open {
				pt = types.NewOpenArray(pt)
			}
			params = append(params, types.Param{Type: pt, ByRef: p.VarMode, Open: p.Open})
		}
		var ret *types.Type
		if t.Ret != nil {
			ret = e.ResolveTypeName(a.Scope, t.Ret)
		}
		return types.NewProcType(params, ret)

	default:
		e.Errorf(token.Pos{}, "unsupported type form")
		return types.Bad
	}
}

// resolvePointer fills pt.Base, deferring unqualified names to the
// forward-reference pass.
func (a *DeclAnalyzer) resolvePointer(pt *types.Type, base ast.Type, pos token.Pos) *types.Type {
	if nt, ok := base.(*ast.NamedType); ok && len(nt.Name.Parts) == 1 {
		a.deferPointerBase(pt, nt.Name.Parts[0].Text, nt.Name.Parts[0].Pos)
		return pt
	}
	pt.Base = a.resolveType(base)
	return pt
}

// recordLayout assigns record field offsets, overlaying variant cases
// (§ the classic Modula-2 variant record rules: all cases of a variant
// part share storage; the record size is the maximum extent).
type recordLayout struct {
	a      *DeclAnalyzer
	fields []*types.Field
	seen   map[string]token.Pos
}

func (r *recordLayout) layout(fls []*ast.FieldList, base int) int {
	off := base
	for _, fl := range fls {
		if fl.Variant != nil {
			off = r.layoutVariant(fl.Variant, off)
			continue
		}
		ft := r.a.resolveType(fl.Type)
		for _, n := range fl.Names {
			r.addField(n, ft, off)
			off += ft.Slots()
		}
	}
	return off
}

func (r *recordLayout) layoutVariant(v *ast.VariantPart, base int) int {
	e := r.a.Env
	tagType := e.ResolveTypeName(r.a.Scope, v.TagType)
	if tagType != types.Bad && !tagType.IsOrdinal() {
		e.Errorf(v.Pos, "variant tag type %s is not ordinal", tagType)
	}
	off := base
	if v.TagName.Text != "" {
		r.addField(v.TagName, tagType, off)
		off += tagType.Slots()
	}
	maxEnd := off
	for _, c := range v.Cases {
		for _, l := range c.Labels {
			e.EvalConstInt(r.a.Scope, l.Lo)
			if l.Hi != nil {
				e.EvalConstInt(r.a.Scope, l.Hi)
			}
		}
		if end := r.layout(c.Fields, off); end > maxEnd {
			maxEnd = end
		}
	}
	if v.Else != nil {
		if end := r.layout(v.Else, off); end > maxEnd {
			maxEnd = end
		}
	}
	return maxEnd
}

func (r *recordLayout) addField(n ast.Name, t *types.Type, off int) {
	if _, dup := r.seen[n.Text]; dup {
		r.a.Env.Errorf(n.Pos, "field %s redeclared", n.Text)
		return
	}
	r.seen[n.Text] = n.Pos
	r.fields = append(r.fields, &types.Field{Name: n.Text, Type: t, Offset: off, Pos: n.Pos})
}
