package sema

import (
	"strings"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/symtab"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// ChildProc is the shared parent/child information produced when a
// procedure heading is analyzed in the parent scope (§2.4, alternative
// 1 — the paper's choice): the procedure's own symbol table entry and
// its parameter entries, already copied into the child scope.  The
// driver hands this to whichever task compiles the body: the child
// stream's Parser/Decl-Analyzer task in the concurrent compiler, or the
// deferred recursive walk in the sequential one.
type ChildProc struct {
	Decl      *ast.ProcDecl
	Sym       *symtab.Symbol
	Scope     *symtab.Scope
	Meta      *vm.ProcMeta
	FrameBase int32  // first free frame slot after the parameters
	module    string // the module scope's path, "M.mod"
}

// DeclAnalyzer processes the declaration part of one stream, building
// the stream's symbol table.  One analyzer is owned by exactly one
// Parser/Declarations-Analyzer task.
type DeclAnalyzer struct {
	Env      *Env
	Scope    *symtab.Scope
	Proc     *ChildProc // the procedure whose scope this is; nil for a module scope
	ModPath  string     // the module scope's path: "M.def", "M.mod"
	OwnerMod string     // module whose source declares this scope
	IsDef    bool       // definition-module scope: procedures are external
	Area     int32      // registry globals area (module/def scopes); -1 for procedures
	AreaName string     // the area's name ("M.def"/"M.mod"); symbols carry this
	NextOff  int32      // storage allocator (area slots or frame slots)
	Children []*ChildProc

	// OnChild, when set, is invoked the moment each procedure heading
	// has been analyzed — the concurrent driver uses it to fire the
	// child stream's avoided heading event immediately (§2.4), instead
	// of waiting for the whole declaration section.  Shared headings
	// analyzed while a pointer fixup is outstanding are the exception
	// (see held).
	OnChild func(*ChildProc)

	// ShareHeadings selects §2.4 alternative 1 (true, the paper's
	// choice): the parent copies the procedure and parameter entries
	// into the child scope.  False selects alternative 3: the child
	// stream re-processes the heading itself (AnalyzeOwnHeading).
	ShareHeadings bool

	fixups []fixup

	// held are shared-heading children announced while a pointer fixup
	// was outstanding: their copied parameter types may still have a nil
	// Base, so OnChild waits for ResolveForwardRefs.
	held []*ChildProc
}

// NewModuleAnalyzer returns an analyzer for a module-level scope (a
// definition module's interface or the implementation module body).
// areaName is the scope's global storage area ("M.def" / "M.mod").
func NewModuleAnalyzer(env *Env, scope *symtab.Scope, scopePath, ownerMod, areaName string, isDef bool) *DeclAnalyzer {
	return &DeclAnalyzer{
		Env: env, Scope: scope, ModPath: scopePath, OwnerMod: ownerMod,
		IsDef: isDef, Area: env.Reg.AreaIdx(areaName), AreaName: areaName,
		ShareHeadings: true,
	}
}

// NewProcAnalyzer returns an analyzer for a procedure scope created by
// a parent's heading analysis.
func NewProcAnalyzer(env *Env, child *ChildProc) *DeclAnalyzer {
	return &DeclAnalyzer{
		Env: env, Scope: child.Scope, Proc: child, ModPath: child.module,
		OwnerMod: child.Meta.Module, Area: -1, NextOff: child.FrameBase,
		ShareHeadings: true,
	}
}

func (a *DeclAnalyzer) insert(sym *symtab.Symbol) { a.Env.Insert(a.Scope, sym) }

// Path renders the scope's deterministic path: the module's, then for a
// procedure the registry name of each procedure from the outermost in,
// ':'-joined ("M.mod:P:P.Q" for Q declared in P).  Its length grows with
// the square of the nesting depth, so it is rendered only where it is
// output: exception names.
func (a *DeclAnalyzer) Path() string {
	if a.Proc == nil {
		return a.ModPath
	}
	name, n := a.Proc.Meta.Name, len(a.ModPath)
	for i := range len(name) + 1 {
		if i == len(name) || name[i] == '.' {
			n += 1 + i
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(a.ModPath)
	for i := range len(name) + 1 {
		if i == len(name) || name[i] == '.' {
			b.WriteString(":")
			b.WriteString(name[:i])
		}
	}
	return b.String()
}

// warnModuleShadow reports a procedure-local variable whose name hides
// an imported module.  Only the enclosing implementation-module scope
// is consulted: its KModule entries are inserted by AnalyzeImports
// before any child stream's heading event fires, so the probe is
// deterministic under every schedule.  The concurrently-built .def
// scopes are deliberately not probed — their import entries may still
// be in flight — and a module-level clash is a redeclaration error
// reported by Insert instead.
func (a *DeclAnalyzer) warnModuleShadow(n ast.Name) {
	if a.Area >= 0 {
		return
	}
	for sc := a.Scope.Parent; sc != nil; sc = sc.Parent {
		if sc.Kind != symtab.ModuleScope {
			continue
		}
		if sym := sc.Probe(n.Text); sym != nil && sym.Kind == symtab.KModule {
			a.Env.Warnf(n.Pos, "variable %s shadows imported module %s", n.Text, n.Text)
		}
		return
	}
}

// alloc reserves n storage slots in this scope's area or frame for the
// variable name, diagnosing at it a size past types.MaxSlots.
func (a *DeclAnalyzer) alloc(n int32, name ast.Name) int32 {
	off := a.NextOff
	if int64(off)+int64(n) > types.MaxSlots {
		a.Env.Errorf(name.Pos, vm.LimitFmt, "the size in slots of the variables up to "+name.Text)
		return off
	}
	a.NextOff += n
	return off
}

// AnalyzeImports processes the import list, creating module symbols
// (IMPORT M) and lazy aliases (FROM M IMPORT x).  resolveIface maps a
// module name to its interface scope, creating/starting the definition
// module stream if needed (the driver supplies this).
func (a *DeclAnalyzer) AnalyzeImports(imports []*ast.Import, resolveIface func(name string) *symtab.Scope) {
	for _, imp := range imports {
		if imp.From.Text != "" {
			iface := resolveIface(imp.From.Text)
			a.Env.Reg.AddImport(imp.From.Text)
			for _, n := range imp.Names {
				a.insert(&symtab.Symbol{
					Name: n.Text, Kind: symtab.KAlias, Pos: n.Pos,
					Payload: &symtab.Payload{AliasScope: iface, AliasName: n.Text},
				})
			}
			continue
		}
		for _, n := range imp.Names {
			iface := resolveIface(n.Text)
			a.Env.Reg.AddImport(n.Text)
			a.insert(&symtab.Symbol{
				Name: n.Text, Kind: symtab.KModule, Pos: n.Pos,
				Payload: &symtab.Payload{IfaceScope: iface},
			})
		}
	}
}

// Analyze processes the declarations of this scope: constants, types,
// variables, exceptions and procedure *headings*.  Procedure bodies are
// not descended into — each becomes a ChildProc for the driver, exactly
// mirroring the concurrent compiler's stream split.
func (a *DeclAnalyzer) Analyze(decls []ast.Decl) {
	e := a.Env
	a.Scope.Grow(len(decls))
	for _, d := range decls {
		switch d := d.(type) {
		case *ast.ConstDecl:
			v := e.EvalConst(a.Scope, d.Expr)
			t := v.Type
			if t == nil {
				t = types.Bad
			}
			a.insert(&symtab.Symbol{
				Name: d.Name.Text, Kind: symtab.KConst, Pos: d.Name.Pos, Type: t,
				Payload: &symtab.Payload{Val: v},
			})

		case *ast.TypeDecl:
			var t *types.Type
			if d.Type == nil {
				if !a.IsDef {
					e.Errorf(d.Name.Pos, "opaque type %s is only legal in a definition module", d.Name.Text)
				}
				t = types.NewOpaque(d.Name.Text)
			} else {
				t = a.resolveTypeDecl(d)
			}
			a.insert(&symtab.Symbol{
				Name: d.Name.Text, Kind: symtab.KType, Pos: d.Name.Pos, Type: t,
			})

		case *ast.VarDecl:
			t := a.resolveType(d.Type)
			slots := int32(1)
			if t != types.Bad {
				slots = int32(t.Slots())
			}
			for _, n := range d.Names {
				a.warnModuleShadow(n)
				sym := &symtab.Symbol{
					Name: n.Text, Kind: symtab.KVar, Pos: n.Pos, Type: t,
					Level: a.Scope.Level, Offset: a.alloc(slots, n),
				}
				if a.Area >= 0 {
					sym.Global = true
					sym.Area = a.AreaName
				}
				a.insert(sym)
			}

		case *ast.ExceptionDecl:
			path := a.Path()
			for _, n := range d.Names {
				full := ExcName(path, n.Text)
				a.insert(&symtab.Symbol{
					Name: n.Text, Kind: symtab.KException, Pos: n.Pos,
					Type: types.Exception, Payload: &symtab.Payload{ExcName: full},
				})
			}

		case *ast.ProcDecl:
			a.analyzeProcHeading(d)
		}
	}
}

// formals resolves a heading's formal parameters.
func (a *DeclAnalyzer) formals(head *ast.ProcHead) []types.Param {
	params := make([]types.Param, 0, len(head.Params))
	for _, sec := range head.Params {
		t := a.Env.ResolveTypeName(a.Scope, sec.Type)
		if sec.Open {
			t = types.NewOpenArray(t)
		}
		for _, n := range sec.Names {
			params = append(params, types.Param{Name: n.Text, Type: t, ByRef: sec.VarMode, Open: sec.Open})
		}
	}
	return params
}

// ParamSlots returns the frame slots one parameter occupies: VAR
// parameters hold an address (1), open arrays hold base+length (2),
// value parameters hold a copy of the value.
func ParamSlots(p types.Param) int32 {
	switch {
	case p.Open:
		return 2 // base + length, for both value and VAR mode
	case p.ByRef:
		return 1
	default:
		return int32(p.Type.Slots())
	}
}

// analyzeProcHeading implements §2.4 alternative 1: the heading is
// processed here in the parent scope; the symbol table entries it
// yields (the procedure entry and its parameter entries) are copied
// into the child scope, which the driver will only then allow to start.
func (a *DeclAnalyzer) analyzeProcHeading(d *ast.ProcDecl) {
	e := a.Env
	head := d.Head
	e.Ctx.Add(ctrace.CostTypeNode)
	params := a.formals(head)
	var ret *types.Type
	if head.Ret != nil {
		ret = e.ResolveTypeName(a.Scope, head.Ret)
		switch ret.Deref().Kind {
		case types.ArrayK, types.RecordK, types.OpenArrayK:
			e.Errorf(head.Ret.Pos(), "function result type %s must be scalar", ret)
		}
	}
	sig := types.NewProcType(params, ret)

	if a.IsDef {
		// Definition module: the procedure is implemented elsewhere;
		// client code links to it symbolically.
		a.insert(&symtab.Symbol{
			Name: head.Name.Text, Kind: symtab.KProc, Pos: head.Name.Pos,
			Type: sig, ProcIdx: -1, Payload: &symtab.Payload{ExtName: a.OwnerMod + "." + head.Name.Text},
		})
		return
	}

	var argSlots int64
	for _, p := range params {
		argSlots += int64(ParamSlots(p))
	}
	if argSlots > types.MaxSlots {
		e.Errorf(head.Name.Pos, vm.LimitFmt, "the size in slots of the parameters of "+head.Name.Text)
	}
	level := a.Scope.Level + 1
	path := head.Name.Text // the registry name: dotted from the outermost procedure
	if a.Proc != nil {
		path = e.Reg.Nest(a.Proc.Meta.Name, path)
	}
	meta := e.Reg.NewProc(d.BodyStream, path, a.Scope.Kind == symtab.ModuleScope, false,
		level, int32(argSlots), ret != nil, head.Pos)

	procSym := &symtab.Symbol{
		Name: head.Name.Text, Kind: symtab.KProc, Pos: head.Name.Pos,
		Type: sig, ProcIdx: meta.Idx,
	}
	a.insert(procSym)

	// Build the child scope; under alternative 1 the shared entries
	// (the procedure's own entry and its parameters) are copied in now.
	child := e.Tab.NewScope(symtab.ProcScope, head.Name.Text, a.Scope, level)
	off := int32(0)
	if a.ShareHeadings {
		off = CopyHeadingEntries(e, child, procSym, params)
	}

	cp := &ChildProc{
		Decl: d, Sym: procSym, Scope: child, Meta: meta, FrameBase: off, module: a.ModPath,
	}
	a.Children = append(a.Children, cp)
	switch {
	case a.OnChild == nil:
	case a.ShareHeadings && len(a.fixups) > 0:
		a.held = append(a.held, cp)
	default:
		a.OnChild(cp)
	}
}

// CopyHeadingEntries copies the procedure's symbol and its parameter
// entries into the child scope (§2.4 alternative 1), returning the
// first free frame slot.
func CopyHeadingEntries(e *Env, child *symtab.Scope, procSym *symtab.Symbol, params []types.Param) int32 {
	selfCopy := *procSym
	e.Insert(child, &selfCopy)
	off := int32(0)
	for _, p := range params {
		psym := &symtab.Symbol{
			Name: p.Name, Kind: symtab.KParam, Type: p.Type,
			Level: child.Level, Offset: off, ByRef: p.ByRef, Open: p.Open,
		}
		off += ParamSlots(p)
		e.Insert(child, psym)
	}
	return off
}

// AnalyzeOwnHeading implements §2.4 alternative 3: the child stream
// re-processes its procedure heading, resolving the formal types with
// its own searcher and producing symbol table entries identical to the
// ones the parent built for the signature.  Returns the first free
// frame slot.
func AnalyzeOwnHeading(env *Env, child *ChildProc, head *ast.ProcHead) int32 {
	params := (&DeclAnalyzer{Env: env, Scope: child.Scope}).formals(head)
	if head.Ret != nil {
		env.ResolveTypeName(child.Scope, head.Ret)
	}
	env.Ctx.Add(ctrace.CostTypeNode)
	return CopyHeadingEntries(env, child.Scope, child.Sym, params)
}

// NewBodyMeta registers the module body as a level-0 pseudo-procedure.
func NewBodyMeta(env *Env) *vm.ProcMeta {
	return env.Reg.NewProc(0, ".body", false, true, 0, 0, false, ast.Name{}.Pos)
}
