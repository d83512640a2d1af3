package sema_test

import (
	"testing"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/parser"
	"m2cc/internal/sema"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
	"m2cc/internal/vm"
	"m2cc/internal/workload"
)

// BenchmarkDeclAnalysis: declaration analysis alone — symbol table
// entries, scopes and types — of one fixed generated program, every
// procedure scope included (B/op, allocs/op).  The program is parsed
// once and its interfaces analyzed once, as an interface-cache hit
// would hand them over, so the loop does no lexing or parsing.
func BenchmarkDeclAnalysis(b *testing.B) {
	suite := workload.GenerateSuite(1992, 1)
	module := suite.Programs[len(suite.Programs)-1].Name
	ctx := &ctrace.TaskCtx{}
	diags := diag.NewBag(0)
	files := source.NewSet()
	parse := func(name string, kind source.FileKind) *ast.Module {
		text, err := suite.Loader.Load(name, kind)
		if err != nil {
			b.Fatal(err)
		}
		f := files.Add(name, kind, text)
		toks := lexer.ScanAll(f, ctx, diags)
		return parser.New(parser.NewSliceSource(toks), f.Label(), ctx, diags).ParseUnit()
	}
	newEnv := func(tab *symtab.Table, reg *vm.Registry) *sema.Env {
		return &sema.Env{
			Tab:    tab,
			Search: symtab.Searcher{Tab: tab, Ctx: ctx, Wait: symtab.NoWait},
			Ctx:    ctx, Diags: diags, File: module + ".mod", Reg: reg,
		}
	}

	defTab := symtab.NewTable(symtab.Skeptical, nil, nil)
	defReg := vm.NewRegistry(module)
	ifaces := map[string]*symtab.Scope{}
	var iface func(name string) *symtab.Scope
	iface = func(name string) *symtab.Scope {
		if sc, ok := ifaces[name]; ok {
			return sc
		}
		sc := defTab.NewScope(symtab.DefScope, name, nil, 0)
		ifaces[name] = sc
		m := parse(name, source.Def)
		a := sema.NewModuleAnalyzer(newEnv(defTab, defReg), sc, name+".def", name, name+".def", true)
		a.AnalyzeImports(m.Imports, iface)
		a.Analyze(m.Decls)
		a.ResolveForwardRefs()
		sc.Complete(ctx)
		return sc
	}
	m := parse(module, source.Impl)
	var parent *symtab.Scope
	if m.Kind == ast.ImplMod {
		parent = iface(module)
	}
	for _, imp := range m.Imports {
		if imp.From.Text != "" {
			iface(imp.From.Text)
			continue
		}
		for _, n := range imp.Names {
			iface(n.Text)
		}
	}

	var walk func(env *sema.Env, children []*sema.ChildProc)
	walk = func(env *sema.Env, children []*sema.ChildProc) {
		for _, child := range children {
			a := sema.NewProcAnalyzer(env, child)
			a.Analyze(child.Decl.Decls)
			a.ResolveForwardRefs()
			child.Scope.Complete(ctx)
			walk(env, a.Children)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := symtab.NewTable(symtab.Skeptical, nil, nil)
		env := newEnv(tab, vm.NewRegistry(module))
		scope := tab.NewScope(symtab.ModuleScope, module, parent, 0)
		a := sema.NewModuleAnalyzer(env, scope, module+".mod", module, module+".mod", false)
		a.AnalyzeImports(m.Imports, iface)
		a.Analyze(m.Decls)
		a.ResolveForwardRefs()
		scope.Complete(ctx)
		walk(env, a.Children)
	}
	b.StopTimer()
	if diags.HasErrors() {
		b.Fatal(diags.Sorted())
	}
}
