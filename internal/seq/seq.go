// Package seq implements the traditional sequential compiler the paper
// evaluates its concurrent compiler against (§4.2).
//
// It shares every phase — lexer, parser, declaration analyzer,
// statement analyzer / code generator — with the concurrent compiler
// and performs the same work in a fixed order: interfaces depth-first,
// then the module's declarations, then (once the enclosing scope is
// complete) each procedure's declarations, and finally statement
// analysis and code generation for every stream.  That ordering yields
// exactly the name resolutions the concurrent compiler produces under
// any DKY strategy, which is what makes byte-identical output a
// testable property rather than a hope.
//
// It is also the oracle that output is held to and the route a faulted
// or breaker-routed compilation takes, so it shares no state with the
// concurrent compiler: no interface cache, no prescan record; each
// compilation reads its files afresh from the loader.
package seq

import (
	"fmt"

	"m2cc/internal/ast"
	"m2cc/internal/codegen"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/parser"
	"m2cc/internal/sema"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/vm"
)

// Result is the outcome of one sequential compilation.
type Result struct {
	Object *vm.Object
	Diags  *diag.Bag
	Files  *source.Set
	Units  float64 // total deterministic work units (the 1-processor virtual time)
}

// Failed reports whether the compilation produced errors.
func (r *Result) Failed() bool { return r.Diags.HasErrors() }

// compiler carries the state of one sequential compilation.
type compiler struct {
	loader source.Loader
	files  *source.Set
	diags  *diag.Bag
	tab    *symtab.Table
	reg    *vm.Registry
	ctx    *ctrace.TaskCtx

	ifaces   map[string]*symtab.Scope
	inFlight map[string]bool
	genQueue []genItem
}

// genItem is one pending statement-analysis/code-generation unit.
type genItem struct {
	env       *sema.Env
	scope     *symtab.Scope
	meta      *vm.ProcMeta
	sig       *symtab.Symbol
	frameBase int32
	body      *ast.StmtList
}

// Compile compiles the named implementation module sequentially.
func Compile(module string, loader source.Loader) *Result {
	c := &compiler{
		loader:   loader,
		files:    source.NewSet(),
		diags:    diag.NewBag(200),
		reg:      vm.NewRegistry(module),
		ctx:      &ctrace.TaskCtx{},
		ifaces:   make(map[string]*symtab.Scope),
		inFlight: make(map[string]bool),
	}
	c.tab = symtab.NewTable(symtab.Skeptical, nil, nil)
	c.compileModule(module)
	return &Result{
		Object: c.reg.Object(),
		Diags:  c.diags,
		Files:  c.files,
		Units:  c.ctx.Units,
	}
}

// env builds a per-file analysis environment.  The sequential searcher
// never actually blocks: if a search meets an incomplete table the
// program has a cyclic import (already diagnosed), and skipping the
// wait gives the same not-found outcome termination-safely.
func (c *compiler) env(file string) *sema.Env {
	return &sema.Env{
		Tab:    c.tab,
		Search: symtab.Searcher{Tab: c.tab, Ctx: c.ctx, Wait: symtab.NoWait},
		Ctx:    c.ctx,
		Diags:  c.diags,
		File:   file,
		Reg:    c.reg,
	}
}

// iface returns the completed interface scope of a definition module,
// loading, parsing and analyzing each interface exactly once.
func (c *compiler) iface(name string, pos token.Pos, importer string) *symtab.Scope {
	if sc, ok := c.ifaces[name]; ok {
		if c.inFlight[name] {
			c.diags.Errorf(importer, pos, "import cycle through %s", name)
		}
		return sc
	}
	scope := c.tab.NewScope(symtab.DefScope, name, nil, 0)
	c.ifaces[name] = scope
	c.inFlight[name] = true
	defer func() {
		c.inFlight[name] = false
		if !scope.Completed() {
			scope.Complete(c.ctx)
		}
	}()

	text, err := c.loader.Load(name, source.Def)
	if err != nil {
		c.diags.Errorf(importer, pos, "cannot import %s: %v", name, err)
		return scope
	}
	f := c.files.Add(name, source.Def, text)
	env := c.env(f.Label())
	toks := lexer.ScanAll(f, c.ctx, c.diags)
	p := parser.New(parser.NewSliceSource(toks), f.Label(), c.ctx, c.diags)
	m := p.ParseUnit()
	if m.Kind != ast.DefMod {
		c.diags.Errorf(f.Label(), m.Pos, "%s is not a DEFINITION MODULE", f.Label())
	}
	a := sema.NewModuleAnalyzer(env, scope, name+".def", name, name+".def", true)
	a.AnalyzeImports(m.Imports, func(imp string) *symtab.Scope {
		return c.iface(imp, m.Pos, f.Label())
	})
	a.Analyze(m.Decls)
	a.ResolveForwardRefs()
	c.reg.SetAreaSlots(a.Area, a.NextOff)
	scope.Complete(c.ctx)
	return scope
}

func (c *compiler) compileModule(module string) {
	text, err := c.loader.Load(module, source.Impl)
	if err != nil {
		c.diags.Errorf(module+".mod", token.Pos{}, "cannot load module: %v", err)
		return
	}
	f := c.files.Add(module, source.Impl, text)
	env := c.env(f.Label())
	toks := lexer.ScanAll(f, c.ctx, c.diags)
	p := parser.New(parser.NewSliceSource(toks), f.Label(), c.ctx, c.diags)
	m := p.ParseUnit()

	var parent *symtab.Scope
	switch m.Kind {
	case ast.ImplMod:
		parent = c.iface(m.Name.Text, m.Pos, f.Label())
	case ast.DefMod:
		c.diags.Errorf(f.Label(), m.Pos, "%s.mod must be an IMPLEMENTATION or program MODULE", module)
	}
	if m.Name.Text != module {
		c.diags.Errorf(f.Label(), m.Name.Pos, "module name %s does not match file %s", m.Name.Text, f.Label())
	}

	scope := c.tab.NewScope(symtab.ModuleScope, module, parent, 0)
	a := sema.NewModuleAnalyzer(env, scope, module+".mod", module, module+".mod", false)
	a.AnalyzeImports(m.Imports, func(imp string) *symtab.Scope {
		return c.iface(imp, m.Pos, f.Label())
	})
	a.Analyze(m.Decls)
	a.ResolveForwardRefs()
	c.reg.SetAreaSlots(a.Area, a.NextOff)
	scope.Complete(c.ctx)

	// Procedure declarations, depth-first, each scope analyzed only
	// after its parent completed (the resolution order the concurrent
	// compiler guarantees through DKY handling).
	c.walkChildren(env, a.Children)

	// Module body last (it is the paper's main-module statement
	// analysis / code generation task).
	if m.Body != nil {
		bodyMeta := sema.NewBodyMeta(env)
		c.genQueue = append(c.genQueue, genItem{
			env: env, scope: scope, meta: bodyMeta, frameBase: 0, body: m.Body,
		})
	}

	for _, g := range c.genQueue {
		if g.sig != nil {
			codegen.Compile(g.env, g.scope, g.meta, g.sig.Type, g.frameBase, g.body)
		} else {
			codegen.Compile(g.env, g.scope, g.meta, nil, g.frameBase, g.body)
		}
	}
}

// walkChildren analyzes procedure scopes recursively and queues their
// bodies for code generation.
func (c *compiler) walkChildren(env *sema.Env, children []*sema.ChildProc) {
	for _, child := range children {
		a := sema.NewProcAnalyzer(env, child)
		a.Analyze(child.Decl.Decls)
		a.ResolveForwardRefs()
		child.Scope.Complete(c.ctx)
		c.genQueue = append(c.genQueue, genItem{
			env: env, scope: child.Scope, meta: child.Meta, sig: child.Sym,
			frameBase: a.NextOff, body: child.Decl.Body,
		})
		c.walkChildren(env, a.Children)
	}
}

// CompileAndLink compiles the main module plus the implementation of
// every transitively imported module that has one, and links them.
func CompileAndLink(main string, loader source.Loader) (*vm.Program, *diag.Bag, error) {
	diags := diag.NewBag(200)
	objects, err := CompileAll(main, loader, diags)
	if err != nil {
		return nil, diags, err
	}
	if diags.HasErrors() {
		return nil, diags, fmt.Errorf("compilation of %s failed", main)
	}
	prog, err := vm.Link(objects, main)
	return prog, diags, err
}

// CompileAll compiles main and every reachable implementation module,
// merging diagnostics into diags.  Modules without a .mod file are
// interface-only and skipped.
func CompileAll(main string, loader source.Loader, diags *diag.Bag) ([]*vm.Object, error) {
	var objects []*vm.Object
	seen := map[string]bool{}
	queue := []string{main}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		seen[name] = true
		if _, err := loader.Load(name, source.Impl); err != nil {
			if name == main {
				return nil, fmt.Errorf("main module %s has no implementation", main)
			}
			continue
		}
		res := Compile(name, loader)
		for _, d := range res.Diags.Sorted() {
			if d.Sev == diag.Error {
				diags.Errorf(d.File, d.Pos, "%s", d.Msg)
			} else {
				diags.Warnf(d.File, d.Pos, "%s", d.Msg)
			}
		}
		objects = append(objects, res.Object)
		queue = append(queue, res.Object.Imports...)
	}
	return objects, nil
}
