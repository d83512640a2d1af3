package check

import (
	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/parser"
	"m2cc/internal/source"
	"m2cc/internal/vm"
)

// SourceUnits parses the named implementation module and its
// transitive interface closure from source and decomposes them into
// analysis units exactly as the concurrent compiler's stream split
// would: one ModuleUnit for the main module, one ProcUnit per
// procedure body (with the splitter's scope paths, so nested
// procedures nest their paths), one DefUnit per definition module.
// Unloadable or unparseable files contribute whatever units still
// parse; the compiler proper owns error reporting.
func SourceUnits(module string, loader source.Loader) []*Unit {
	units, _ := sourceUnits(module, loader)
	return units
}

// sourceUnits is SourceUnits that also returns the errors at procedures
// nested past parser.MaxProcNesting, whose bodies no unit covers.
func sourceUnits(module string, loader source.Loader) (units []*Unit, deep []diag.Diagnostic) {
	files := source.NewSet()
	ctx := &ctrace.TaskCtx{}
	parse := func(name string, kind source.FileKind) *ast.Module {
		text, err := loader.Load(name, kind)
		if err != nil {
			return nil
		}
		f := files.Add(name, kind, text)
		diags := diag.NewBag(0)
		toks := lexer.ScanAll(f, ctx, diags)
		m := parser.New(parser.NewSliceSource(toks), f.Label(), ctx, diags).ParseUnit()
		for _, d := range diags.Sorted() {
			if d.Msg == parser.ErrProcNesting {
				deep = append(deep, d)
			}
		}
		return m
	}

	seen := map[string]bool{}
	var defQueue []string
	addDef := func(name string) {
		if !seen[name] {
			seen[name] = true
			defQueue = append(defQueue, name)
		}
	}
	importNames := func(imps []*ast.Import) []string {
		var out []string
		for _, imp := range imps {
			if imp.From.Text != "" {
				out = append(out, imp.From.Text)
				continue
			}
			for _, n := range imp.Names {
				out = append(out, n.Text)
			}
		}
		return out
	}

	m := parse(module, source.Impl)
	// The compiler optimistically prefetches the module's own interface
	// (§3); a program module without one simply contributes no unit.
	addDef(module)
	if m != nil {
		file := module + ".mod"
		units = append(units, &Unit{
			Kind: ModuleUnit, File: file, Module: module, Path: file,
			Imports: m.Imports, Decls: m.Decls, Body: m.Body,
		})
		// explode replicates the splitter's stream paths: the file's, ':',
		// then the procedure's registry path, its dot-joined nesting
		// ("P", "P.Q").  A nested procedure's path extends its parent's
		// bytes when it is the next one made.
		var paths vm.Chain
		var explode func(decls []ast.Decl, parent, sep string)
		explode = func(decls []ast.Decl, parent, sep string) {
			for _, d := range decls {
				pd, ok := d.(*ast.ProcDecl)
				if !ok || pd.HeadingOnly {
					continue
				}
				path := paths.Join(parent, sep, pd.Head.Name.Text)
				units = append(units, &Unit{
					Kind: ProcUnit, File: file, Module: module, Path: path,
					ProcName: pd.Head.Name.Text, Head: pd.Head,
					Decls: pd.Decls, Body: pd.Body,
				})
				explode(pd.Decls, path, ".")
			}
		}
		explode(m.Decls, file, ":")
		for _, imp := range importNames(m.Imports) {
			addDef(imp)
		}
	}
	for i := 0; i < len(defQueue); i++ {
		name := defQueue[i]
		dm := parse(name, source.Def)
		if dm == nil {
			continue
		}
		units = append(units, &Unit{
			Kind: DefUnit, File: name + ".def", Module: name, Path: name + ".def",
			Imports: dm.Imports, Decls: dm.Decls,
		})
		for _, imp := range importNames(dm.Imports) {
			addDef(imp)
		}
	}
	return units, deep
}

// Analyze is the sequential single-pass analyzer: parse from source,
// analyze every unit in order, merge.  The concurrent checker's
// findings are byte-identical to this on every schedule, DKY strategy
// and worker count — the property the differential tests enforce.
func Analyze(module string, loader source.Loader) []diag.Diagnostic {
	units, deep := sourceUnits(module, loader)
	return diag.SortDedup(append(Run(units), deep...))
}
