// Package check is the concurrent static-analysis (lint) subsystem.
//
// The paper's stream split fits analysis as well as it fits
// compilation: the per-unit intraprocedural passes (uninitialized-
// variable dataflow over a small CFG, unreachable code after
// RETURN/EXIT/RAISE) run in one Supervisor task per stream — an
// analysis task for the main module and each procedure, a definition
// module's own DefParse task — while the cross-module passes
// (unused imports, unused locals/params, exported-but-never-referenced
// symbols, call-graph reachability from the main module) work on
// per-stream fact tables merged by a barrier task gated on every
// analysis task's completion event.  Analysis tasks are first-class
// Supervisor citizens, so their cost shows up in obs spans, -profile
// blame and the internal/sim cost model (KindAnalysis work units).
//
// Determinism: a unit's facts are computed from its AST alone — no
// symbol-table probes, no cross-stream reads — so the fact tables are
// schedule-independent and the merged findings are byte-identical to
// the sequential single-pass baseline (Analyze) under every DKY
// strategy and worker count.  All set logic in the merge is
// order-insensitive and the result is diag.SortDedup'ed.
//
// Fault containment: an analysis task recovers its own panics before
// the Supervisor's isolation layer can see them, marks the checker
// faulted, and the merge re-runs every registered unit sequentially —
// a crashed lint stream degrades to the sequential analyzer without
// poisoning the compilation or sibling findings.
package check

import (
	"cmp"
	"fmt"
	"strings"
	"sync"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/faultinject"
	"m2cc/internal/token"
)

// UnitKind classifies analysis units, mirroring the compiler's streams.
type UnitKind uint8

const (
	// ModuleUnit is the main module stream: module-level declarations
	// and the initialization body.
	ModuleUnit UnitKind = iota
	// ProcUnit is one procedure stream.
	ProcUnit
	// DefUnit is one definition-module stream.
	DefUnit
)

// Unit is one stream's analyzable slice of the program.  The AST
// fields are read-only after parsing, so units may be analyzed
// concurrently with code generation.  Nested procedure declarations
// inside Decls are never descended into beyond their heading — in the
// concurrent compiler the nested body belongs to another stream's
// unit, and the sequential decomposition (SourceUnits) follows the
// same rule so both modes see identical shapes.
type Unit struct {
	Kind     UnitKind
	File     string // file label, e.g. "M.mod" or "M.def"
	Module   string // module the unit belongs to
	Path     string // deterministic scope path: "M.mod", "M.mod:P", "M.mod:P.Q", "M.def" (file, then registry name)
	ProcName string // procedure's simple name (ProcUnit)
	Head     *ast.ProcHead
	Imports  []*ast.Import
	Decls    []ast.Decl
	Body     *ast.StmtList
}

// ImportFact is one imported name as the cross-module passes see it:
// the name (with its source position, for the warning anchor) and
// whether it came from a FROM import (an identifier) or a plain IMPORT
// (a module name).
type ImportFact struct {
	Name ast.Name
	From bool
}

// Facts is one unit's published fact table: the identifier mention set
// consumed by the cross-module passes, the intraprocedural findings
// computed stream-locally, and every AST-derived datum the merge's
// cross-module rules need.  A Facts value deliberately holds no AST
// pointers — everything is extracted at analysis time — so the stream
// cache (internal/streamcache) can store a procedure stream's table and
// replay it on a later compilation whose stream never parsed at all.
type Facts struct {
	Kind     UnitKind
	File     string // file label, e.g. "M.mod"
	Module   string
	Path     string   // deterministic scope path (Unit.Path)
	ProcName string   // procedure's simple name (ProcUnit)
	HeadName ast.Name // heading name with position (ProcUnit with a head)
	HasHead  bool

	Mentions map[string]bool
	Findings []diag.Diagnostic

	Locals    []ast.Name   // ProcUnit: declared local variable names
	Params    []ast.Name   // ProcUnit: declared parameter names
	Imports   []ImportFact // imported names, FROM-ness preserved
	DeclNames []ast.Name   // DefUnit: exported top-level names
	ProcDecls []string     // DefUnit: exported procedure names (reachability roots)

	Conc *ConcFacts // concurrency summary for the interprocedural lockset pass

	Nodes int // AST nodes visited (deterministic analysis cost)
}

// analyzeUnit runs the per-stream passes on one unit and extracts the
// AST-free fact table.
func analyzeUnit(u *Unit) *Facts {
	w := newWalker()
	w.decls(u.Decls)
	w.stmts(u.Body)
	f := &Facts{
		Kind: u.Kind, File: u.File, Module: u.Module, Path: u.Path,
		ProcName: u.ProcName, Mentions: w.mentions, Nodes: w.nodes,
	}
	if u.Head != nil {
		f.HasHead = true
		f.HeadName = u.Head.Name
	}
	unreachable(u.Body, func(pos token.Pos) {
		f.Findings = append(f.Findings, diag.Diagnostic{
			Sev: diag.Warning, Pos: pos, File: u.File, Msg: "unreachable statement",
			Code: CodeUnreachable,
		})
	})
	if u.Body != nil {
		g := buildCFG(u)
		g.solve(func(name string, pos token.Pos) {
			f.Findings = append(f.Findings, diag.Diagnostic{
				Sev: diag.Warning, Pos: pos, End: nameEnd(name, pos), File: u.File,
				Msg:  fmt.Sprintf("variable %s may be used before initialization", name),
				Code: CodeUninit,
			})
		})
	}
	f.Conc = concAnalyze(u)
	if u.Kind == ProcUnit {
		for _, d := range u.Decls {
			if vd, ok := d.(*ast.VarDecl); ok {
				f.Locals = append(f.Locals, vd.Names...)
			}
		}
		if u.Head != nil {
			for _, sec := range u.Head.Params {
				f.Params = append(f.Params, sec.Names...)
			}
		}
	}
	for _, imp := range u.Imports {
		for _, n := range imp.Names {
			f.Imports = append(f.Imports, ImportFact{Name: n, From: imp.From.Text != ""})
		}
	}
	if u.Kind == DefUnit {
		for _, d := range u.Decls {
			f.DeclNames = append(f.DeclNames, declNames(d)...)
			if pd, ok := d.(*ast.ProcDecl); ok {
				f.ProcDecls = append(f.ProcDecls, pd.Head.Name.Text)
			}
		}
	}
	return f
}

// nameEnd extends a name's start position to its exclusive end column,
// giving findings a full line+column span.
func nameEnd(name string, pos token.Pos) token.Pos {
	if !pos.IsValid() {
		return token.Pos{}
	}
	pos.Col += int32(len(name))
	return pos
}

// Run analyzes every unit sequentially and merges the fact tables —
// the single-pass baseline the concurrent checker must byte-match, and
// the degraded path a faulted checker falls back to.
func Run(units []*Unit) []diag.Diagnostic {
	fs := make([]*Facts, 0, len(units))
	for _, u := range units {
		fs = append(fs, analyzeUnit(u))
	}
	return mergeFacts(fs)
}

// Checker accumulates per-stream fact tables for one concurrent
// compilation.  AddUnit registers a unit when its stream's parse
// completes; RunUnit is the analysis task's body; Merge joins the
// tables at the barrier.  All methods are safe for concurrent use.
type Checker struct {
	inject *faultinject.Plan

	mu      sync.Mutex // guards: units, fs, pinned, faulted
	units   []*Unit
	fs      []*Facts
	pinned  []*Facts // cached streams' replayed tables (streamcache); survive a faulted re-analysis
	faulted bool
}

// NewChecker returns a checker; plan (may be nil) supplies the
// PanicCheck injection point.
func NewChecker(plan *faultinject.Plan) *Checker {
	return &Checker{inject: plan}
}

// AddUnit registers a unit before its analysis task is spawned, so a
// faulted checker can still re-analyze every unit sequentially.
func (c *Checker) AddUnit(u *Unit) {
	c.mu.Lock()
	c.units = append(c.units, u)
	c.mu.Unlock()
}

// RunUnit is the analysis task body: analyze one unit and publish its
// fact table, which is also returned so the stream cache can record it
// (nil when the analysis panicked).  A panic (including an injected
// PanicCheck) is recovered here — before the Supervisor's isolation
// layer sees it — so a dead lint stream marks the checker faulted
// instead of poisoning the compilation.
func (c *Checker) RunUnit(ctx *ctrace.TaskCtx, u *Unit) (out *Facts) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			c.mu.Lock()
			c.faulted = true
			c.mu.Unlock()
		}
	}()
	c.inject.Panic(faultinject.PanicCheck, u.Path)
	f := analyzeUnit(u)
	ctx.Add(float64(f.Nodes) * ctrace.CostAnalysisNode)
	c.mu.Lock()
	c.fs = append(c.fs, f)
	c.mu.Unlock()
	return f
}

// AddPinned registers a fact table replayed from the stream cache for a
// stream that never parsed this compilation.  Pinned tables join the
// merge alongside freshly computed ones and — unlike them — survive a
// faulted checker's sequential re-analysis, which can only re-run units
// that have ASTs.
func (c *Checker) AddPinned(f *Facts) {
	c.mu.Lock()
	c.pinned = append(c.pinned, f)
	c.mu.Unlock()
}

// Faulted reports whether any analysis task panicked (the merge then
// re-ran the sequential analyzer over the registered units).
func (c *Checker) Faulted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faulted
}

// Merge joins the published fact tables into the final findings.  If
// any analysis task faulted — or the merge's own interprocedural fixed
// point panics mid-flight (injected PanicConcMerge) — the concurrent
// tables are discarded and every registered unit is re-analyzed
// sequentially with a clean merge, so a crashed stream or a crashed
// barrier both degrade to the sequential analyzer with byte-identical
// output.  Never returns nil.
func (c *Checker) Merge(ctx *ctrace.TaskCtx) []diag.Diagnostic {
	c.mu.Lock()
	faulted := c.faulted
	fs := append([]*Facts(nil), c.fs...)
	units := append([]*Unit(nil), c.units...)
	pinned := append([]*Facts(nil), c.pinned...)
	c.mu.Unlock()
	if !faulted {
		if out, ok := c.tryMerge(ctx, append(fs, pinned...)); ok {
			return out
		}
		c.mu.Lock()
		c.faulted = true
		c.mu.Unlock()
	}
	fs = fs[:0]
	for _, u := range units {
		f := analyzeUnit(u)
		ctx.Add(float64(f.Nodes) * ctrace.CostAnalysisNode)
		fs = append(fs, f)
	}
	fs = append(fs, pinned...)
	out := mergeFacts(fs)
	ctx.Add(float64(len(fs)+len(out)) * ctrace.CostAnalysisFact)
	return out
}

// tryMerge runs the merge with the checker's injection plan armed,
// converting a panic inside the merge barrier into a faulted signal
// instead of letting it poison the compilation.
func (c *Checker) tryMerge(ctx *ctrace.TaskCtx, fs []*Facts) (out []diag.Diagnostic, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			out, ok = nil, false
		}
	}()
	out = mergeFactsPlan(fs, c.inject)
	ctx.Add(float64(len(fs)+len(out)) * ctrace.CostAnalysisFact)
	return out, true
}

// mergeFacts runs the cross-module passes over the fact tables and
// returns the sorted, deduplicated findings.  Every rule is a set
// membership test, so the result is independent of table order; every
// rule reads the Facts fields alone, never an AST, so cached tables
// (streamcache) merge exactly like fresh ones.
func mergeFacts(fs []*Facts) []diag.Diagnostic {
	return mergeFactsPlan(fs, nil)
}

// mergeFactsPlan is mergeFacts with a fault-injection plan supplying
// the PanicConcMerge point inside the interprocedural fixed point.
func mergeFactsPlan(fs []*Facts, plan *faultinject.Plan) []diag.Diagnostic {
	out := []diag.Diagnostic{}
	for _, f := range fs {
		out = append(out, f.Findings...)
	}

	warn := func(code, file string, n ast.Name, msg string) {
		out = append(out, diag.Diagnostic{
			Sev: diag.Warning, Pos: n.Pos, End: nameEnd(n.Text, n.Pos),
			File: file, Msg: msg, Code: code,
		})
	}
	// mentionedUnder: name is mentioned by unit u or any unit at its
	// path or a descendant scope (nested procedure streams).  The units
	// are indexed by path and by their parent scope's path at the first
	// need, so a scope's units are found without a scan of all.
	var at, kids map[string][]*Facts
	var under func(name, path string) bool
	under = func(name, path string) bool {
		for _, f := range at[path] {
			if f.Mentions[name] {
				return true
			}
		}
		for _, f := range kids[path] {
			if under(name, f.Path) {
				return true
			}
		}
		return false
	}
	mentionedUnder := func(name string, u *Facts) bool {
		if u.Mentions[name] {
			return true
		}
		if at == nil {
			at, kids = make(map[string][]*Facts, len(fs)), make(map[string][]*Facts, len(fs))
			for _, f := range fs {
				at[f.Path] = append(at[f.Path], f)
				if p, ok := parentPath(f.Path); ok {
					kids[p] = append(kids[p], f)
				}
			}
		}
		return under(name, u.Path)
	}
	// One index per merge, so that a module-wide rule is a lookup, not a
	// scan of every unit: an import, by name and importing module, is true
	// once a unit of that module mentions it; an exported name keeps the
	// first unit mentioning it (1 + its index, 0 for none) and whether a
	// unit of another module does too.
	type mentioners struct {
		first int32
		more  bool
	}
	var nImp, nExp int
	for _, f := range fs {
		nImp, nExp = nImp+len(f.Imports), nExp+len(f.DeclNames)
	}
	imported, exported := make(map[[2]string]bool, nImp), make(map[string]mentioners, nExp)
	for _, f := range fs {
		for _, imp := range f.Imports {
			imported[[2]string{imp.Name.Text, f.Module}] = false
		}
		for _, n := range f.DeclNames {
			exported[n.Text] = mentioners{}
		}
	}
	for i, f := range fs {
		for name := range f.Mentions {
			if _, ok := imported[[2]string{name, f.Module}]; ok {
				imported[[2]string{name, f.Module}] = true
			}
			if m, ok := exported[name]; ok && (m.first == 0 || fs[m.first-1].Module != f.Module) {
				exported[name] = mentioners{cmp.Or(m.first, int32(i+1)), m.first != 0}
			}
		}
	}

	var root *Facts
	for _, f := range fs {
		if f.Kind == ModuleUnit {
			root = f
		}
	}
	rootModule := ""
	if root != nil {
		rootModule = root.Module
	}

	for _, f := range fs {
		// Unused locals and parameters (procedure streams).  A name is
		// "used" if mentioned anywhere in the procedure or a nested
		// procedure — conservative under shadowing, so never a false
		// positive.
		if f.Kind == ProcUnit {
			for _, n := range f.Locals {
				if !mentionedUnder(n.Text, f) {
					warn(CodeUnusedLocal, f.File, n, "local variable "+n.Text+" is declared but never used")
				}
			}
			for _, n := range f.Params {
				if !mentionedUnder(n.Text, f) {
					warn(CodeUnusedParam, f.File, n, "parameter "+n.Text+" is declared but never used")
				}
			}
		}
		// Unused imports.  Checked against the whole importing module
		// (a .def's imports are visible to its implementation through
		// the scope chain).
		for _, imp := range f.Imports {
			if imported[[2]string{imp.Name.Text, f.Module}] {
				continue
			}
			if imp.From {
				warn(CodeUnusedImport, f.File, imp.Name, "imported identifier "+imp.Name.Text+" is never used")
			} else {
				warn(CodeUnusedImport, f.File, imp.Name, "import "+imp.Name.Text+" is never used")
			}
		}
	}

	// Exported-but-never-referenced symbols: every top-level name in a
	// definition module is exported; one nobody outside its module
	// mentions is dead interface surface for this program.  The root
	// module's own interface is exempt — its clients are outside this
	// compilation.
	for _, f := range fs {
		if f.Kind != DefUnit || f.Module == rootModule {
			continue
		}
		for _, n := range f.DeclNames {
			if m := exported[n.Text]; !m.more && (m.first == 0 || fs[m.first-1].Module == f.Module) {
				warn(CodeUnusedExport, f.File, n, "exported "+n.Text+" is never referenced in this compilation")
			}
		}
	}

	// Call-graph reachability from the main module: roots are the main
	// stream's mentions plus the procedures the root interface exports;
	// an edge U→P exists when a reached unit mentions P's name.  The
	// name-based graph over-approximates calls, so "never called" has
	// no false positives.
	if root != nil {
		byName := map[string][]*Facts{}
		var procs []*Facts
		for _, f := range fs {
			if f.Kind == ProcUnit && f.Module == rootModule {
				procs = append(procs, f)
				byName[f.ProcName] = append(byName[f.ProcName], f)
			}
		}
		reached := map[*Facts]bool{}
		var queue []string
		for name := range root.Mentions {
			queue = append(queue, name)
		}
		for _, f := range fs {
			if f.Kind == DefUnit && f.Module == rootModule {
				queue = append(queue, f.ProcDecls...)
			}
		}
		for len(queue) > 0 {
			name := queue[0]
			queue = queue[1:]
			for _, p := range byName[name] {
				if reached[p] {
					continue
				}
				reached[p] = true
				for m := range p.Mentions {
					queue = append(queue, m)
				}
			}
		}
		for _, p := range procs {
			if !reached[p] && p.HasHead {
				warn(CodeNeverCalled, p.File, p.HeadName, "procedure "+p.ProcName+" is declared but never called")
			}
		}
	}

	out = append(out, concMerge(fs, plan)...)
	return diag.SortDedup(out)
}

// nestedIn reports whether path names a scope strictly inside anc's
// ("M.mod:P.Q" inside "M.mod:P" and "M.mod"), without building
// anc+".".
func nestedIn(path, anc string) bool {
	return len(path) > len(anc) && (path[len(anc)] == ':' || path[len(anc)] == '.') && path[:len(anc)] == anc
}

// parentPath returns the path of the scope enclosing a procedure's:
// its registry name less the last component, or its file's.
func parentPath(path string) (string, bool) {
	i := strings.IndexByte(path, ':')
	if i < 0 {
		return "", false
	}
	if j := strings.LastIndexByte(path, '.'); j > i {
		return path[:j], true
	}
	return path[:i], true
}

// declNames lists the names a declaration introduces.
func declNames(d ast.Decl) []ast.Name {
	switch d := d.(type) {
	case *ast.ConstDecl:
		return []ast.Name{d.Name}
	case *ast.TypeDecl:
		return []ast.Name{d.Name}
	case *ast.VarDecl:
		return d.Names
	case *ast.ExceptionDecl:
		return d.Names
	case *ast.ProcDecl:
		return []ast.Name{d.Head.Name}
	}
	return nil
}
