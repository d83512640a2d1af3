package check

import (
	"fmt"
	"sort"
	"strings"

	"m2cc/internal/ast"
	"m2cc/internal/diag"
	"m2cc/internal/faultinject"
	"m2cc/internal/token"
)

// The lockset analysis is the checker's first interprocedural pass
// family: Modula-2+'s LOCK mutex DO … END monitors are tracked per
// stream and joined at the merge barrier.
//
// Per unit, a structural walk over the body maintains the syntactic
// lockset — the stack of mutexes held at each point — and records an
// AST-free concurrency summary in Facts.Conc: every mutex acquisition
// with the set already held, every access to a potentially
// module-level variable with the lockset at the access, and every
// simple-name call with the lockset at the call.  The syntactic
// nesting is exact for Modula-2+ because LOCK is a monitor region: a
// RAISE that unwinds out of a LOCK releases its mutex before an
// enclosing TRY handler runs, so a handler's lockset is the lockset at
// its TRY statement — which is precisely the syntactic lockset where
// the handler appears.  Walking TRY handlers, ELSE and FINALLY parts
// under the enclosing lockset therefore models every unwind path
// without a separate exceptional CFG.
//
// Mutex identity is the qualified designator's text ("mu", "state.mu",
// "Sync.guard").  Only designators made of a head name and field
// selectors are canonical; an indexed or dereferenced mutex
// (arr[i], p^) has no static identity — two occurrences may be
// different mutexes at run time — so it contributes no acquisition
// facts, and the region it guards is held under an opaque token that
// never matches a canonical mutex (the accesses inside are protected
// by *something*, so they are not bare, but they witness no guard
// either).  This keeps every rule free of false positives.
//
// At the merge barrier, a fixed point over the PR 5 name-based call
// graph propagates calling-context locksets: the module body and the
// root interface's exported procedures start with the empty context,
// and a call to P under effective lockset L adds L to P's context set.
// The lattice is the powerset of locksets over the program's canonical
// mutexes ordered by inclusion; propagation only ever adds elements,
// so the fixed point is reached regardless of iteration order and the
// result — like every other merge rule — is schedule-independent.
// Three finding families fall out:
//
//	conc-guard        a module-level VAR accessed under a mutex in one
//	                  place and with an empty effective lockset in
//	                  another (at least one of the two a write) — a
//	                  static race.  Module-body accesses are exempt as
//	                  bare witnesses: initialization runs before any
//	                  concurrency exists.
//	conc-deadlock     a cycle in the global lock-order graph (edge
//	                  a→b when b is acquired while a is held,
//	                  including through calls), reported with the
//	                  witnessing acquisition path.
//	conc-double-lock  a mutex acquired while already held — Modula-2+
//	                  mutexes are not reentrant.

// Finding-family codes (diag.Diagnostic.Code) emitted by the analyzer.
const (
	CodeUninit       = "uninit"
	CodeUnreachable  = "unreachable"
	CodeUnusedLocal  = "unused-local"
	CodeUnusedParam  = "unused-param"
	CodeUnusedImport = "unused-import"
	CodeUnusedExport = "unused-export"
	CodeNeverCalled  = "never-called"
	CodeConcGuard    = "conc-guard"
	CodeConcDeadlock = "conc-deadlock"
	CodeConcDouble   = "conc-double-lock"
)

// FindingCodes lists every finding-family code the analyzer can emit,
// in a fixed documentation order (m2c validates its -enable/-disable
// lint filters against it).
func FindingCodes() []string {
	return []string{
		CodeUninit, CodeUnreachable, CodeUnusedLocal, CodeUnusedParam,
		CodeUnusedImport, CodeUnusedExport, CodeNeverCalled,
		CodeConcGuard, CodeConcDeadlock, CodeConcDouble,
	}
}

// ConcFacts is one unit's concurrency summary: everything the merge's
// interprocedural lockset pass needs, and nothing that points into the
// AST — like the rest of Facts it must replay bit-for-bit from the
// stream cache.
type ConcFacts struct {
	ModuleVars []ast.Name    // ModuleUnit/DefUnit: module-level VAR names (shared-variable roots)
	Acquires   []ConcAcquire // LOCK statements with a canonical mutex, walk order
	Accesses   []ConcAccess  // reads/writes of potentially module-level names, walk order
	Calls      []ConcCall    // simple-name calls, walk order
}

// ConcAcquire is one LOCK of a canonical mutex.
type ConcAcquire struct {
	Mutex string    // canonical designator identity, e.g. "mu" or "state.mu"
	Held  []string  // lockset already held at the acquisition (sorted, deduped)
	Pos   token.Pos // the LOCK statement
}

// ConcAccess is one read or write of a name that may denote a
// module-level variable (any simple name the unit does not itself
// declare; the merge intersects with the module's VAR names and
// discards names shadowed by an enclosing procedure).
type ConcAccess struct {
	Name  string
	Write bool
	Held  []string // lockset held at the access (sorted, deduped)
	Pos   token.Pos
}

// ConcCall is one call through a bare name (the PR 5 call-graph edge),
// annotated with the lockset held at the call site.
type ConcCall struct {
	Callee string
	Held   []string // lockset held at the call (sorted, deduped)
	Pos    token.Pos
}

// opaqueMutex stands in the held set for a mutex with no static
// identity (indexed or dereferenced, or not a designator at all).  The
// leading '\x00' keeps it out of the canonical namespace: it can never
// collide with source identifiers, contributes no lock-order edges,
// and is filtered from every message.
const opaqueMutex = "\x00?"

// concWalker builds one unit's ConcFacts.
type concWalker struct {
	facts ConcFacts
	held  []string        // acquisition-ordered lockset stack (may repeat)
	local map[string]bool // names the unit declares (excluded from accesses)
}

// concAnalyze extracts the concurrency summary for one unit; it runs
// inside the per-stream analysis task, so its cost is charged to the
// stream like the other intraprocedural passes.
func concAnalyze(u *Unit) *ConcFacts {
	w := &concWalker{local: map[string]bool{}}
	for _, d := range u.Decls {
		if vd, ok := d.(*ast.VarDecl); ok && (u.Kind == ModuleUnit || u.Kind == DefUnit) {
			w.facts.ModuleVars = append(w.facts.ModuleVars, vd.Names...)
		}
		if u.Kind == ProcUnit {
			for _, n := range declNames(d) {
				w.local[n.Text] = true
			}
		}
	}
	if u.Kind == ProcUnit && u.Head != nil {
		for _, sec := range u.Head.Params {
			for _, n := range sec.Names {
				w.local[n.Text] = true
			}
		}
	}
	w.stmts(u.Body)
	return &w.facts
}

// heldSet snapshots the current lockset, sorted and deduped — the
// canonical form every set rule in the merge compares.
func (w *concWalker) heldSet() []string {
	if len(w.held) == 0 {
		return nil
	}
	out := append([]string(nil), w.held...)
	sort.Strings(out)
	j := 0
	for i, m := range out {
		if i > 0 && m == out[j-1] {
			continue
		}
		out[j] = m
		j++
	}
	return out[:j]
}

// mutexName renders a LOCK's mutex expression as its canonical
// identity, or "" when the mutex has no static identity.
func mutexName(e ast.Expr) string {
	d, ok := e.(*ast.Designator)
	if !ok {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(d.Head.Text)
	for _, sel := range d.Sels {
		fs, ok := sel.(*ast.FieldSel)
		if !ok {
			return "" // indexed or dereferenced: no static identity
		}
		sb.WriteByte('.')
		sb.WriteString(fs.Name.Text)
	}
	return sb.String()
}

func (w *concWalker) access(name string, write bool, pos token.Pos) {
	if name == "" || w.local[name] {
		return
	}
	w.facts.Accesses = append(w.facts.Accesses, ConcAccess{
		Name: name, Write: write, Held: w.heldSet(), Pos: pos,
	})
}

func (w *concWalker) stmts(l *ast.StmtList) {
	if l == nil {
		return
	}
	for _, s := range l.Stmts {
		w.stmt(s)
	}
}

func (w *concWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.expr(s.RHS)
		if s.LHS != nil {
			for _, sel := range s.LHS.Sels {
				if ix, ok := sel.(*ast.IndexSel); ok {
					for _, e := range ix.Indexes {
						w.expr(e)
					}
				}
			}
			// Assigning through selectors still mutates the named
			// object; component granularity is out of scope.
			w.access(s.LHS.Head.Text, true, s.LHS.Head.Pos)
		}
	case *ast.CallStmt:
		w.call(s.Proc, s.Args)
	case *ast.IfStmt:
		w.expr(s.Cond)
		w.stmts(s.Then)
		for _, e := range s.Elsifs {
			w.expr(e.Cond)
			w.stmts(e.Then)
		}
		w.stmts(s.Else)
	case *ast.CaseStmt:
		w.expr(s.Expr)
		for _, arm := range s.Arms {
			w.stmts(arm.Body)
		}
		w.stmts(s.Else)
	case *ast.WhileStmt:
		w.expr(s.Cond)
		w.stmts(s.Body)
	case *ast.RepeatStmt:
		w.stmts(s.Body)
		w.expr(s.Cond)
	case *ast.LoopStmt:
		w.stmts(s.Body)
	case *ast.ForStmt:
		w.expr(s.From)
		w.expr(s.To)
		w.expr(s.By)
		w.access(s.Var.Text, true, s.Var.Pos)
		w.stmts(s.Body)
	case *ast.WithStmt:
		w.desig(s.Rec, false)
		w.stmts(s.Body)
	case *ast.ReturnStmt:
		w.expr(s.Expr)
	case *ast.TryStmt:
		// Handlers, ELSE and FINALLY run under the lockset held at the
		// TRY statement: any LOCK entered inside the protected body is
		// released during the unwind before control reaches them, so
		// the enclosing (current) lockset is exact — see the package
		// comment above.
		w.stmts(s.Body)
		for _, h := range s.Handlers {
			w.stmts(h.Body)
		}
		w.stmts(s.Else)
		w.stmts(s.Finally)
	case *ast.LockStmt:
		name := mutexName(s.Mutex)
		w.expr(s.Mutex)
		if name != "" {
			w.facts.Acquires = append(w.facts.Acquires, ConcAcquire{
				Mutex: name, Held: w.heldSet(), Pos: s.Pos,
			})
			w.held = append(w.held, name)
		} else {
			w.held = append(w.held, opaqueMutex)
		}
		w.stmts(s.Body)
		w.held = w.held[:len(w.held)-1]
	}
}

// call records the call-graph edge and the accesses its arguments
// perform.  A bare designator in argument position may bind to a VAR
// parameter the callee assigns, so it counts as a write (matching the
// uninitialized-variable CFG's conservatism).
func (w *concWalker) call(fun *ast.Designator, args []ast.Expr) {
	if fun != nil && len(fun.Sels) == 0 {
		w.facts.Calls = append(w.facts.Calls, ConcCall{
			Callee: fun.Head.Text, Held: w.heldSet(), Pos: fun.Head.Pos,
		})
	} else {
		w.desig(fun, false)
	}
	for _, a := range args {
		if d, ok := a.(*ast.Designator); ok && len(d.Sels) == 0 {
			w.access(d.Head.Text, true, d.Head.Pos)
			continue
		}
		w.expr(a)
	}
}

func (w *concWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.SetExpr:
		for _, el := range e.Elems {
			w.expr(el.Lo)
			w.expr(el.Hi)
		}
	case *ast.Designator:
		w.desig(e, false)
	case *ast.CallExpr:
		w.call(e.Fun, e.Args)
	}
}

func (w *concWalker) desig(d *ast.Designator, write bool) {
	if d == nil {
		return
	}
	w.access(d.Head.Text, write, d.Head.Pos)
	for _, sel := range d.Sels {
		if ix, ok := sel.(*ast.IndexSel); ok {
			for _, e := range ix.Indexes {
				w.expr(e)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Merge-barrier fixed point

// lsKey is a lockset's canonical key: its sorted members joined by
// '\x01' (which no identifier contains).
func lsKey(ls []string) string { return strings.Join(ls, "\x01") }

func lsFromKey(k string) []string {
	if k == "" {
		return nil
	}
	return strings.Split(k, "\x01")
}

// lsUnion unions two canonical (sorted, deduped) locksets into a new
// canonical lockset.
func lsUnion(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Strings(out)
	j := 0
	for i, m := range out {
		if i > 0 && m == out[j-1] {
			continue
		}
		out[j] = m
		j++
	}
	return out[:j]
}

func lsContains(ls []string, m string) bool {
	for _, x := range ls {
		if x == m {
			return true
		}
	}
	return false
}

// concSite is a source anchor ordered by (file label, line, column),
// the order a user reads findings in.
type concSite struct {
	file string
	pos  token.Pos
}

func (s concSite) before(o concSite) bool {
	if s.file != o.file {
		return s.file < o.file
	}
	return s.pos.Before(o.pos)
}

func (s concSite) String() string { return fmt.Sprintf("%s:%s", s.file, s.pos) }

// concCtxBudget caps the total number of calling contexts the merge
// fixed point tracks across all units.  Real monitor disciplines use a
// handful of locksets; only adversarial inputs approach the cap.
const concCtxBudget = 4096

// concMerge runs the interprocedural lockset pass over the fact
// tables and returns the concurrency findings (unsorted; the caller's
// SortDedup totals the order).  plan supplies the PanicConcMerge
// injection point and may be nil.  Every rule below is a set
// computation whose witnesses are chosen by deterministic minima, so
// the result is independent of table order — the same property the
// other merge rules rely on.
func concMerge(fs []*Facts, plan *faultinject.Plan) []diag.Diagnostic {
	var root *Facts
	for _, f := range visit(fs) {
		if f.Kind == ModuleUnit {
			root = f
		}
	}
	if root == nil || root.Conc == nil {
		return nil
	}
	rootModule := root.Module

	// Shared variables: the root module's own VARs plus the VARs its
	// interface exports.
	shared := map[string]bool{}
	for _, n := range root.Conc.ModuleVars {
		shared[n.Text] = true
	}
	for _, f := range visit(fs) {
		if f.Kind == DefUnit && f.Module == rootModule && f.Conc != nil {
			for _, n := range f.Conc.ModuleVars {
				shared[n.Text] = true
			}
		}
	}

	// Root-module procedure streams by simple name — the same
	// conservative name-based call graph as the reachability pass.
	byName := map[string][]*Facts{}
	var procs []*Facts
	for _, f := range visit(fs) {
		if f.Kind == ProcUnit && f.Module == rootModule && f.Conc != nil {
			procs = append(procs, f)
			byName[f.ProcName] = append(byName[f.ProcName], f)
		}
	}
	units := append([]*Facts{root}, procs...)

	// Context fixed point: ctx[f] is the set of locksets (as canonical
	// keys) f may execute under.  Roots: the module body and every
	// procedure the root interface exports run with the empty lockset.
	//
	// The context lattice is the powerset of locksets, so a hostile
	// input (deep call chains threading many mutexes) can blow the
	// fixed point up exponentially.  concCtxBudget bounds the total
	// number of contexts tracked: propagation runs in synchronous
	// rounds, each computed purely from the keys the previous round
	// added, with the budget checked only at round boundaries.  Once
	// it trips, propagation freezes.  The frozen state is a subset of
	// the genuine contexts — the pass may miss findings on such
	// inputs, never invent them — and because whole rounds are applied
	// atomically and the freeze decision depends only on a count, the
	// result is still independent of table order.
	ctx := map[*Facts]map[string]bool{}
	type ctxEntry struct {
		f   *Facts
		key string
	}
	total := 0
	var frontier []ctxEntry
	add := func(f *Facts, key string) {
		m := ctx[f]
		if m == nil {
			m = map[string]bool{}
			ctx[f] = m
		}
		if m[key] {
			return
		}
		m[key] = true
		total++
		frontier = append(frontier, ctxEntry{f, key})
	}
	add(root, "")
	for _, f := range visit(fs) {
		if f.Kind == DefUnit && f.Module == rootModule {
			for _, name := range f.ProcDecls {
				for _, p := range visit(byName[name]) {
					add(p, "")
				}
			}
		}
	}
	plan.Panic(faultinject.PanicConcMerge, rootModule)
	for {
		// Propagate contexts through calls to a fixed point.  The
		// accumulation is monotone (contexts are only ever added), so
		// the result does not depend on iteration order.
		for len(frontier) > 0 && total < concCtxBudget {
			round := frontier
			frontier = nil
			for _, e := range round {
				base := lsFromKey(e.key)
				for _, c := range e.f.Conc.Calls {
					eff := lsKey(lsUnion(base, c.Held))
					for _, p := range visit(byName[c.Callee]) {
						add(p, eff)
					}
				}
			}
		}
		// A procedure nothing reached may still be an entry point (the
		// reachability pass flags it separately): seed it with the
		// empty context and re-propagate, so a dead helper's callees
		// inherit its locks rather than a fabricated bare context.
		seeded := false
		for _, p := range visit(procs) {
			if ctx[p] == nil {
				add(p, "")
				seeded = true
			}
		}
		if !seeded {
			break
		}
	}

	// shadowed reports whether an enclosing procedure stream declares
	// name — a nested procedure's free name may bind to a parent's
	// local, which hides the module variable.  The procedure streams
	// declaring a shared name are collected once, so an access scans
	// only those.
	type decl struct{ path, name string }
	var hiders []decl
	for _, a := range visit(fs) {
		if a.Kind != ProcUnit {
			continue
		}
		for _, ns := range [2][]ast.Name{a.Locals, a.Params} {
			for _, n := range ns {
				if shared[n.Text] {
					hiders = append(hiders, decl{a.Path, n.Text})
				}
			}
		}
	}
	shadowed := func(f *Facts, name string) bool {
		for _, h := range visit(hiders) {
			if h.name == name && nestedIn(f.Path, h.path) {
				return true
			}
		}
		return false
	}

	var out []diag.Diagnostic

	// Effective accesses per shared variable, and — in the same sweep —
	// the lock-order edges and double acquisitions.
	type varAccess struct {
		site  concSite
		write bool
		eff   []string
		init  bool // module-body access: exempt as a bare witness
	}
	accByVar := map[string][]varAccess{}
	edges := map[lockEdge]concSite{} // earliest witnessing acquisition
	for _, f := range visit(units) {
		for key := range ctx[f] {
			base := lsFromKey(key)
			for _, a := range f.Conc.Accesses {
				if !shared[a.Name] || shadowed(f, a.Name) {
					continue
				}
				accByVar[a.Name] = append(accByVar[a.Name], varAccess{
					site:  concSite{f.File, a.Pos},
					write: a.Write,
					eff:   lsUnion(base, a.Held),
					init:  f.Kind == ModuleUnit,
				})
			}
			for _, aq := range f.Conc.Acquires {
				before := lsUnion(base, aq.Held)
				site := concSite{f.File, aq.Pos}
				if lsContains(before, aq.Mutex) {
					out = append(out, diag.Diagnostic{
						Sev: diag.Warning, Pos: aq.Pos, File: f.File, Code: CodeConcDouble,
						Msg: fmt.Sprintf("mutex %s is acquired while already held (MUTEX is not reentrant)", aq.Mutex),
					})
				}
				for _, h := range before {
					if h == opaqueMutex || h == aq.Mutex {
						continue
					}
					e := lockEdge{h, aq.Mutex}
					if cur, ok := edges[e]; !ok || site.before(cur) {
						edges[e] = site
					}
				}
			}
		}
	}

	// Guarded-by violations: a shared variable with both a
	// mutex-protected access and a bare one, at least one of them a
	// write.  The guard named in the message is the canonical mutex
	// held at the most protected accesses (ties to the smallest name) —
	// the analyst's best guess at the intended discipline; the witness
	// is its earliest protected site.
	varNames := make([]string, 0, len(accByVar))
	for v := range accByVar {
		varNames = append(varNames, v)
	}
	sort.Strings(varNames)
	for _, v := range varNames {
		accs := accByVar[v]
		guard := ""
		votes := map[string]int{}
		lockedWrite, bareWrite, haveBare := false, false, false
		for _, a := range accs {
			for _, m := range a.eff {
				if m == opaqueMutex {
					continue
				}
				votes[m]++
				if guard == "" || votes[m] > votes[guard] ||
					(votes[m] == votes[guard] && m < guard) {
					guard = m
				}
			}
			if len(a.eff) > 0 {
				if a.write {
					lockedWrite = true
				}
			} else if !a.init {
				haveBare = true
				if a.write {
					bareWrite = true
				}
			}
		}
		if guard == "" || !haveBare || !(lockedWrite || bareWrite) {
			continue
		}
		var witness concSite
		haveWitness := false
		for _, a := range accs {
			if lsContains(a.eff, guard) && (!haveWitness || a.site.before(witness)) {
				witness, haveWitness = a.site, true
			}
		}
		for _, a := range accs {
			if len(a.eff) > 0 || a.init {
				continue
			}
			out = append(out, diag.Diagnostic{
				Sev: diag.Warning, Pos: a.site.pos, End: nameEnd(v, a.site.pos),
				File: a.site.file, Code: CodeConcGuard,
				Msg: fmt.Sprintf("module variable %s is accessed without holding mutex %s (guarded at %s)", v, guard, witness),
			})
		}
	}

	out = append(out, concDeadlocks(edges)...)
	return out
}

// lockEdge is one lock-order edge: to was acquired while from was held.
type lockEdge struct{ from, to string }

// concDeadlocks finds cycles in the global lock-order graph and
// reports one finding per knot, with the witnessing acquisition path.
func concDeadlocks(edges map[lockEdge]concSite) []diag.Diagnostic {
	succ := map[string][]string{}
	for e := range edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	nodes := make([]string, 0, len(succ))
	for n := range succ {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		sort.Strings(succ[n])
	}

	var out []diag.Diagnostic
	for _, s := range nodes {
		cycle := shortestCycle(s, succ)
		if cycle == nil {
			continue
		}
		// Report each knot once, from its smallest member: any cycle
		// through the smallest mutex of a strongly connected component
		// stays inside the component, so exactly one finding per knot
		// survives this filter.
		minOK := true
		for _, m := range cycle {
			if m < s {
				minOK = false
				break
			}
		}
		if !minOK {
			continue
		}
		var path, wits []string
		var anchor concSite
		haveAnchor := false
		path = append(path, cycle...)
		path = append(path, s)
		for i := 0; i+1 < len(path); i++ {
			site := edges[lockEdge{path[i], path[i+1]}]
			wits = append(wits, fmt.Sprintf("%s acquired under %s at %s", path[i+1], path[i], site))
			if !haveAnchor || site.before(anchor) {
				anchor, haveAnchor = site, true
			}
		}
		out = append(out, diag.Diagnostic{
			Sev: diag.Warning, Pos: anchor.pos, File: anchor.file, Code: CodeConcDeadlock,
			Msg: fmt.Sprintf("potential deadlock: lock-order cycle %s (%s)",
				strings.Join(path, " -> "), strings.Join(wits, "; ")),
		})
	}
	return out
}

// shortestCycle returns the nodes of the lexicographically-first
// shortest cycle through s (starting at s, excluding the final return
// to s), or nil if s lies on no cycle.  BFS with sorted successor
// scans makes the choice deterministic.
func shortestCycle(s string, succ map[string][]string) []string {
	parent := map[string]string{}
	var queue []string
	for _, n := range succ[s] {
		if n == s {
			return []string{s} // self-loop
		}
		if _, seen := parent[n]; !seen {
			parent[n] = s
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, n := range succ[u] {
			if n == s {
				var rev []string
				for x := u; x != s; x = parent[x] {
					rev = append(rev, x)
				}
				out := []string{s}
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			if _, seen := parent[n]; !seen {
				parent[n] = u
				queue = append(queue, n)
			}
		}
	}
	return nil
}
