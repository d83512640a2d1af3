// Package symtab implements the concurrent compiler's symbol tables.
//
// Following §2.2 of the paper, the units of compilation correspond to
// major scopes of declaration, and each scope (definition module, main
// module, procedure) has its own symbol table; tables are linked through
// the scope ancestry path.  Because tables are built concurrently with
// the searches that consult them, a search has three possible outcomes —
// found, not found, and *Doesn't Know Yet* — and the package implements
// all four strategies the paper evaluates for the third outcome:
// Avoidance, Pessimistic, Skeptical (Figure 6, the paper's
// recommendation) and Optimistic.
//
// Creation of symbol table entries is atomic with respect to search
// (footnote 1 of the paper): the declaration analyzer constructs each
// symbol completely before publishing it, and symbols whose types are
// still awaiting forward-reference fixups are queued unpublished until
// the fixups drain, so no task ever observes a half-built entry.
package symtab

import (
	"sync"
	"sync/atomic"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
	"m2cc/internal/faultinject"
	"m2cc/internal/token"
	"m2cc/internal/types"
)

// SymKind classifies symbol table entries.
type SymKind uint8

// Symbol kinds.
const (
	KConst SymKind = iota
	KType
	KVar
	KParam
	KProc
	KModule    // an imported module name, designating its interface scope
	KAlias     // a FROM-import: resolves lazily in another scope
	KException // a Modula-2+ exception
	KBuiltin   // a pervasive procedure or function
)

var symKindNames = [...]string{
	"constant", "type", "variable", "parameter", "procedure",
	"module", "import", "exception", "builtin",
}

func (k SymKind) String() string {
	if int(k) < len(symKindNames) {
		return symKindNames[k]
	}
	return "?"
}

// Symbol is one symbol table entry.  All fields are set before the
// symbol is published to its scope and never mutated afterwards.
type Symbol struct {
	Name string
	Kind SymKind
	Pos  token.Pos
	Type *types.Type

	Val types.Const // KConst: the constant's value
	BID BuiltinID   // KBuiltin: which pervasive routine

	// Storage assignment for KVar / KParam.  Globals carry the *name* of
	// their storage area rather than an object-local index: indices are
	// per-compilation (vm.Registry assigns them first-use), while symbols
	// in an interface scope may be shared across compilations through the
	// interface cache.  Code generators resolve the name at emit time.
	Global bool   // module-level variable
	Area   string // globals area of the module declaring it ("M.def"/"M.mod")
	Level  int32  // static nesting level for locals/params
	Offset int32  // slot offset within globals area or frame
	ByRef  bool   // VAR parameter
	Open   bool   // open-array parameter (base+length slot pair)

	ProcIdx int32  // KProc: object-local procedure code index (-1 = external)
	ExcName string // KException: fully qualified name, resolved at emit time

	// ExtName is the symbolic link name ("Module.Proc") for procedures
	// declared in an imported definition module; code references to
	// them stay symbolic until link time.  Empty for local procedures.
	ExtName string

	IfaceScope *Scope // KModule: the designated interface scope

	AliasScope *Scope // KAlias: scope to continue the search in
	AliasName  string // KAlias: name to search for there

	// Insert is the trace stamp of the publication moment.
	Insert ctrace.Stamp

	placeholder bool         // Optimistic-handling placeholder entry
	ready       *event.Event // per-symbol DKY event (Optimistic handling)
}

// ScopeKind classifies scopes.
type ScopeKind uint8

// Scope kinds.
const (
	BuiltinScope ScopeKind = iota
	DefScope               // a definition module's interface
	ModuleScope            // the implementation/main module body
	ProcScope              // a procedure
)

func (k ScopeKind) String() string {
	switch k {
	case BuiltinScope:
		return "builtin"
	case DefScope:
		return "interface"
	case ModuleScope:
		return "module"
	default:
		return "procedure"
	}
}

// Scope is one symbol table with its completion state.
type Scope struct {
	ID     int32
	Kind   ScopeKind
	Name   string
	Parent *Scope
	Level  int32 // static nesting level of entities declared here
	tab    *Table

	mu       sync.Mutex // guards: syms, order, and the publication state below
	syms     map[string]*Symbol
	order    []*Symbol // publication order (deterministic listings)
	complete bool

	// sealed is the lock-free probe fast path: Complete publishes the
	// finished syms map here (placeholders already stripped) after its
	// last write, inside the critical section.  Once a scope seals, its
	// map is never written again — Insert is owner-only and precedes
	// Complete, and probeOrPlaceholder declines to install placeholders
	// in complete scopes — so concurrent searchers may read the map
	// without the mutex.  A non-nil load implies complete, and the
	// sequentially-consistent store/load pair publishes every entry.
	sealed atomic.Pointer[map[string]*Symbol]

	// Owner-task bookkeeping for the atomic-publication rule: while
	// fixups > 0, newly inserted symbols wait in queue.
	fixups int
	queue  []*Symbol

	completion *event.Event
	complID    ctrace.EventID   // assigned lazily when first traced...
	complRec   *ctrace.Recorder // ...by this recorder.  Interface scopes
	// can be shared across compilations (interface cache), each with its
	// own recorder, so the cached ID is valid only for complRec.
}

// Table is the per-compilation symbol table registry: it numbers scopes,
// carries the selected DKY strategy, the Table 2 statistics collector
// and the optional trace recorder.
type Table struct {
	mu       sync.Mutex // guards: nextID, prefired
	nextID   int32
	prefired map[*Scope]bool

	Builtins *Scope
	Strategy Strategy
	Stats    *Stats
	Rec      *ctrace.Recorder

	// Inject, when non-nil, arms the PanicLookup fault-injection point
	// in Searcher (tests only); nil costs one pointer check per lookup.
	Inject *faultinject.Plan
}

// MarkPrefired notes that scope entered this compilation already
// complete (an interface-cache hit): its symbols and completion event
// predate every task of this compilation, so traced lookups must stamp
// them as pre-existing rather than replaying a foreign session's times.
// The first call sizes the table for hint scopes.
func (t *Table) MarkPrefired(scope *Scope, hint int) {
	t.mu.Lock()
	if t.prefired == nil {
		t.prefired = make(map[*Scope]bool, hint)
	}
	t.prefired[scope] = true
	t.mu.Unlock()
}

// IsPrefired reports whether scope was installed by MarkPrefired.
func (t *Table) IsPrefired(scope *Scope) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prefired[scope]
}

// NewTable returns a table using the given DKY strategy.  stats and rec
// may be nil.
func NewTable(strategy Strategy, stats *Stats, rec *ctrace.Recorder) *Table {
	t := &Table{Strategy: strategy, Stats: stats, Rec: rec}
	t.Builtins = builtinScope
	return t
}

// NewScope creates a scope with the given parentage.  The scope starts
// incomplete; the declaring task must call Complete exactly once.
func (t *Table) NewScope(kind ScopeKind, name string, parent *Scope, level int32) *Scope {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Scope{
		ID: id, Kind: kind, Name: name, Parent: parent, Level: level,
		tab: t, syms: make(map[string]*Symbol), completion: event.New(),
	}
}

// Grow pre-sizes the scope's symbol map for n upcoming declarations so
// insertion does not rehash incrementally.  Existing entries (imports,
// copied procedure headings) are preserved.  Owner task only.
func (s *Scope) Grow(n int) {
	s.mu.Lock()
	if n > len(s.syms) {
		grown := make(map[string]*Symbol, n+len(s.syms))
		for k, v := range s.syms {
			grown[k] = v
		}
		s.syms = grown
		if cap(s.order) < n {
			order := make([]*Symbol, len(s.order), n+len(s.order))
			copy(order, s.order)
			s.order = order
		}
	}
	s.mu.Unlock()
}

// CompletionEvent returns the event fired when the scope's table is
// complete.
func (s *Scope) CompletionEvent() *event.Event { return s.completion }

// Complete marks the scope's symbol table complete and fires its
// completion event, waking every DKY-blocked searcher.  Any symbols
// still queued behind fixups are published first (the owner must have
// resolved all fixups).  ctx stamps the completion for the trace.
func (s *Scope) Complete(ctx *ctrace.TaskCtx) {
	s.mu.Lock()
	if s.fixups != 0 {
		// Defensive: never leave symbols unpublished — erroneous
		// programs must still complete every scope or DKY waiters hang.
		s.fixups = 0
	}
	s.publishQueueLocked(ctx)
	s.complete = true
	var waiters []*event.Event
	for name, sym := range s.syms {
		if sym.placeholder {
			waiters = append(waiters, sym.ready)
			delete(s.syms, name)
		}
	}
	s.sealed.Store(&s.syms)
	s.mu.Unlock()
	// Optimistic handling: traverse the completed table and signal all
	// unsignaled per-symbol events (§2.3.3).
	for _, w := range waiters {
		w.Fire() // vet:allowfire per-symbol micro-event; only the completion event is traced
	}
	ctx.FireEvent(s.completion)
}

// Completed reports whether the scope's table is complete.
func (s *Scope) Completed() bool {
	if s.sealed.Load() != nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.complete
}

// completionID returns (allocating if needed) the trace event ID of the
// scope's completion event, as numbered by rec.
func (s *Scope) completionID(rec *ctrace.Recorder) ctrace.EventID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.complID == 0 || s.complRec != rec {
		s.complID = rec.EventIDOf(s.completion)
		s.complRec = rec
	}
	return s.complID
}

// Insert publishes sym in s, or queues it while forward-reference
// fixups are outstanding.  It reports a diagnostic and returns false on
// redeclaration (including redeclaration of a pervasive builtin name,
// which Modula-2+ forbids — the property §2.2's builtin-search shortcut
// relies on).  Only the scope's owning task may call Insert.
func (s *Scope) Insert(ctx *ctrace.TaskCtx, report func(pos token.Pos, format string, args ...any), sym *Symbol) bool {
	if s.Kind != BuiltinScope {
		if b := lookupBuiltin(sym.Name); b != nil {
			report(sym.Pos, "cannot redeclare builtin %s", sym.Name)
			return false
		}
	}
	ctx.Add(ctrace.CostInsert)
	s.mu.Lock()
	if prev, ok := s.syms[sym.Name]; ok && !prev.placeholder {
		s.mu.Unlock()
		report(sym.Pos, "%s redeclared in %s %s", sym.Name, s.Kind, s.Name)
		return false
	}
	for _, q := range s.queue {
		if q.Name == sym.Name {
			s.mu.Unlock()
			report(sym.Pos, "%s redeclared in %s %s", sym.Name, s.Kind, s.Name)
			return false
		}
	}
	if s.fixups > 0 {
		s.queue = append(s.queue, sym)
		s.mu.Unlock()
		return true
	}
	fired := s.publishLocked(ctx, sym)
	s.mu.Unlock()
	if fired != nil {
		fired.Fire() // vet:allowfire per-symbol micro-event; only the completion event is traced
	}
	return true
}

// publishLocked makes sym visible, returning the placeholder event to
// fire (outside the lock), if any.
func (s *Scope) publishLocked(ctx *ctrace.TaskCtx, sym *Symbol) *event.Event {
	var fire *event.Event
	if prev, ok := s.syms[sym.Name]; ok && prev.placeholder {
		fire = prev.ready
	}
	sym.Insert = ctx.Stamp()
	s.syms[sym.Name] = sym
	s.order = append(s.order, sym)
	return fire
}

func (s *Scope) publishQueueLocked(ctx *ctrace.TaskCtx) {
	var fires []*event.Event
	for _, sym := range s.queue {
		if f := s.publishLocked(ctx, sym); f != nil {
			fires = append(fires, f)
		}
	}
	s.queue = nil
	for _, f := range fires {
		f.Fire() // vet:allowfire per-symbol micro-event; only the completion event is traced
	}
}

// DeferFixup notes an outstanding forward-reference fixup (e.g. POINTER
// TO T with T not yet declared).  While any fixup is outstanding, newly
// inserted symbols stay unpublished, so other tasks can never observe a
// type object that is still going to be patched.  Owner task only.
func (s *Scope) DeferFixup() {
	s.mu.Lock()
	s.fixups++
	s.mu.Unlock()
}

// ResolveFixup retires one fixup; when the last one drains, queued
// symbols are published in declaration order.  Owner task only.
func (s *Scope) ResolveFixup(ctx *ctrace.TaskCtx) {
	s.mu.Lock()
	s.fixups--
	if s.fixups == 0 {
		s.publishQueueLocked(ctx)
	}
	s.mu.Unlock()
}

// probe searches the scope's published symbols.  It reports the
// completion state observed atomically with the search.  Placeholders
// are invisible to probes.  Sealed scopes (the hot path: every probe of
// an imported interface or a finished outer scope) answer from the
// atomically-published map without taking the mutex.
func (s *Scope) probe(name string) (sym *Symbol, complete bool) {
	if m := s.sealed.Load(); m != nil {
		return (*m)[name], true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sym = s.syms[name]
	if sym != nil && sym.placeholder {
		sym = nil
	}
	return sym, s.complete
}

// probeOwner additionally sees queued (not yet published) symbols; it
// serves self-scope searches by the scope's owning task, which must see
// its own declarations regardless of publication state.
func (s *Scope) probeOwner(name string) (sym *Symbol, complete bool) {
	if m := s.sealed.Load(); m != nil {
		// The fixup queue is empty once the scope seals.
		return (*m)[name], true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sym = s.syms[name]
	if sym != nil && sym.placeholder {
		sym = nil
	}
	if sym == nil {
		for _, q := range s.queue {
			if q.Name == name {
				sym = q
				break
			}
		}
	}
	return sym, s.complete
}

// OwnerProbe returns the named symbol as seen by the scope's owning
// task (published or still queued behind fixups), or nil.  It never
// blocks; the declaration analyzer uses it to resolve forward
// references with self-scope priority.
func (s *Scope) OwnerProbe(name string) *Symbol {
	sym, _ := s.probeOwner(name)
	return sym
}

// Probe returns the named published symbol, or nil.  It never blocks,
// never installs a placeholder and never counts as a DKY lookup; the
// declaration analyzer's shadow check uses it to consult an enclosing
// module scope without disturbing the Table 2 statistics.
func (s *Scope) Probe(name string) *Symbol {
	sym, _ := s.probe(name)
	return sym
}

// probeOrPlaceholder implements the Optimistic probe: if the name is
// absent from an incomplete table, a placeholder with a fresh per-symbol
// event is installed (or an existing one reused) and returned for the
// caller to wait on.
func (s *Scope) probeOrPlaceholder(name string) (sym *Symbol, complete bool, wait *event.Event) {
	if m := s.sealed.Load(); m != nil {
		return (*m)[name], true, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.syms[name]
	switch {
	case cur == nil:
		if s.complete {
			return nil, true, nil
		}
		ph := &Symbol{Name: name, placeholder: true, ready: event.New()}
		s.syms[name] = ph
		return nil, false, ph.ready
	case cur.placeholder:
		return nil, s.complete, cur.ready
	default:
		return cur, s.complete, nil
	}
}

// Symbols returns the published symbols in publication order.  Intended
// for listings and tests after the scope completes.
func (s *Scope) Symbols() []*Symbol {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Symbol, 0, len(s.order))
	out = append(out, s.order...)
	return out
}

// Len returns the number of published symbols.
func (s *Scope) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}
