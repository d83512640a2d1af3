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
// symbol is published to its scope and never mutated afterwards.  The
// fields every kind uses are inline; what only some kinds carry sits
// behind Payload, so an entry fits Go's 96-byte size class.
type Symbol struct {
	Name string
	Type *types.Type

	// Storage assignment for KVar / KParam.  Globals carry the *name* of
	// their storage area rather than an object-local index: symbols in
	// an interface scope may be shared across compilations through the
	// interface cache.  Code generators resolve the name at emit time.
	Area string // globals area of the module declaring it ("M.def"/"M.mod")

	// Insert is the trace stamp of the publication moment.
	Insert ctrace.Stamp

	Pos     token.Pos
	Level   int32 // static nesting level for locals/params
	Offset  int32 // slot offset within globals area or frame
	ProcIdx int32 // KProc: object-local procedure code index (-1 = external)
	Kind    SymKind
	Global  bool // module-level variable
	ByRef   bool // VAR parameter
	Open    bool // open-array parameter (base+length slot pair)

	// Payload is set for constants, builtins, module names, FROM-aliases,
	// exceptions and interface procedures, and nil for every other
	// entry.  Its fields are promoted: read them only for the kind that
	// sets them.  A copy of a symbol may share its payload.
	*Payload
}

// Payload is the kind-specific part of a Symbol.
type Payload struct {
	Val types.Const // KConst: the constant's value
	BID BuiltinID   // KBuiltin: which pervasive routine

	IfaceScope *Scope // KModule: the designated interface scope

	AliasScope *Scope // KAlias: scope to continue the search in
	AliasName  string // KAlias: name to search for there

	ExcName string // KException: fully qualified name, resolved at emit time

	// ExtName is the symbolic link name ("Module.Proc") for procedures
	// declared in an imported definition module; code references to
	// them stay symbolic until link time.
	ExtName string
}

// External returns the link name of a procedure declared in an
// imported definition module, or "" for a local one.
func (s *Symbol) External() string {
	if s.Payload == nil {
		return ""
	}
	return s.ExtName
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

	mu       sync.Mutex         // guards: order, index, waits, and the publication state below
	order    []*Symbol          // publication order; searched linearly while small
	index    map[string]*Symbol // name index, built once order outgrows indexAt
	waits    []waiter           // Optimistic placeholders: names probed before their insert
	complete bool

	// sealed is the lock-free probe fast path: Complete sets it after
	// its last write to order and index, inside the critical section.
	// Once a scope seals, neither is written again — Insert is
	// owner-only and precedes Complete, and probeOrPlaceholder installs
	// no placeholder in a complete scope — so concurrent searchers may
	// read them without the mutex: the sequentially-consistent
	// store/load pair publishes every entry.
	sealed atomic.Bool

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
		tab: t, completion: event.New(),
	}
}

// indexAt is the largest scope searched by a linear scan of its
// publication order; a scope that grows past it builds a name index.
// BenchmarkScopeProbe puts the crossover here (linux/amd64, go1.24): at
// 12 entries a scan finds a name as fast as the index (21 ns) and
// misses it 3 ns slower, at 8 it is 5 ns faster either way, at 16 a
// miss costs 7 ns more.  Most procedure scopes hold far fewer.
const indexAt = 12

// waiter is one Optimistic placeholder: a name probed in an incomplete
// scope before its declaration, with the event its searchers wait on.
type waiter struct {
	name  string
	ready *event.Event
}

// find returns the published symbol called name, or nil.  Callers hold
// s.mu or have observed s.sealed.
func (s *Scope) find(name string) *Symbol {
	if s.index != nil {
		return s.index[name]
	}
	for _, sym := range s.order {
		if sym.Name == name {
			return sym
		}
	}
	return nil
}

// Grow pre-sizes the scope for n upcoming declarations so publication
// does not regrow its order slice (or its index) incrementally.
// Existing entries (imports, copied procedure headings) are preserved.
// Owner task only.
func (s *Scope) Grow(n int) {
	s.mu.Lock()
	if want := len(s.order) + n; want > cap(s.order) {
		order := make([]*Symbol, len(s.order), want)
		copy(order, s.order)
		s.order = order
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
	// Defensive: never leave symbols unpublished — erroneous programs
	// must still complete every scope or DKY waiters hang.
	s.fixups = 0
	s.publishQueueLocked(ctx)
	s.complete = true
	waiters := s.waits
	s.waits = nil
	s.sealed.Store(true)
	s.mu.Unlock()
	// Optimistic handling: signal every per-symbol event still unsignaled
	// (§2.3.3); its searchers find the name absent.
	for _, w := range waiters {
		ctx.FireRunEvent(w.ready)
	}
	ctx.FireEvent(s.completion)
}

// Completed reports whether the scope's table is complete.
func (s *Scope) Completed() bool {
	if s.sealed.Load() {
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
	if s.find(sym.Name) != nil || s.queued(sym.Name) != nil {
		s.mu.Unlock()
		report(sym.Pos, "%s redeclared in %s %s", sym.Name, s.Kind, s.Name)
		return false
	}
	if s.fixups > 0 {
		s.queue = append(s.queue, sym)
		s.mu.Unlock()
		return true
	}
	fired := s.publishLocked(ctx, sym)
	s.mu.Unlock()
	if fired != nil {
		ctx.FireRunEvent(fired)
	}
	return true
}

// queued returns the symbol called name waiting behind fixups, or nil.
func (s *Scope) queued(name string) *Symbol {
	for _, q := range s.queue {
		if q.Name == name {
			return q
		}
	}
	return nil
}

// publishLocked makes sym visible, returning the placeholder event to
// fire (outside the lock), if any.
func (s *Scope) publishLocked(ctx *ctrace.TaskCtx, sym *Symbol) *event.Event {
	sym.Insert = ctx.Stamp()
	s.order = append(s.order, sym)
	switch {
	case s.index != nil:
		s.index[sym.Name] = sym
	case len(s.order) > indexAt:
		s.index = make(map[string]*Symbol, cap(s.order))
		for _, o := range s.order {
			s.index[o.Name] = o
		}
	}
	for i, w := range s.waits {
		if w.name == sym.Name {
			last := len(s.waits) - 1
			s.waits[i] = s.waits[last]
			s.waits = s.waits[:last]
			return w.ready
		}
	}
	return nil
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
		ctx.FireRunEvent(f)
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
// completion state observed atomically with the search.  Sealed scopes
// (the hot path: every probe of an imported interface or a finished
// outer scope) answer without taking the mutex.
func (s *Scope) probe(name string) (sym *Symbol, complete bool) {
	if s.sealed.Load() {
		return s.find(name), true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.find(name), s.complete
}

// probeOwner additionally sees queued (not yet published) symbols; it
// serves self-scope searches by the scope's owning task, which must see
// its own declarations regardless of publication state.
func (s *Scope) probeOwner(name string) (sym *Symbol, complete bool) {
	if s.sealed.Load() {
		// The fixup queue is empty once the scope seals.
		return s.find(name), true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sym = s.find(name); sym == nil {
		sym = s.queued(name)
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
// event is installed (or an existing one reused) and its event returned
// for the caller to wait on.
func (s *Scope) probeOrPlaceholder(name string) (sym *Symbol, complete bool, wait *event.Event) {
	if s.sealed.Load() {
		return s.find(name), true, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sym = s.find(name); sym != nil || s.complete {
		return sym, s.complete, nil
	}
	for _, w := range s.waits {
		if w.name == name {
			return nil, false, w.ready
		}
	}
	w := waiter{name: name, ready: event.New()}
	s.waits = append(s.waits, w)
	return nil, false, w.ready
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
