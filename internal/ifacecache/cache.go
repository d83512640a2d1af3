// Package ifacecache implements a shared, content-hash-keyed cache of
// completed definition-module compilations with single-flight
// deduplication.
//
// The paper's compiler re-analyzes every directly or indirectly
// imported definition module on every compilation.  Batch workloads
// (the benchmark suite, differential tests, anything CompileBatch-like)
// import the same layered interfaces dozens of times, so most of their
// wall clock is identical interface work redone.  This cache keys each
// definition module by the combined content hash of its transitive
// import closure and stores the *result* of compiling it: the sealed
// symtab.Scope, its storage-area assignment, its direct imports and
// the deterministic work-unit cost of having compiled it.  A lint
// compilation's entries are keyed apart from plain ones and also carry
// the interface's static-analysis fact table, a pure function of the
// .def text, so a lint hit installs what the analysis would compute.
//
// Concurrency follows the compiler's own event discipline: the first
// compilation to request an uncached interface becomes its leader and
// compiles it exactly once; concurrent requesters park on the entry's
// completion event (Supervisor tasks use an external handled wait, so
// worker slots are released) and re-acquire when it fires.  A leader
// that cannot publish — diagnostics against the file, a load failure,
// a deadlock-poisoned compilation — fails the entry, waking waiters so
// the next requester takes over leadership.
//
// Correctness transparency: an entry is published only when the
// interface compiled cleanly, and installation of a cache hit is
// abandoned if any closure member conflicts with a scope the session
// already has — type compatibility is pointer identity, so a session
// must reference exactly one Scope object per interface.  In traces, a
// cache hit appears as a zero-spawn, pre-fired interface scope (see
// ctrace.NotePrefired), so the simulator models cold and warm
// compilations from the same machinery.
package ifacecache

import (
	"slices"
	"sync"

	"m2cc/internal/check"
	"m2cc/internal/event"
	"m2cc/internal/impscan"
	"m2cc/internal/lru"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
)

// State is the outcome of an Acquire.
type State uint8

const (
	// Hit: the entry is ready; install its closure and use its scope.
	Hit State = iota
	// Lead: the caller is now the entry's leader and must compile the
	// interface, then call Publish (on success) or Fail.
	Lead
	// Wait: another compilation is leading; park on the returned event
	// and re-Acquire when it fires.
	Wait
	// Bypass: the interface is uncacheable (load failure or an import
	// cycle in its closure); compile it without cache participation.
	Bypass
)

func (s State) String() string {
	switch s {
	case Hit:
		return "hit"
	case Lead:
		return "lead"
	case Wait:
		return "wait"
	default:
		return "bypass"
	}
}

type entryState uint8

const (
	stateLeading entryState = iota // leader compiling
	stateSealing                   // published, waiting for deps to seal
	stateReady                     // installable
	stateFailed                    // not publishable this round; next Acquire re-leads
)

type key struct {
	name string
	hash source.Hash // combined hash of the module's transitive .def closure
	lint bool        // entry carries the def unit's lint facts
}

// Dep names one direct import of a published interface together with
// the Scope object the publication's symbols actually reference.  The
// entry seals only if the dep entry becomes ready with that same scope
// — otherwise the publication would mix scope generations and break
// pointer-identity type compatibility for future installs.
type Dep struct {
	Ent   *Entry
	Scope *symtab.Scope
}

// Entry is one cached (or in-flight) definition-module compilation.
type Entry struct {
	name string

	mu        sync.Mutex // guards: state, ready, and the install payload below
	state     entryState
	ready     *event.Event // fired when the entry becomes ready or failed
	scope     *symtab.Scope
	areaName  string
	areaSlots int32
	depsLeft  int32 // beside areaSlots, so facts costs the entry no size class
	imports   []string
	deps      []Dep
	cost      float64
	facts     *check.Facts // the def unit's lint fact table (lint entries)
	closure   []*Entry     // Closure, taken when the entry becomes ready
}

// Name returns the definition module's name.
func (e *Entry) Name() string { return e.name }

// Scope returns the sealed interface scope (ready entries only).
func (e *Entry) Scope() *symtab.Scope {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.scope
}

// AreaName returns the globals-area label ("M.def") of the interface.
func (e *Entry) AreaName() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.areaName
}

// AreaSlots returns the number of storage slots the interface's
// module-level variables occupy.
func (e *Entry) AreaSlots() int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.areaSlots
}

// Imports returns the interface's direct imports (deduplicated, in
// first-mention order).
func (e *Entry) Imports() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.imports
}

// Cost returns the deterministic work-unit cost of the interface's
// def-stream parse/analysis, as measured by the publishing leader.
func (e *Entry) Cost() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cost
}

// Facts returns the definition module's lint fact table: nil in an
// entry acquired without lint, never nil in a ready lint entry.
func (e *Entry) Facts() *check.Facts {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.facts
}

// pinned reports whether the entry is still leading or sealing: live
// waiters are parked on its ready event, so eviction must skip it.
func (e *Entry) pinned() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state == stateLeading || e.state == stateSealing
}

// Ready reports whether the entry is installable.
func (e *Entry) Ready() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state == stateReady
}

// Closure returns the entry and its transitive deps, dependencies
// first, deduplicated.  Valid once the entry is ready (every dep of a
// ready entry is ready); it is taken then, once.
func (e *Entry) Closure() []*Entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closure
}

// Publish stores the leader's completed compilation of the interface
// and begins sealing: the entry becomes ready as soon as every direct
// import's entry is ready with the scope this publication references.
// cost is the def stream's deterministic work-unit total; imports are
// the direct imports in first-mention order, deduplicated; facts is the
// def unit's lint fact table (nil for an entry acquired without lint).
func (e *Entry) Publish(scope *symtab.Scope, areaName string, areaSlots int32,
	imports []string, deps []Dep, cost float64, facts *check.Facts) {

	e.mu.Lock()
	if e.state != stateLeading {
		e.mu.Unlock()
		return
	}
	e.state = stateSealing
	e.scope = scope
	e.areaName = areaName
	e.areaSlots = areaSlots
	e.imports = imports
	e.deps = deps
	e.cost = cost
	e.facts = facts
	e.depsLeft = int32(len(deps))
	left := e.depsLeft
	e.mu.Unlock()

	if left == 0 {
		e.seal()
		return
	}
	for _, d := range deps {
		e.watchDep(d)
	}
}

// Fail marks the entry unpublishable this round and wakes waiters; the
// next Acquire for the same key becomes the new leader.  Ready entries
// never fail.
func (e *Entry) Fail() {
	e.mu.Lock()
	if e.state == stateReady || e.state == stateFailed {
		e.mu.Unlock()
		return
	}
	e.state = stateFailed
	ev := e.ready
	e.mu.Unlock()
	ev.Fire() // vet:allowfire cross-compilation cache event; no TaskCtx owns it
}

func (e *Entry) seal() {
	e.mu.Lock()
	if e.state != stateSealing {
		e.mu.Unlock()
		return
	}
	// Every dep is ready, its closure taken: e's is theirs in order,
	// deduplicated, then e — a depth-first walk's post-order.
	for _, d := range e.deps {
		for _, m := range d.Ent.Closure() {
			if !slices.Contains(e.closure, m) {
				e.closure = append(e.closure, m)
			}
		}
	}
	e.closure = append(e.closure, e)
	e.state = stateReady
	ev := e.ready
	e.mu.Unlock()
	ev.Fire() // vet:allowfire cross-compilation cache event; no TaskCtx owns it
}

// watchDep drives one dep toward resolution.  A dep entry can cycle
// through failed → re-led rounds; each round swaps in a fresh ready
// event, so the watcher re-examines the dep's state after every fire
// and only counts it done when it is ready *with the expected scope*.
func (e *Entry) watchDep(d Dep) {
	d.Ent.mu.Lock()
	st := d.Ent.state
	sc := d.Ent.scope
	ev := d.Ent.ready
	d.Ent.mu.Unlock()
	switch st {
	case stateReady:
		if sc != d.Scope {
			// The dep was republished from a different compilation's
			// scope object; this publication's symbols reference the
			// old one, so installing it would split type identity.
			e.Fail()
			return
		}
		e.depDone()
	case stateFailed:
		e.Fail()
	default:
		ev.Subscribe(func(*event.Event) { e.watchDep(d) })
	}
}

func (e *Entry) depDone() {
	e.mu.Lock()
	if e.state != stateSealing {
		e.mu.Unlock()
		return
	}
	e.depsLeft--
	done := e.depsLeft == 0
	e.mu.Unlock()
	if done {
		e.seal()
	}
}

// Stats is a snapshot of the cache's counters, or a compilation's own
// Acquire outcomes (Hits to Bypasses; the rest stay zero, omitted).
type Stats struct {
	Hits      int64 `json:"hits"`                // Acquire found a ready entry
	Misses    int64 `json:"misses"`              // Acquire became leader (first compile of this content)
	Waits     int64 `json:"waits"`               // Acquire parked behind another compilation's leader
	Bypasses  int64 `json:"bypasses"`            // uncacheable requests (load failure / import cycle)
	Abandoned int64 `json:"abandoned,omitempty"` // waiters that timed out on a wedged leader (NoteAbandoned)
	Evictions int64 `json:"evictions,omitempty"` // entries dropped by the LRU cap (SetLimit)
	Hashes    int64 `json:"hashes,omitempty"`    // .def texts content-hashed on this cache's behalf
}

// Sub returns s - prev, the cache traffic between two snapshots; the
// observability layer uses it to attribute counters to one compilation
// of a shared cache.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Waits:     s.Waits - prev.Waits,
		Bypasses:  s.Bypasses - prev.Bypasses,
		Abandoned: s.Abandoned - prev.Abandoned,
		Evictions: s.Evictions - prev.Evictions,
		Hashes:    s.Hashes - prev.Hashes,
	}
}

// Add returns s + other: s − (0 − other), so the field list lives in
// Sub alone.
func (s Stats) Add(other Stats) Stats {
	return s.Sub(Stats{}.Sub(other))
}

// Cache is a concurrency-safe interface-compilation cache shared by
// any number of concurrent compilations.  The zero value is not
// usable; call New.
type Cache struct {
	hasher *impscan.Closures // closure keys; locks itself

	mu      sync.Mutex // guards: entries, stats
	entries *lru.Store[key, *Entry]
	stats   Stats // Evictions and Hashes are filled in by Stats
}

// New returns an empty, unbounded cache (see SetLimit).
func New() *Cache {
	return &Cache{
		hasher:  impscan.NewClosures(0),
		entries: lru.New[key, *Entry](0, (*Entry).pinned),
	}
}

// SetLimit caps the cache, and each of its closure memos, at n entries
// (0 = unbounded).  When an insert pushes the cache past the cap, the
// least-recently-used evictable entries are dropped.  Entries that are
// still leading or sealing have live waiters parked on their ready
// event and are never evicted — the cache may temporarily exceed the
// cap while such entries exist.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	c.entries.SetLimit(n)
	c.mu.Unlock()
	c.hasher.SetLimit(n)
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Evictions = c.entries.Evictions()
	s.Hashes = c.hasher.Hashes()
	return s
}

// NoteAbandoned counts one waiter giving up on a wedged foreign leader
// at its stall deadline (the compiler then compiles the interface
// itself, outside the cache).  The cache cannot see these timeouts —
// they happen in the waiter — so the compiler reports them.
func (c *Cache) NoteAbandoned() {
	c.mu.Lock()
	c.stats.Abandoned++
	c.mu.Unlock()
}

// Len returns the number of entries (any state).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// Acquire resolves the named definition module against the cache:
//
//	Hit    → ent is ready; install its closure.
//	Lead   → the caller must compile the interface and Publish or Fail ent.
//	Wait   → park on ev, then re-Acquire.
//	Bypass → compile without the cache (ent and ev are nil).
//
// The key is the combined content hash of the module's transitive .def
// import closure, so any textual change to the module or anything it
// imports yields a distinct entry, and the mode: a lint compilation
// (lint set) sees only entries whose publishers attached their facts.
func (c *Cache) Acquire(name string, loader source.Loader, lint bool) (ent *Entry, ev *event.Event, st State) {
	h, ok := c.hasher.Root(name, loader)
	if !ok {
		c.mu.Lock()
		c.stats.Bypasses++
		c.mu.Unlock()
		return nil, nil, Bypass
	}

	k := key{name: name, hash: h, lint: lint}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(k)
	if !ok {
		e = &Entry{name: name, state: stateLeading, ready: event.New()}
		c.entries.Put(k, e)
		c.stats.Misses++
		return e, nil, Lead
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case stateReady:
		c.stats.Hits++
		return e, nil, Hit
	case stateFailed:
		// Take over leadership for a fresh round with a fresh event.
		e.state = stateLeading
		e.ready = event.New()
		e.scope = nil
		e.areaName = ""
		e.areaSlots = 0
		e.imports = nil
		e.deps = nil
		e.cost = 0
		e.facts = nil
		e.depsLeft = 0
		e.closure = nil
		c.stats.Misses++
		return e, nil, Lead
	default: // leading or sealing
		c.stats.Waits++
		return e, e.ready, Wait
	}
}
