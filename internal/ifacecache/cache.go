// Package ifacecache implements a shared, content-hash-keyed cache of
// completed definition-module compilations with single-flight
// deduplication.
//
// The paper's compiler re-analyzes every directly or indirectly
// imported definition module on every compilation.  Batch workloads
// (the benchmark suite, differential tests, anything CompileBatch-like)
// import the same layered interfaces dozens of times, so most of their
// wall clock is identical interface work redone.  This cache keys each
// definition module by the closure hash of its transitive imports
// (impscan.Root, computed once per compilation from the imports the
// compilation's prescan recorded; the cache keeps no hasher of its own)
// and stores the
// *result* of compiling it: the sealed symtab.Scope, its storage-area
// assignment, its direct imports and their entries.  An entry holds no
// more than that, as a separately compiled unit is defined by its
// interface: an install walks the closure from the direct imports.  A
// lint compilation's entries are keyed apart from plain ones and also
// carry the interface's static-analysis fact table, a pure function of
// the .def text, so a lint hit installs what the analysis would
// compute.
//
// Its one client is the concurrent driver (internal/core), which keys
// each Acquire on its compilation's prescanned source.Snapshot.  The
// sequential compiler never uses the cache: it is the oracle and the
// fallback, for a faulted compilation and for m2cd's circuit breaker,
// and shares no state with the compilations it stands in for.
//
// Concurrency follows the compiler's own event discipline: the first
// compilation to request an uncached interface becomes its leader and
// compiles it exactly once; concurrent requesters park on the entry's
// event (Supervisor tasks use an external handled wait, so worker
// slots are released) under the caller's stall bound, and acquire
// again when it fires (Resolve).  Entries are one-shot: an entry fires
// its event exactly once, ready or failed, and is never reset.  A
// leader that cannot publish — diagnostics against the file, a load
// failure, a deadlock-poisoned compilation — fails its entry, and the
// next Acquire makes a fresh one and leads it.
//
// Correctness transparency: an entry is published only when the
// interface compiled cleanly and becomes ready only when every direct
// import's entry is ready, and installation of a cache hit is
// abandoned if any closure member conflicts with a scope the session
// already has — type compatibility is pointer identity, so a session
// must reference exactly one Scope object per interface.  In traces, a
// cache hit appears as a zero-spawn, pre-fired interface scope (see
// ctrace.NotePrefired), so the simulator models cold and warm
// compilations from the same machinery.
package ifacecache

import (
	"sync"
	"time"

	"m2cc/internal/check"
	"m2cc/internal/event"
	"m2cc/internal/impscan"
	"m2cc/internal/lru"
	"m2cc/internal/pool"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
)

// DefaultStallTimeout bounds a wait on a foreign leader when the caller
// sets no bound.  A healthy leader publishes or fails its entry in well
// under a second; a leader silent this long is treated as wedged and
// the waiter compiles the interface itself.
const DefaultStallTimeout = 30 * time.Second

// State is the outcome of an Acquire or a Resolve.
type State uint8

const (
	// Hit: the entry is ready; install its closure and use its scope.
	Hit State = iota
	// Lead: the caller is now the entry's leader and must compile the
	// interface, then call Publish (on success) or Fail.
	Lead
	// Wait: another compilation is leading (Acquire only); park on the
	// returned event and acquire again when it fires.
	Wait
	// Bypass: the interface is uncacheable (load failure or an import
	// cycle in its closure); compile it without cache participation.
	Bypass
	// Abandoned: the leader stalled past the caller's bound (Resolve
	// only); compile the interface without cache participation.
	Abandoned
)

func (s State) String() string {
	return [...]string{"hit", "lead", "wait", "bypass", "abandoned"}[s]
}

type entryState uint8

const (
	stateLeading entryState = iota // leader compiling
	stateSealing                   // published, waiting for its deps to become ready
	stateReady                     // installable (final)
	stateFailed                    // never installable (final); the next Acquire makes a fresh entry
)

type key struct {
	name string
	hash source.Hash // closure hash of the module's transitive .def imports
	lint bool        // entry carries the def unit's lint facts
}

// Entry is one cached (or in-flight) definition-module compilation.
// It is one-shot: its event fires exactly once, when the entry becomes
// ready or fails, and nothing in it is reset.
type Entry struct {
	name string
	done event.Event // fired once, on ready or failed

	mu       sync.Mutex // guards: state, depsLeft
	state    entryState
	depsLeft int32

	// The published payload: written once by Publish, before anyone
	// can see the entry ready, and immutable after, so its accessors
	// take no lock.
	scope     *symtab.Scope
	areaName  string
	areaSlots int32
	imports   []string
	deps      []*Entry
	facts     *check.Facts
}

// Name returns the definition module's name.
func (e *Entry) Name() string { return e.name }

// Scope returns the sealed interface scope (ready entries only).
func (e *Entry) Scope() *symtab.Scope { return e.scope }

// AreaName returns the globals-area label ("M.def") of the interface.
func (e *Entry) AreaName() string { return e.areaName }

// AreaSlots returns the number of storage slots the interface's
// module-level variables occupy.
func (e *Entry) AreaSlots() int32 { return e.areaSlots }

// Imports returns the interface's direct imports (deduplicated, in
// first-mention order).
func (e *Entry) Imports() []string { return e.imports }

// Facts returns the definition module's lint fact table: nil in an
// entry acquired without lint, never nil in a ready lint entry.
func (e *Entry) Facts() *check.Facts { return e.facts }

func (e *Entry) status() entryState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// Ready reports whether the entry is installable.
func (e *Entry) Ready() bool { return e.status() == stateReady }

// pinned reports whether the entry is still leading or sealing: live
// waiters are parked on its event, so eviction must skip it.
func (e *Entry) pinned() bool { return e.status() < stateReady }

// Walk visits the closure of a ready entry — its transitive deps, then
// the entry — in post-order, each member once: the order a depth-first
// walk over the direct imports completes them.  skip prunes a member
// and everything reached only through it (one the installing
// compilation already holds, with its closure); visit returning false
// stops the walk, and Walk reports whether it ran to the end.  The walk
// allocates nothing in the steady state and costs time linear in the
// members it reaches.
func (e *Entry) Walk(skip, visit func(*Entry) bool) bool {
	seen := seenSets.Get()
	ok := e.walk(seen, skip, visit)
	clear(seen)
	seenSets.Put(seen)
	return ok
}

// seenSets recycles the walks' visited sets; a cleared map keeps its
// buckets, which Size does not see.
var seenSets = &pool.List[map[*Entry]bool]{
	New:  func() map[*Entry]bool { return make(map[*Entry]bool) },
	Size: func(map[*Entry]bool) int { return 0 },
}

func (e *Entry) walk(seen map[*Entry]bool, skip, visit func(*Entry) bool) bool {
	if seen[e] || skip(e) {
		return true
	}
	seen[e] = true
	for _, d := range e.deps {
		if !d.walk(seen, skip, visit) {
			return false
		}
	}
	return visit(e)
}

// Publish stores the leader's clean compilation of the interface: its
// scope, the label and size of its globals area, its direct imports in
// first-mention order (deduplicated) with their entries, and, in a lint
// entry, the def unit's fact table.  The entry becomes ready once every
// dep is ready, and fails if any dep fails.  Publish after Fail does
// nothing.
func (e *Entry) Publish(scope *symtab.Scope, areaName string, areaSlots int32,
	imports []string, deps []*Entry, facts *check.Facts) {

	e.mu.Lock()
	if e.state != stateLeading {
		e.mu.Unlock()
		return
	}
	e.state, e.depsLeft = stateSealing, int32(len(deps))
	e.scope, e.areaName, e.areaSlots = scope, areaName, areaSlots
	e.imports, e.deps, e.facts = imports, deps, facts
	e.mu.Unlock()

	if len(deps) == 0 {
		e.settle(stateSealing, stateReady)
	}
	for _, d := range deps {
		d.done.Subscribe(func(*event.Event) { e.depSettled(d) })
	}
}

// Fail gives up the leadership of an unpublished entry and wakes its
// waiters; the next Acquire for the same key leads a fresh entry.  Fail
// after Publish does nothing.
func (e *Entry) Fail() { e.settle(stateLeading, stateFailed) }

// depSettled counts one dep's verdict: the last ready dep makes the
// entry ready, a failed one fails it.
func (e *Entry) depSettled(d *Entry) {
	if !d.Ready() {
		e.settle(stateSealing, stateFailed)
		return
	}
	e.mu.Lock()
	e.depsLeft--
	last := e.depsLeft == 0
	e.mu.Unlock()
	if last {
		e.settle(stateSealing, stateReady)
	}
}

// settle moves the entry from state from to the final state to and
// fires its event; it does nothing in any other state.
func (e *Entry) settle(from, to entryState) {
	e.mu.Lock()
	ok := e.state == from
	if ok {
		e.state = to
	}
	e.mu.Unlock()
	if ok {
		e.done.Fire() // vet:allowfire cross-compilation cache event; no TaskCtx owns it
	}
}

// Stats is a snapshot of the cache's counters, or a compilation's own
// Resolve outcomes (Hits to Abandoned; Evictions stays zero, omitted).
type Stats struct {
	Hits      int64 `json:"hits"`                // Acquire found a ready entry
	Misses    int64 `json:"misses"`              // Acquire became leader (first compile of this content)
	Waits     int64 `json:"waits"`               // Acquire parked behind another compilation's leader
	Bypasses  int64 `json:"bypasses"`            // uncacheable requests (load failure / import cycle)
	Abandoned int64 `json:"abandoned,omitempty"` // waiters that timed out on a wedged leader (Resolve)
	Evictions int64 `json:"evictions,omitempty"` // entries dropped by the LRU cap (SetLimit)
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
	}
}

// Add returns s + other: s − (0 − other), so the field list lives in
// Sub alone.
func (s Stats) Add(other Stats) Stats {
	return s.Sub(Stats{}.Sub(other))
}

// note counts one Acquire or Resolve outcome.
func (s *Stats) note(st State) {
	switch st {
	case Hit:
		s.Hits++
	case Lead:
		s.Misses++
	case Wait:
		s.Waits++
	case Bypass:
		s.Bypasses++
	case Abandoned:
		s.Abandoned++
	}
}

// Cache is a concurrency-safe interface-compilation cache shared by
// any number of concurrent compilations.  The zero value is not
// usable; call New.
type Cache struct {
	mu      sync.Mutex // guards: entries, stats
	entries *lru.Store[key, *Entry]
	stats   Stats // Evictions is filled in by Stats
}

// New returns an empty, unbounded cache (see SetLimit).
func New() *Cache {
	return &Cache{entries: lru.New[key, *Entry](0, (*Entry).pinned)}
}

// SetLimit caps the cache at n entries
// (0 = unbounded).  When an insert pushes the cache past the cap, the
// least-recently-used evictable entries are dropped.  Entries that are
// still leading or sealing have live waiters parked on their event and
// are never evicted — the cache may temporarily exceed the cap while
// such entries exist.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	c.entries.SetLimit(n)
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Evictions = c.entries.Evictions()
	return s
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
//	Wait   → park on ev, then acquire again.
//	Bypass → compile without the cache (ent and ev are nil).
//
// The key is the closure hash of the module's transitive .def imports,
// so any textual change to the module or anything it imports yields a
// distinct entry, and the mode: a lint compilation (lint set) sees only
// entries whose publishers attached their facts.  A failed entry is
// replaced by a fresh one, which the caller leads.
func (c *Cache) Acquire(name string, snap *source.Snapshot, lint bool) (ent *Entry, ev *event.Event, st State) {
	h, ok := impscan.Root(name, snap)
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { c.stats.note(st) }() // runs before the Unlock
	if !ok {
		return nil, nil, Bypass
	}
	k := key{name: name, hash: h, lint: lint}
	if e, ok := c.entries.Get(k); ok {
		switch e.status() {
		case stateReady:
			return e, nil, Hit
		case stateLeading, stateSealing:
			return e, &e.done, Wait
		}
	}
	e := &Entry{name: name}
	c.entries.Put(k, e)
	return e, nil, Lead
}

// Resolve runs the protocol for one interface to a verdict: it
// acquires name and, while another compilation leads the entry, parks
// through wait and acquires again — the event's fire is the leader's
// verdict, and after a failure the fresh entry is this caller's to
// lead.  wait is the caller's bounded wait (event.Event.Await, or a
// supervised task's external wait) and reports whether the event
// fired; when it did not, the leader is wedged, and Resolve counts the
// abandonment and returns Abandoned.  own counts this call's outcomes,
// as the cache counts them: its parks and its verdict.
func (c *Cache) Resolve(name string, snap *source.Snapshot, lint bool, wait func(*event.Event) bool) (ent *Entry, st State, own Stats) {
	for {
		ent, ev, st := c.Acquire(name, snap, lint)
		own.note(st)
		if st != Wait {
			return ent, st, own
		}
		if !wait(ev) {
			c.mu.Lock()
			c.stats.note(Abandoned)
			c.mu.Unlock()
			own.note(Abandoned)
			return nil, Abandoned, own
		}
	}
}
