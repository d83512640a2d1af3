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
// the deterministic work-unit cost of having compiled it.
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
	"container/list"
	"crypto/sha256"
	"sync"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/event"
	"m2cc/internal/impscan"
	"m2cc/internal/lexer"
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
	cache *Cache
	name  string
	key   key

	mu        sync.Mutex // guards: state, ready, and the install payload below
	state     entryState
	ready     *event.Event // fired when the entry becomes ready or failed
	scope     *symtab.Scope
	areaName  string
	areaSlots int32
	imports   []string
	deps      []Dep
	cost      float64
	depsLeft  int

	elem *list.Element // guards: under Cache.mu — LRU position; nil once evicted
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

// Ready reports whether the entry is installable.
func (e *Entry) Ready() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state == stateReady
}

// Closure returns the entry and its transitive deps, dependencies
// first, deduplicated.  Valid once the entry is ready (every dep of a
// ready entry is ready).
func (e *Entry) Closure() []*Entry {
	seen := make(map[*Entry]bool)
	var out []*Entry
	var walk func(*Entry)
	walk = func(x *Entry) {
		if seen[x] {
			return
		}
		seen[x] = true
		x.mu.Lock()
		deps := x.deps
		x.mu.Unlock()
		for _, d := range deps {
			walk(d.Ent)
		}
		out = append(out, x)
	}
	walk(e)
	return out
}

// Publish stores the leader's completed compilation of the interface
// and begins sealing: the entry becomes ready as soon as every direct
// import's entry is ready with the scope this publication references.
// cost is the def stream's deterministic work-unit total; imports are
// the direct imports in first-mention order, deduplicated.
func (e *Entry) Publish(scope *symtab.Scope, areaName string, areaSlots int32,
	imports []string, deps []Dep, cost float64) {

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
	e.depsLeft = len(deps)
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
		ev.Subscribe(func() { e.watchDep(d) })
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

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits      int64 // Acquire found a ready entry
	Misses    int64 // Acquire became leader (first compile of this content)
	Waits     int64 // Acquire parked behind another compilation's leader
	Bypasses  int64 // uncacheable requests (load failure / import cycle)
	Abandoned int64 // waiters that timed out on a wedged leader (NoteAbandoned)
	Evictions int64 // entries dropped by the LRU cap (SetLimit)
	Hashes    int64 // .def texts content-hashed on this cache's behalf
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

// Cache is a concurrency-safe interface-compilation cache shared by
// any number of concurrent compilations.  The zero value is not
// usable; call New.
type Cache struct {
	mu       sync.Mutex // guards: entries, lru, limit, scans, closures, stats
	entries  map[key]*Entry
	lru      *list.List               // MRU at front; element values are *Entry
	limit    int                      // max entries; 0 = unbounded
	scans    map[source.Hash][]string // content hash → direct import names
	closures map[string]*closureMemo  // module name → validated closure-hash memo
	stats    Stats
}

// New returns an empty, unbounded cache (see SetLimit).
func New() *Cache {
	return &Cache{
		entries:  make(map[key]*Entry),
		lru:      list.New(),
		scans:    make(map[source.Hash][]string),
		closures: make(map[string]*closureMemo),
	}
}

// SetLimit caps the cache at n entries (0 = unbounded).  When an
// insert pushes the cache past the cap, the least-recently-used
// evictable entries are dropped.  Entries that are still leading or
// sealing have live waiters parked on their ready event and are never
// evicted — the cache may temporarily exceed the cap while such
// entries exist.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	c.limit = n
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked drops ready/failed entries from the LRU tail until the
// cache is within its limit.  Caller holds c.mu.
func (c *Cache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	el := c.lru.Back()
	for el != nil && len(c.entries) > c.limit {
		prev := el.Prev()
		e := el.Value.(*Entry)
		e.mu.Lock()
		st := e.state
		e.mu.Unlock()
		if st == stateReady || st == stateFailed {
			delete(c.entries, e.key)
			c.lru.Remove(el)
			e.elem = nil
			c.stats.Evictions++
		}
		el = prev
	}
}

// Stats returns a snapshot of the hit/miss/wait/bypass counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// load returns name.def's text and content hash.  Through a
// source.Snapshot — the compiler hands every request of one compilation
// the same one — a file is loaded and hashed once per compilation
// however many closures it is a member of, and once more in the next
// compilation, which is what revalidates every memo below.
func (c *Cache) load(name string, loader source.Loader) (text string, sum source.Hash, err error) {
	fresh := true
	if snap, ok := loader.(*source.Snapshot); ok {
		text, sum, fresh, err = snap.LoadHashed(name, source.Def)
	} else if text, err = loader.Load(name, source.Def); err == nil {
		sum = source.HashText(text)
	}
	if fresh && err == nil {
		c.mu.Lock()
		c.stats.Hashes++
		c.mu.Unlock()
	}
	return text, sum, err
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
	return len(c.entries)
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
// imports yields a distinct entry.
func (c *Cache) Acquire(name string, loader source.Loader) (ent *Entry, ev *event.Event, st State) {
	k, ok := c.closureKey(name, loader)
	if !ok {
		c.mu.Lock()
		c.stats.Bypasses++
		c.mu.Unlock()
		return nil, nil, Bypass
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		e = &Entry{cache: c, name: name, key: k, state: stateLeading, ready: event.New()}
		c.entries[k] = e
		e.elem = c.lru.PushFront(e)
		c.stats.Misses++
		c.evictLocked()
		return e, nil, Lead
	}
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
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
		e.depsLeft = 0
		c.stats.Misses++
		return e, nil, Lead
	default: // leading or sealing
		c.stats.Waits++
		return e, e.ready, Wait
	}
}

// closureMemo records one module's validated transitive closure hash:
// the content hash of the module's own .def, the name and content hash
// of every other closure member, and the combined closure hash those
// contents produced.  A later request revalidates by re-hashing each
// member's current text — if every content hash matches, the import
// structure is necessarily unchanged (imports are a function of
// content), so the stored closure hash is still correct.
type closureMemo struct {
	own  source.Hash
	deps []depHash
	hash source.Hash
}

type depHash struct {
	name string
	hash source.Hash
}

// closureScratch is the per-recomputation working state, pooled so a
// warm batch does not allocate two maps per Acquire (the closureKey
// hot path the streamcache leans on).
type closureScratch struct {
	memo     map[string]source.Hash // name → closure hash (this walk)
	content  map[string]source.Hash // name → content hash (this walk)
	visiting map[string]bool
	order    []string // completion order; the root is last
}

var scratchPool = sync.Pool{New: func() any {
	return &closureScratch{
		memo:     make(map[string]source.Hash),
		content:  make(map[string]source.Hash),
		visiting: make(map[string]bool),
	}
}}

func (s *closureScratch) reset() {
	clear(s.memo)
	clear(s.content)
	clear(s.visiting)
	s.order = s.order[:0]
}

// closureKey computes the cache key for name: a hash combining the
// content of name.def and, recursively, of every .def it imports.  A
// load failure or an import cycle anywhere in the closure makes the
// module uncacheable (ok=false) — the real compilation will produce
// the diagnostics.
func (c *Cache) closureKey(name string, loader source.Loader) (key, bool) {
	h, ok := c.rootClosureHash(name, loader)
	if !ok {
		return key{}, false
	}
	return key{name: name, hash: h}, true
}

// ClosureHash combines the transitive .def closure hashes of roots
// into one content hash, in root order.  The stream cache keys every
// procedure stream with it: any textual change to any interface the
// compilation can see yields a different hash.  ok is false when any
// root is unloadable or its closure contains an import cycle — such a
// compilation is uncacheable at stream granularity too.
func (c *Cache) ClosureHash(loader source.Loader, roots []string) (source.Hash, bool) {
	hasher := sha256.New()
	for _, name := range roots {
		h, ok := c.rootClosureHash(name, loader)
		if !ok {
			return source.Hash{}, false
		}
		hasher.Write([]byte{0})
		hasher.Write([]byte(name))
		hasher.Write([]byte{0})
		hasher.Write(h[:])
	}
	var out source.Hash
	hasher.Sum(out[:0])
	return out, true
}

// rootClosureHash returns the transitive closure hash of name,
// consulting (and maintaining) the per-name memo: a memo hit needs one
// load per closure member and no lexing, recursion, or map allocation; a
// miss or a stale memo falls back to the full walk.
func (c *Cache) rootClosureHash(name string, loader source.Loader) (source.Hash, bool) {
	_, own, err := c.load(name, loader)
	if err != nil {
		return source.Hash{}, false
	}

	c.mu.Lock()
	m := c.closures[name]
	c.mu.Unlock()
	if m != nil && m.own == own && c.memoValid(m, loader) {
		return m.hash, true
	}

	s := scratchPool.Get().(*closureScratch)
	s.reset()
	h, ok := c.closureHash(name, loader, s)
	if ok {
		// Record a fresh memo for the root: every visited member except
		// the root itself becomes a validation dep.
		nm := &closureMemo{own: own, hash: h}
		for _, dep := range s.order {
			if dep == name {
				continue
			}
			nm.deps = append(nm.deps, depHash{name: dep, hash: s.content[dep]})
		}
		c.mu.Lock()
		c.closures[name] = nm
		c.mu.Unlock()
	}
	scratchPool.Put(s)
	if !ok {
		return source.Hash{}, false
	}
	return h, true
}

// memoValid reports whether every recorded closure member still loads
// to the recorded content.
func (c *Cache) memoValid(m *closureMemo, loader source.Loader) bool {
	for _, d := range m.deps {
		if _, sum, err := c.load(d.name, loader); err != nil || sum != d.hash {
			return false
		}
	}
	return true
}

func (c *Cache) closureHash(name string, loader source.Loader, s *closureScratch) (source.Hash, bool) {
	if h, ok := s.memo[name]; ok {
		return h, true
	}
	if s.visiting[name] {
		return source.Hash{}, false // import cycle
	}
	s.visiting[name] = true
	defer delete(s.visiting, name)

	text, content, err := c.load(name, loader)
	if err != nil {
		return source.Hash{}, false
	}
	imports := c.scanImports(name, text, content)

	hasher := sha256.New()
	hasher.Write(content[:])
	for _, imp := range imports {
		sub, ok := c.closureHash(imp, loader, s)
		if !ok {
			return source.Hash{}, false
		}
		hasher.Write([]byte{0})
		hasher.Write([]byte(imp))
		hasher.Write([]byte{0})
		hasher.Write(sub[:])
	}
	var combined source.Hash
	hasher.Sum(combined[:0])
	s.memo[name] = combined
	s.content[name] = content
	s.order = append(s.order, name)
	return combined, true
}

// scanImports returns the direct imports of a .def's text, memoized by
// content hash so each distinct interface text is lexed once per cache
// lifetime rather than once per compilation.
func (c *Cache) scanImports(name, text string, content source.Hash) []string {
	c.mu.Lock()
	if imps, ok := c.scans[content]; ok {
		c.mu.Unlock()
		return imps
	}
	c.mu.Unlock()

	// Throwaway context and bag: the scan only needs the token kinds;
	// the real compilation re-lexes with proper diagnostics.
	f := &source.File{Name: name, Kind: source.Def, Text: text}
	toks := lexer.ScanAll(f, &ctrace.TaskCtx{}, diag.NewBag(1))
	imps := impscan.Names(toks)

	c.mu.Lock()
	c.scans[content] = imps
	c.mu.Unlock()
	return imps
}
