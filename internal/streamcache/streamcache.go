// Package streamcache implements incremental recompilation at the
// paper's stream granularity: a shared, content-hash-keyed cache of
// completed per-procedure (and module-body) stream compilations.
//
// The splitter's decomposition into one stream per procedure is a
// natural incremental-build unit.  Each stream is keyed by a content
// hash covering everything that can influence its output — its own
// token layout, its heading, the declaration text of every enclosing
// stream, and the transitive interface closure of the compilation
// (impscan.Hash over the module's own interface and prologue imports,
// read from the compilation's prescan as the interface cache's keys
// are; the cache keeps no hasher of its own).  A
// recompile after a one-procedure edit re-runs only the changed
// streams; hits replay the stream's object code, diagnostics, and lint
// fact table verbatim, and the Merge task concatenates cached and
// fresh segments exactly as the paper does.
//
// Keying is by ABSOLUTE layout: token line/column positions are part
// of the key, so a cached artifact's positions are correct by
// construction.  A position is a line and a column and nothing else,
// so records — positions, diagnostics, fact tables — are stored as
// produced and replayed verbatim, shared read-only like the object
// code.  The cost is coarser invalidation — an edit that shifts later
// lines invalidates the streams on those lines — but an edit that
// preserves line structure (the common editor case the daemon serves)
// keeps every untouched stream warm.
//
// Object code is stored with symbolic fixups: each procedure, global-
// area and exception operand is recorded by name and re-resolved
// against the current compilation's registry at merge time (procedure
// and area indices follow the source, so they move only when procedures
// or interfaces come or go).  Jump targets and line numbers replay.
package streamcache

import (
	"sync"

	"m2cc/internal/check"
	"m2cc/internal/diag"
	"m2cc/internal/lru"
	"m2cc/internal/source"
	"m2cc/internal/token"
	"m2cc/internal/vm"
)

// Key identifies one cached stream compilation (see Keyer).
type Key = source.Hash

// FixKind classifies one symbolic operand of a cached instruction.
type FixKind uint8

const (
	// FixProc: operand A is a same-module procedure index (Call, and
	// PushProc with A >= 0; an external PushProc names its target in the
	// segment's Exts pool, which replays verbatim).
	FixProc FixKind = iota
	// FixArea: operand A is a global storage-area index (LdGlb, StGlb,
	// LdaGlb).
	FixArea
	// FixExc: operand A is an exception index (Raise, ExcIs).
	FixExc
)

// Fixup records one schedule-dependent operand of a cached code
// segment by name, to be re-resolved against the installing
// compilation's registry.
type Fixup struct {
	Index int32 // instruction index within the record's Code
	Kind  FixKind
	Name  string // proc FullName / area name / exception name
}

// ProcRecord is one procedure's (or the module body's) cached
// compilation: the registry metadata needed to re-create its ProcMeta,
// its object code with symbolic fixups, the diagnostics its stream
// produced, and its lint fact table.  Records are immutable once
// published and shared read-only by every compilation that installs
// them; fixup application copies code before rewriting it.
type ProcRecord struct {
	Name     string // dotted path within the module ("Sort.Partition")
	Exported bool
	IsBody   bool
	Level    int32
	ArgSlots int32
	Frame    int32
	HasRet   bool
	Pos      token.Pos // declaration position

	vm.Segment // shared, read-only; fixup application copies Code, never the pools
	Fixups     []Fixup

	Diags []diag.Diagnostic // stream's own diagnostics
	Facts *check.Facts      // lint fact table (nil unless recorded under Check)
}

// Entry is one cached stream compilation: the stream's own record
// first, then every descendant stream's record in pre-order, so a hit
// installs the whole subtree without touching the descendants' keys.
type Entry struct {
	Records []ProcRecord
}

// Stats is a snapshot of a cache's cumulative counters.
type Stats struct {
	Hits      int64 // Get found an entry
	Misses    int64 // Get found nothing
	Evictions int64 // entries dropped by the LRU cap
	Entries   int   // current entry count
}

// Tally is one compilation's stream-cache traffic (Result.StreamCache).
type Tally struct {
	Probed    int `json:"probed"`    // streams whose key was looked up
	Hits      int `json:"hits"`      // probes that found an entry
	Misses    int `json:"misses"`    // probes that found nothing
	Installed int `json:"installed"` // hit entries actually installed (topmost hits + body)
	Covered   int `json:"covered"`   // streams skipped because an ancestor's entry covered them
	Recorded  int `json:"recorded"`  // fresh streams published back to the cache
}

// Add returns t + other, accumulating the traffic of several
// compilations.
func (t Tally) Add(other Tally) Tally {
	return Tally{
		Probed:    t.Probed + other.Probed,
		Hits:      t.Hits + other.Hits,
		Misses:    t.Misses + other.Misses,
		Installed: t.Installed + other.Installed,
		Covered:   t.Covered + other.Covered,
		Recorded:  t.Recorded + other.Recorded,
	}
}

// Cache is a concurrency-safe stream-compilation cache shared by any
// number of compilations (the m2cd daemon holds one per process).
// There is no single-flight machinery: two concurrent compilations
// that miss on the same key both compile and both publish — the
// second Put overwrites the first with an identical entry, which is
// benign.  Consequently no entry ever has waiters, and the LRU cap
// can evict any entry.
type Cache struct {
	mu      sync.Mutex // guards: entries, stats
	entries *lru.Store[Key, *Entry]
	stats   Stats // Evictions and Entries are filled in by Stats
}

// New returns an empty cache capped at limit entries (0 = unbounded).
func New(limit int) *Cache {
	return &Cache{entries: lru.New[Key, *Entry](limit, nil)}
}

// SetLimit changes the entry cap (0 = unbounded), evicting immediately
// if the cache is over the new cap.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	c.entries.SetLimit(n)
	c.mu.Unlock()
}

// Get looks up a stream key, marking the entry most recently used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(k)
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return e, ok
}

// Put publishes a stream compilation under its key, evicting from the
// LRU tail if the cap is exceeded.  Re-publishing an existing key
// replaces the entry (a racing sibling computed the same thing).
func (c *Cache) Put(k Key, e *Entry) {
	c.mu.Lock()
	c.entries.Put(k, e)
	c.mu.Unlock()
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Evictions = c.entries.Evictions()
	s.Entries = c.entries.Len()
	return s
}

// ExtractFixups scans a completed code segment for schedule-dependent
// operands (see FixKind) and returns their symbolic forms, resolving
// indices through the supplied name tables (a registry Object
// snapshot).  The code itself is not modified.
func ExtractFixups(code []vm.Instr, procName func(int32) string,
	areaName func(int32) string, excName func(int32) string) []Fixup {

	n := 0
	for _, ins := range code {
		if _, ok := fixKind(ins); ok {
			n++
		}
	}
	out := make([]Fixup, 0, n)
	names := [...]func(int32) string{FixProc: procName, FixArea: areaName, FixExc: excName}
	for i, ins := range code {
		if k, ok := fixKind(ins); ok {
			out = append(out, Fixup{Index: int32(i), Kind: k, Name: names[k](ins.A())})
		}
	}
	return out
}

// fixKind reports whether ins carries a schedule-dependent operand, and
// of which kind.
func fixKind(ins vm.Instr) (FixKind, bool) {
	switch ins.Op() {
	case vm.Call:
		return FixProc, true
	case vm.PushProc:
		return FixProc, ins.A() >= 0
	case vm.LdGlb, vm.StGlb, vm.LdaGlb:
		return FixArea, true
	case vm.Raise, vm.ExcIs:
		return FixExc, true
	}
	return 0, false
}

// ApplyFixups re-resolves every symbolic operand of a cached code
// segment against the installing compilation's registry; procIdx also
// gets the recorded index, to check first.  The copy is made lazily, on
// the first operand that differs.  Procedure and area indices follow
// the source (vm.Registry), so unless an edit added or removed a
// procedure or an interface, every index agrees and the cached segment
// itself is returned.  Sharing is
// safe because the recording path already aliases the segment between
// the cache and the recording compilation's result — object code is
// immutable once installed.  procIdx reports ok=false for an unknown
// procedure name — impossible when the key matched, but surfaced as a
// failed install rather than silently wrong code; so is an index past
// vm.MaxA.
func ApplyFixups(code []vm.Instr, fixups []Fixup,
	procIdx func(name string, was int32) (int32, bool),
	areaIdx func(string) int32, excIdx func(string) int32) ([]vm.Instr, bool) {

	out := code
	copied := false
	for _, f := range fixups {
		var idx int32
		switch f.Kind {
		case FixProc:
			i, ok := procIdx(f.Name, code[f.Index].A())
			if !ok {
				return nil, false
			}
			idx = i
		case FixArea:
			idx = areaIdx(f.Name)
		case FixExc:
			idx = excIdx(f.Name)
		}
		ins := out[f.Index]
		if ins.A() == idx {
			continue
		}
		if !copied {
			out = append([]vm.Instr(nil), code...)
			copied = true
		}
		var ok bool
		if out[f.Index], ok = vm.NewInstr(ins.Op(), idx, ins.B); !ok {
			return nil, false
		}
	}
	return out, true
}
