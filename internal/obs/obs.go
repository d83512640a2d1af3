// Package obs is the live-observability layer for the real concurrent
// compiler: wall-clock span tracing and a metrics snapshot for the
// goroutine Supervisor in internal/sched, the runtime counterpart of
// the deterministic work-unit traces in internal/ctrace.
//
// The simulator (internal/sim) predicts timelines from
// schedule-independent traces; this package measures what actually
// happened — which worker slot ran which task when, where tasks
// blocked, where panics were isolated and where the watchdog fired —
// so the paper's Figure 7 style activity views can be compared
// side-by-side: predicted (simulated) against measured (observed).
//
// An Observer is attached via core.Options.Obs and receives hooks from
// the Supervisor at every task transition: spawn, first dispatch,
// block on a handled/external event, re-dispatch, finish, panic
// isolation, watchdog fire.  Each hook is one mutex acquisition and
// one clock read; every method is safe on a nil *Observer and reduces
// to a pointer check (the same pattern as internal/faultinject), so an
// unobserved compilation pays nothing.  Observation itself is not
// cheap: full observation of the 37-program suite was last measured at
// +14 to +32 % wall time (2-CPU host, go1.24), and no budget is
// enforced.
//
// Three exports:
//
//   - WriteChromeTrace: Chrome trace-event JSON (load in Perfetto or
//     chrome://tracing) with one lane per worker slot;
//   - Snapshot: a machine-readable Metrics value (worker-slot
//     occupancy, ready-queue depth, event and interface-cache
//     counters, per-strategy DKY lookup tallies via symtab.Stats);
//   - RenderTimeline: an ASCII per-worker activity view in the style
//     of the paper's Figure 7, from measured wall-clock spans.
package obs

import (
	"sort"
	"sync"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
	"m2cc/internal/ifacecache"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
)

// BlockReason classifies why a task gave up its worker slot.
type BlockReason uint8

const (
	// BlockHandled is a handled-event wait (DKY blockage, §2.3.3): the
	// slot is released until the event fires.
	BlockHandled BlockReason = iota
	// BlockExternal is a wait on an event owned by a foreign
	// compilation (an interface-cache leader in another session).
	BlockExternal
	// BlockBarrier is a barrier-style wait (§2.3.3): the task keeps its
	// worker slot while it waits, so no span closes — only a wait edge
	// is recorded.
	BlockBarrier

	numBlockReasons = 3
)

func (r BlockReason) String() string {
	switch r {
	case BlockExternal:
		return "external"
	case BlockBarrier:
		return "barrier"
	default:
		return "handled"
	}
}

// MarkKind classifies instant markers.
type MarkKind uint8

const (
	// MarkPanic: a task panicked and was isolated (PR 2's runGuarded).
	MarkPanic MarkKind = iota
	// MarkWatchdog: the deadlock watchdog force-fired events.
	MarkWatchdog
	// MarkStallAbandon: a waiter abandoned a wedged foreign cache
	// leader at its stall deadline.
	MarkStallAbandon
)

func (k MarkKind) String() string {
	switch k {
	case MarkPanic:
		return "panic"
	case MarkWatchdog:
		return "watchdog"
	default:
		return "stall-abandon"
	}
}

// Span is one contiguous occupancy of a worker slot by a task: from
// dispatch (first start or unblock) to the next block, panic-tainted
// finish or clean finish.
type Span struct {
	Task  int           // observer task ID (1-based)
	Lane  int           // worker slot lane (0-based, lowest-free assignment)
	Start time.Duration // offset from the observer's epoch
	End   time.Duration
	// EndReason tells how the span closed: "block-handled",
	// "block-external", "finish", or "open" (still running when the
	// snapshot was taken).
	EndReason string
}

// Mark is one instant marker (panic isolation, watchdog fire).
type Mark struct {
	Kind MarkKind
	Task int // 0 for compiler-wide marks (watchdog)
	Lane int // -1 when the mark is not lane-bound
	At   time.Duration
}

// TaskRecord is one task's observed lifecycle.
type TaskRecord struct {
	ID       int
	Kind     ctrace.TaskKind
	Stream   int32
	Label    string
	Parent   int   // spawning task's observer ID; 0 = driver-spawned
	Gates    []int // observer event IDs gating the first dispatch
	Spawned  time.Duration
	Started  time.Duration // first dispatch; 0-with-!HasRun if never ran
	Finished time.Duration
	HasRun   bool
	Done     bool
	Panicked bool
	Blocks   [numBlockReasons]int // waits taken, indexed by BlockReason
}

// FireEdge is one observed event fire.  Each event keeps its first fire
// only (one-shot semantics); Task 0 means the fire came from outside
// any observed task (the driver resolving an interface, or a pre-fired
// cache hit).
type FireEdge struct {
	Event  int // observer event ID (1-based, dense)
	Task   int // firing task's observer ID, 0 = driver
	Lane   int // firer's lane at the fire; -1 when not on a slot
	At     time.Duration
	Forced bool // fired by panic isolation or the deadlock watchdog
}

// WaitEdge is one observed wait of a task on an event, from the moment
// the task decided to wait to the moment it was running again (handled/
// external: slot re-acquired; barrier: wait returned).  The portion
// after the event's fire is queue delay, not dependency stall — the
// profiler splits the two.
type WaitEdge struct {
	Event  int
	Task   int
	Lane   int // lane held (barrier) or just released (handled/external)
	Reason BlockReason
	Start  time.Duration
	End    time.Duration
}

// Dump is a deterministic snapshot of everything the Observer recorded,
// the input to the critical-path profiler (internal/profile).  Open
// spans and waits are closed at the horizon; slices are sorted.
type Dump struct {
	Wall     time.Duration
	Workers  int
	Strategy string
	Events   int // number of distinct observed events
	Tasks    []TaskRecord
	Spans    []Span
	Marks    []Mark
	Fires    []FireEdge
	Waits    []WaitEdge
	Sched    SchedCounters // ready-queue traffic (dispatches/handoffs/goroutines)
}

// Observer records the runtime behaviour of one (or one batch of)
// concurrent compilation.  All methods are safe for concurrent use and
// on a nil receiver.
type Observer struct {
	mu    sync.Mutex // guards: every record field below; all methods lock it
	epoch time.Time
	ended time.Duration // set by Finish; 0 = still running

	workers int
	tasks   []TaskRecord
	closed  []Span        // finished spans, in close order
	open    map[int]*Span // task ID → its running span
	lanes   []bool        // lane busy flags, lowest-free assignment

	// Slot occupancy: time-weighted integral of busy lanes.
	busy       int
	peakBusy   int
	busyInt    float64 // ∫ busy dt, in seconds·slots
	lastBusyAt time.Duration

	// Ready-queue depth, sampled at every dispatch round.
	readySamples int64
	readySum     int64
	readyPeak    int

	marks []Mark // panics, watchdog fires and stall abandons, each counted once here

	// Dependency edges: event identities (dense 1-based IDs handed out
	// on first sight), first-fire edges and per-task wait windows.
	events   map[*event.Event]int
	fires    []FireEdge
	fired    map[int]bool // event ID → a fire edge exists
	waits    []WaitEdge
	openWait map[int]int // task ID → index of its open wait in waits

	evBase   event.Counters
	evDelta  event.Counters
	cache    ifacecache.Stats
	streams  StreamMetrics
	sched    SchedCounters
	strategy string
	lookups  *symtab.Stats
}

// SchedCounters is the Supervisor's dispatch traffic for the observed
// run: how many tasks left the ready queue, how many of those took a
// releasing slot directly without it ever being marked free, and how
// many worker goroutines ran them.  Counters from several compilations
// of a batch accumulate.
type SchedCounters struct {
	Dispatches int64 `json:"dispatches"` // tasks taken off the ready queue
	Handoffs   int64 `json:"handoffs"`   // releases that handed the slot directly onward
	Goroutines int64 `json:"goroutines"` // worker goroutines started (resident workers run many tasks each)
}

// Add accumulates other into c.
func (c *SchedCounters) Add(other SchedCounters) {
	if c == nil {
		return
	}
	c.Dispatches += other.Dispatches
	c.Handoffs += other.Handoffs
	c.Goroutines += other.Goroutines
}

// New returns an Observer with its epoch set to now.
func New() *Observer {
	return &Observer{
		epoch:    time.Now(),
		open:     make(map[int]*Span),
		events:   make(map[*event.Event]int),
		fired:    make(map[int]bool),
		openWait: make(map[int]int),
		evBase:   event.Totals(),
	}
}

func (o *Observer) now() time.Duration { return time.Since(o.epoch) }

// Begin notes the compilation's worker-slot count and DKY strategy.
// Idempotent; CompileBatch calls it once per module and the largest
// worker count wins.
func (o *Observer) Begin(workers int, strategy string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if workers > o.workers {
		o.workers = workers
	}
	o.strategy = strategy
	o.mu.Unlock()
}

// Finish stamps the end of the observed run.  Open spans are closed at
// this stamp when a snapshot or export is taken.  Idempotent in effect:
// the latest call wins, so batch observers cover the whole batch.
func (o *Observer) Finish() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.ended = o.now()
	o.evDelta = event.Totals().Sub(o.evBase)
	o.mu.Unlock()
}

// TaskSpawned registers a task and returns its observer ID (0 on a nil
// Observer; IDs are 1-based).  parent is the spawning task's observer
// ID (0 for driver spawns); gates are the avoided events holding back
// the first dispatch.
func (o *Observer) TaskSpawned(kind ctrace.TaskKind, stream int32, label string, parent int, gates []*event.Event) int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	id := len(o.tasks) + 1
	var gateIDs []int
	if len(gates) > 0 {
		gateIDs = make([]int, len(gates))
		for i, e := range gates {
			gateIDs[i] = o.eventIDLocked(e)
		}
	}
	o.tasks = append(o.tasks, TaskRecord{
		ID: id, Kind: kind, Stream: stream, Label: label,
		Parent: parent, Gates: gateIDs, Spawned: o.now(),
	})
	return id
}

// eventIDLocked hands out a dense 1-based identity for e.
func (o *Observer) eventIDLocked(e *event.Event) int {
	if e == nil {
		return 0
	}
	id, ok := o.events[e]
	if !ok {
		id = len(o.events) + 1
		o.events[e] = id
	}
	return id
}

// EventFired records that task id (0 = the driver) fired e.  Called
// immediately before the actual fire, so waiters' unblock edges always
// follow the fire edge.  Only the first fire of an event is kept.
func (o *Observer) EventFired(id int, e *event.Event) {
	if o == nil || e == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fireLocked(id, e, false)
}

// EventForceFired records a fire performed by panic isolation or the
// deadlock watchdog on behalf of a task that will never fire it
// properly.  Forced fires do not extend the critical path — the
// profiler treats their waiters as externally stalled.
func (o *Observer) EventForceFired(e *event.Event) {
	if o == nil || e == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fireLocked(0, e, true)
}

func (o *Observer) fireLocked(task int, e *event.Event, forced bool) {
	ev := o.eventIDLocked(e)
	if o.fired[ev] {
		return
	}
	o.fired[ev] = true
	lane := -1
	if sp := o.open[task]; task != 0 && sp != nil {
		lane = sp.Lane
	}
	o.fires = append(o.fires, FireEdge{
		Event: ev, Task: task, Lane: lane, At: o.now(), Forced: forced,
	})
}

// openWaitLocked starts a wait edge for task id on e.
func (o *Observer) openWaitLocked(id int, e *event.Event, reason BlockReason, lane int, now time.Duration) {
	if e == nil {
		return
	}
	o.closeWaitLocked(id, now) // defensive: one open wait per task
	o.openWait[id] = len(o.waits)
	o.waits = append(o.waits, WaitEdge{
		Event: o.eventIDLocked(e), Task: id, Lane: lane,
		Reason: reason, Start: now, End: -1,
	})
}

// closeWaitLocked ends task id's open wait edge, if any.
func (o *Observer) closeWaitLocked(id int, now time.Duration) {
	if i, ok := o.openWait[id]; ok {
		delete(o.openWait, id)
		o.waits[i].End = now
	}
}

// acquireLaneLocked hands out the lowest free lane, growing the lane
// set if tasks ever outnumber the declared workers (defensive; the
// Supervisor's slot discipline should prevent it).
func (o *Observer) acquireLaneLocked() int {
	for i, busy := range o.lanes {
		if !busy {
			o.lanes[i] = true
			return i
		}
	}
	o.lanes = append(o.lanes, true)
	return len(o.lanes) - 1
}

// busyDeltaLocked advances the occupancy integral to now, then applies
// d to the busy count.
func (o *Observer) busyDeltaLocked(now time.Duration, d int) {
	o.busyInt += float64(o.busy) * (now - o.lastBusyAt).Seconds()
	o.lastBusyAt = now
	o.busy += d
	if o.busy > o.peakBusy {
		o.peakBusy = o.busy
	}
}

// openSpanLocked starts a span for task id on a fresh lane.
func (o *Observer) openSpanLocked(id int, now time.Duration) {
	lane := o.acquireLaneLocked()
	o.busyDeltaLocked(now, +1)
	o.open[id] = &Span{Task: id, Lane: lane, Start: now}
}

// closeSpanLocked ends task id's running span, freeing its lane.
func (o *Observer) closeSpanLocked(id int, now time.Duration, reason string) {
	sp := o.open[id]
	if sp == nil {
		return
	}
	delete(o.open, id)
	sp.End = now
	sp.EndReason = reason
	o.closed = append(o.closed, *sp)
	if sp.Lane >= 0 && sp.Lane < len(o.lanes) {
		o.lanes[sp.Lane] = false
	}
	o.busyDeltaLocked(now, -1)
}

// TaskStarted notes task id's first dispatch onto a worker slot.
func (o *Observer) TaskStarted(id int) {
	if o == nil || id == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	if t := o.taskLocked(id); t != nil {
		t.Started = now
		t.HasRun = true
	}
	o.openSpanLocked(id, now)
}

// TaskBlocked notes that task id released its slot to wait on e (nil
// when the event is unknown; the block is counted but no edge opens).
func (o *Observer) TaskBlocked(id int, reason BlockReason, e *event.Event) {
	if o == nil || id == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	if t := o.taskLocked(id); t != nil {
		t.Blocks[reason]++
	}
	lane := -1
	if sp := o.open[id]; sp != nil {
		lane = sp.Lane
	}
	o.openWaitLocked(id, e, reason, lane, now)
	o.closeSpanLocked(id, now, "block-"+reason.String())
}

// TaskUnblocked notes that task id re-acquired a slot after a wait.
func (o *Observer) TaskUnblocked(id int) {
	if o == nil || id == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	o.closeWaitLocked(id, now)
	o.openSpanLocked(id, now)
}

// TaskBarrierBlocked notes a barrier wait: task id stalls on e while
// holding its worker slot (its span stays open; only a wait edge is
// recorded).
func (o *Observer) TaskBarrierBlocked(id int, e *event.Event) {
	if o == nil || id == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	if t := o.taskLocked(id); t != nil {
		t.Blocks[BlockBarrier]++
	}
	lane := -1
	if sp := o.open[id]; sp != nil {
		lane = sp.Lane
	}
	o.openWaitLocked(id, e, BlockBarrier, lane, now)
}

// TaskBarrierUnblocked closes task id's barrier wait.
func (o *Observer) TaskBarrierUnblocked(id int) {
	if o == nil || id == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closeWaitLocked(id, o.now())
}

// TaskFinished notes task id's completion (clean or panic-isolated).
func (o *Observer) TaskFinished(id int) {
	if o == nil || id == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	if t := o.taskLocked(id); t != nil {
		t.Finished = now
		t.Done = true
	}
	o.closeSpanLocked(id, now, "finish")
}

// TaskPanicked marks task id as panic-isolated (the task still
// finishes; its spans are tainted in the export).
func (o *Observer) TaskPanicked(id int) {
	if o == nil || id == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	lane := -1
	if sp := o.open[id]; sp != nil {
		lane = sp.Lane
	}
	if t := o.taskLocked(id); t != nil {
		t.Panicked = true
	}
	o.marks = append(o.marks, Mark{Kind: MarkPanic, Task: id, Lane: lane, At: now})
}

// WatchdogFired marks one deadlock-watchdog intervention.
func (o *Observer) WatchdogFired() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.marks = append(o.marks, Mark{Kind: MarkWatchdog, Lane: -1, At: o.now()})
}

// StallAbandoned marks one waiter giving up on a wedged foreign cache
// leader at the stall deadline.
func (o *Observer) StallAbandoned(id int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.marks = append(o.marks, Mark{Kind: MarkStallAbandon, Task: id, Lane: -1, At: o.now()})
}

// ReadySample records the ready-queue depth after one dispatch round.
func (o *Observer) ReadySample(depth int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.readySamples++
	o.readySum += int64(depth)
	if depth > o.readyPeak {
		o.readyPeak = depth
	}
	o.mu.Unlock()
}

// NoteCache attributes a compilation's own interface-cache Acquire
// outcomes to the observed run; they accumulate across the batch.
func (o *Observer) NoteCache(c ifacecache.Stats) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.cache = o.cache.Add(c)
	o.mu.Unlock()
}

// NoteStreams attributes a compilation's stream-cache tally, and the
// shared store's evictions during it, to the observed run; they
// accumulate across the batch.
func (o *Observer) NoteStreams(t streamcache.Tally, evictions int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.streams.Tally = o.streams.Tally.Add(t)
	o.streams.Evictions += evictions
	o.mu.Unlock()
}

// NoteSched attributes one Supervisor's dispatch traffic to the
// observed run.  Counters from several compilations of a batch
// accumulate.
func (o *Observer) NoteSched(c SchedCounters) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.sched.Add(c)
	o.mu.Unlock()
}

// NoteLookups attributes DKY lookup tallies to the observed run.
// Stats from several modules of a batch are merged.
func (o *Observer) NoteLookups(st *symtab.Stats) {
	if o == nil || st == nil {
		return
	}
	o.mu.Lock()
	if o.lookups == nil {
		o.lookups = symtab.NewStats()
	}
	agg := o.lookups
	o.mu.Unlock()
	// symtab.Stats has its own lock; merge outside ours to keep the
	// hook lock ordering trivial.
	agg.Add(st)
}

func (o *Observer) taskLocked(id int) *TaskRecord {
	if id < 1 || id > len(o.tasks) {
		return nil
	}
	return &o.tasks[id-1]
}

// wallLocked is the snapshot horizon: Finish's stamp, or now.
func (o *Observer) wallLocked() time.Duration {
	if o.ended > 0 {
		return o.ended
	}
	return o.now()
}

// snapshotSpans returns the closed spans plus every open span closed
// at the horizon, with the horizon used.
func (o *Observer) snapshotSpans() ([]Span, []TaskRecord, []Mark, time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	wall := o.wallLocked()
	spans := make([]Span, 0, len(o.closed)+len(o.open))
	spans = append(spans, o.closed...)
	for _, sp := range o.open {
		cp := *sp
		cp.End = wall
		cp.EndReason = "open"
		spans = append(spans, cp)
	}
	// Deterministic order — by start, then lane, then task — so trace
	// diffs and golden tests are stable across runs of the same record.
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].Lane != spans[j].Lane {
			return spans[i].Lane < spans[j].Lane
		}
		return spans[i].Task < spans[j].Task
	})
	tasks := make([]TaskRecord, len(o.tasks))
	copy(tasks, o.tasks)
	marks := make([]Mark, len(o.marks))
	copy(marks, o.marks)
	sort.SliceStable(marks, func(i, j int) bool { return marks[i].At < marks[j].At })
	return spans, tasks, marks, wall
}

// snapshotEdges returns sorted copies of the fire and wait edges, with
// still-open waits closed at the horizon.
func (o *Observer) snapshotEdges() (fires []FireEdge, waits []WaitEdge, events int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	wall := o.wallLocked()
	fires = make([]FireEdge, len(o.fires))
	copy(fires, o.fires)
	waits = make([]WaitEdge, len(o.waits))
	copy(waits, o.waits)
	for i := range waits {
		if waits[i].End < 0 {
			waits[i].End = wall
		}
	}
	sort.Slice(fires, func(i, j int) bool {
		if fires[i].At != fires[j].At {
			return fires[i].At < fires[j].At
		}
		return fires[i].Event < fires[j].Event
	})
	sort.Slice(waits, func(i, j int) bool {
		if waits[i].Start != waits[j].Start {
			return waits[i].Start < waits[j].Start
		}
		if waits[i].Task != waits[j].Task {
			return waits[i].Task < waits[j].Task
		}
		return waits[i].Event < waits[j].Event
	})
	return fires, waits, len(o.events)
}

// Dump takes the full deterministic snapshot consumed by the
// critical-path profiler and the obs→ctrace exporter.  Safe on a nil
// receiver (returns the zero Dump).
func (o *Observer) Dump() Dump {
	if o == nil {
		return Dump{}
	}
	spans, tasks, marks, wall := o.snapshotSpans()
	fires, waits, events := o.snapshotEdges()
	o.mu.Lock()
	workers, strategy, sched := o.workers, o.strategy, o.sched
	o.mu.Unlock()
	return Dump{
		Wall: wall, Workers: workers, Strategy: strategy, Events: events,
		Tasks: tasks, Spans: spans, Marks: marks, Fires: fires, Waits: waits,
		Sched: sched,
	}
}
