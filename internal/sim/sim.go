// Package sim is the multiprocessor substitute for the paper's DEC
// Firefly: a deterministic discrete-event simulation of the Supervisor
// scheduling policy (§2.3) over a recorded compilation trace.
//
// The trace (internal/ctrace) holds only schedule-independent facts —
// task costs in deterministic work units, event fire/wait offsets, task
// spawn points with their avoided-event gates, and per-lookup scope
// resolution facts.  Replaying those facts under the Supervisor policy
// for any processor count P and any DKY strategy reproduces the paper's
// speedup experiments (Figures 1–3, Table 3), activity timelines
// (Figures 4 and 7) and lookup statistics (Table 2) without parallel
// hardware.  An optional memory-bus contention model reproduces the
// Firefly's documented saturation behaviour (§4.1): with beta > 0,
// every executing processor slows by a factor 1 + beta·(busy−1).
package sim

import (
	"container/heap"

	"sort"

	"m2cc/internal/ctrace"
	"m2cc/internal/sched"
	"m2cc/internal/symtab"
)

// Options configure one simulation run.
type Options struct {
	// Processors is the simulated machine size (the paper sweeps 1–8).
	Processors int
	// Strategy selects the DKY handling to model.
	Strategy symtab.Strategy
	// Beta is the memory-bus contention coefficient (0 disables;
	// DefaultBeta approximates the Firefly's reported saturation).
	Beta float64
	// Startup is a fixed serial cost (work units) charged before any
	// task runs: compiler start-up, file-system traffic and result
	// writing, which the paper's wall-clock measurements include.  Its
	// presence is what limits small compilations to ~2.5x speedup
	// (§4.2: "the speedup obtainable through concurrent processing is
	// limited for small programs").  Self-relative speedups include it
	// on both sides of the ratio.
	Startup float64
	// LongBeforeShort applies §2.3.4's long-procedures-first ordering
	// (the paper's choice); false is the ablation.
	LongBeforeShort bool
	// BoostResolver applies §2.3.4's preference for running the task
	// that resolves a DKY blockage; false is the ablation.
	BoostResolver bool
	// CollectStats tallies Table 2 lookup statistics.
	CollectStats bool
	// CollectTimeline records per-processor activity intervals
	// (Figures 4 and 7).
	CollectTimeline bool
}

// DefaultBeta is the bus-contention coefficient used by the benchmark
// harness.
const DefaultBeta = 0.015

// Strategy overheads (work units), modelling the implementation costs
// the paper discusses: Skeptical re-searches a table after a DKY wait;
// Optimistic pays for creating and signaling one event per searched-for
// symbol, which is why its better self-relative speedup does not
// translate into better compile times (§2.3.3).
const (
	costResearch           = ctrace.CostLookupHop
	costOptimisticLookup   = 1.2
	costOptimisticBlockage = 12.0
)

// Interval is one stretch of processor activity.
type Interval struct {
	Proc  int
	Task  ctrace.TaskID
	Kind  ctrace.TaskKind
	Start float64
	End   float64
}

// Result is the outcome of one simulation.
type Result struct {
	Makespan float64
	BusyTime float64 // total executing time across processors
	Blocks   int64   // DKY blockages taken
	Stats    *symtab.Stats
	Timeline []Interval
}

// Utilization returns BusyTime / (P * Makespan); 0 when the run is
// empty (Makespan 0) or p is not a positive processor count — a
// division by p <= 0 would report a negative or infinite utilization.
func (r *Result) Utilization(p int) float64 {
	if r.Makespan <= 0 || p <= 0 {
		return 0
	}
	return r.BusyTime / (float64(p) * r.Makespan)
}

// actionKind discriminates task breakpoints.
type actionKind uint8

const (
	actFire actionKind = iota
	actWait
	actLookup
	actSpawn
	actFinish
)

// action is one breakpoint in a task's execution.
type action struct {
	off    float64
	kind   actionKind
	event  ctrace.EventID
	lookup *ctrace.LookupRecord
	spawn  *ctrace.SpawnRecord
}

// taskState tracks one task during simulation.
type taskState struct {
	id       ctrace.TaskID
	info     *ctrace.TaskInfo
	actions  []action
	nextAct  int
	progress float64 // executed work units (original-offset coordinates)
	extra    float64 // strategy-dependent extra work still to burn

	gatesLeft int
	spawned   bool
	priority  int64
	seq       int64
	heapIdx   int

	state tstate
	// hop progress for a lookup interrupted by a DKY wait
	pendingLookup *ctrace.LookupRecord
	pendingHop    int
	hopBlocked    bool

	proc int // processor while running/stalled
}

type tstate uint8

const (
	tsUnborn tstate = iota // not yet spawned
	tsGated                // spawned, waiting on avoided events
	tsReady                // in the ready queue
	tsRunning
	tsStalled // barrier wait, holding its processor
	tsBlocked // handled wait, processor released
	tsDone
)

// Sim is one simulation instance.  Build with New, run with Run.
type Sim struct {
	opts  Options
	trace *ctrace.Trace

	tasks   map[ctrace.TaskID]*taskState
	order   []*taskState // task-ID order, for determinism
	fired   map[ctrace.EventID]float64
	firerOf map[ctrace.EventID]ctrace.TaskID

	// event → tasks to wake / gates to decrement when it fires
	waiters map[ctrace.EventID][]*taskState
	gated   map[ctrace.EventID][]*taskState

	// offset watchers (Optimistic per-symbol events): producer task →
	// sorted watcher offsets with waiting tasks
	watchers map[ctrace.TaskID][]watcher

	ready taskHeap
	procs []*proc
	now   float64
	seq   int64

	stats  *symtab.Stats
	blocks int64
	busy   float64
	tl     []Interval
	remain int // unfinished tasks
}

type watcher struct {
	off  float64
	task *taskState
}

type proc struct {
	idx     int
	task    *taskState // nil = idle
	stalled bool       // barrier wait: occupied but not executing
	segLeft float64    // work units until the running task's next action
	started float64    // interval start (timeline)
}

// New prepares a simulation of trace under opts.
func New(trace *ctrace.Trace, opts Options) *Sim {
	if opts.Processors < 1 {
		opts.Processors = 1
	}
	s := &Sim{
		opts: opts, trace: trace,
		tasks:    make(map[ctrace.TaskID]*taskState, len(trace.Tasks)),
		fired:    make(map[ctrace.EventID]float64),
		firerOf:  make(map[ctrace.EventID]ctrace.TaskID),
		waiters:  make(map[ctrace.EventID][]*taskState),
		gated:    make(map[ctrace.EventID][]*taskState),
		watchers: make(map[ctrace.TaskID][]watcher),
	}
	if opts.CollectStats {
		s.stats = symtab.NewStats()
	}
	for i := range trace.Tasks {
		info := &trace.Tasks[i]
		ts := &taskState{id: info.ID, info: info, heapIdx: -1, state: tsUnborn}
		ts.priority = s.priorityOf(info)
		s.tasks[info.ID] = ts
		s.order = append(s.order, ts)
	}
	s.buildActions()
	for i := 0; i < opts.Processors; i++ {
		s.procs = append(s.procs, &proc{idx: i})
	}
	return s
}

// priorityOf maps a task to its ready-queue priority, honouring the
// long-before-short ablation switch.
func (s *Sim) priorityOf(info *ctrace.TaskInfo) int64 {
	kind := info.Kind
	if !s.opts.LongBeforeShort && kind == ctrace.KindLongStmtCG {
		kind = ctrace.KindShortStmtCG
	}
	size := int64(info.Cost)
	if !s.opts.LongBeforeShort {
		size = 0
	}
	return sched.Priority(kind, size)
}

// buildActions converts the trace into per-task sorted breakpoints.
func (s *Sim) buildActions() {
	add := func(id ctrace.TaskID, a action) {
		if ts := s.tasks[id]; ts != nil {
			ts.actions = append(ts.actions, a)
		}
	}
	for i := range s.trace.Fires {
		f := &s.trace.Fires[i]
		if f.At.Task == 0 {
			// Pre-task fire (none in healthy traces): already available.
			s.fired[f.Event] = 0
			continue
		}
		s.firerOf[f.Event] = f.At.Task
		add(f.At.Task, action{off: f.At.Offset, kind: actFire, event: f.Event})
	}
	for i := range s.trace.Waits {
		w := &s.trace.Waits[i]
		add(w.At.Task, action{off: w.At.Offset, kind: actWait, event: w.Event})
	}
	for i := range s.trace.Lookups {
		l := &s.trace.Lookups[i]
		add(l.At.Task, action{off: l.At.Offset, kind: actLookup, lookup: l})
	}
	for i := range s.trace.Spawns {
		sp := &s.trace.Spawns[i]
		if sp.Parent == 0 {
			continue // initial tasks, handled in Run
		}
		add(sp.Parent, action{off: sp.At.Offset, kind: actSpawn, spawn: sp})
	}
	for _, ts := range s.order {
		ts.actions = append(ts.actions, action{off: ts.info.Cost, kind: actFinish})
		acts := ts.actions
		sort.SliceStable(acts, func(i, j int) bool { return acts[i].off < acts[j].off })
	}
}

// gatesFor returns a spawn's avoided events plus, under Avoidance, the
// parent-scope completion gates.
func (s *Sim) gatesFor(id ctrace.TaskID, spawnGates []ctrace.EventID) []ctrace.EventID {
	gates := append([]ctrace.EventID(nil), spawnGates...)
	if s.opts.Strategy == symtab.Avoidance {
		gates = append(gates, s.trace.ScopeGates[id]...)
	}
	return gates
}

// spawnTask introduces a task at the current time.
func (s *Sim) spawnTask(ts *taskState, gates []ctrace.EventID) {
	if ts.spawned {
		return
	}
	ts.spawned = true
	ts.seq = s.seq
	s.seq++
	pending := 0
	for _, g := range gates {
		if _, ok := s.fired[g]; !ok {
			pending++
			s.gated[g] = append(s.gated[g], ts)
		}
	}
	ts.gatesLeft = pending
	if pending == 0 {
		s.makeReady(ts)
	} else {
		ts.state = tsGated
	}
}

func (s *Sim) makeReady(ts *taskState) {
	ts.state = tsReady
	heap.Push(&s.ready, ts)
}

// fire marks an event fired at the current time, waking gated and
// blocked tasks.
func (s *Sim) fire(ev ctrace.EventID) {
	if _, ok := s.fired[ev]; ok {
		return
	}
	s.fired[ev] = s.now
	for _, ts := range s.gated[ev] {
		ts.gatesLeft--
		if ts.gatesLeft == 0 && ts.state == tsGated {
			s.makeReady(ts)
		}
	}
	delete(s.gated, ev)
	for _, ts := range s.waiters[ev] {
		switch ts.state {
		case tsBlocked:
			s.makeReady(ts)
		case tsStalled:
			// Barrier waiter: its processor resumes.
			p := s.procs[ts.proc]
			p.stalled = false
			ts.state = tsRunning
			p.started = s.now
			s.computeSegment(p)
		}
	}
	delete(s.waiters, ev)
	s.checkWatchers()
}

// checkWatchers wakes Optimistic per-symbol waiters whose producer has
// reached the watched offset.
func (s *Sim) checkWatchers() {
	for id, ws := range s.watchers {
		prod := s.tasks[id]
		kept := ws[:0]
		for _, w := range ws {
			if prod == nil || prod.state == tsDone || prod.progress >= w.off {
				if w.task.state == tsBlocked {
					s.makeReady(w.task)
				}
			} else {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			delete(s.watchers, id)
		} else {
			s.watchers[id] = kept
		}
	}
}

// computeSegment sets how much work the running task must execute to
// reach its next action.
func (s *Sim) computeSegment(p *proc) {
	ts := p.task
	if ts.extra > 0 {
		p.segLeft = ts.extra
		return
	}
	if ts.nextAct < len(ts.actions) {
		p.segLeft = ts.actions[ts.nextAct].off - ts.progress
		if p.segLeft < 0 {
			p.segLeft = 0
		}
		return
	}
	p.segLeft = 0
}
