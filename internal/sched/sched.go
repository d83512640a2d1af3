// Package sched implements the Supervisors approach of §2.3.2: one
// worker slot per (virtual) processor, one ready queue ordered by the
// paper's task classes (§2.3.4), and the three event wait disciplines of
// §2.3.3:
//
//   - avoided events gate a task out of the ready queue entirely until
//     they fire;
//   - handled events release the task's worker slot while it waits, and
//     the Supervisor preferentially boosts the task that will fire the
//     event (§2.3.4); the fire readies the waiter, as it readies a
//     gated task, before the firer gives its slot up;
//   - barrier events hold the slot (token-queue consumers only; their
//     producers never block, so progress is guaranteed).
//
// Dispatch: the ready queue is one priority heap in the §2.3.4
// class-major order, guarded by the Supervisor's mutex together with the
// rest of its state.  Every freed worker slot runs the globally best
// ready task, whichever slot made it ready; internal/sim replays the
// same discipline, so the simulator and the runtime share one queue
// order at every processor count.
//
// Workers are resident: the goroutine that finishes a task runs the
// next unstarted task its slot dispatches, so a finish→start chain
// costs no goroutine start, stack regrowth or wake-up; a goroutine is
// started only where the granter cannot run the task itself (a spawner
// filling a free slot, a task giving its slot up to block), and a
// blocked task resumes on the goroutine it blocked on.  The paper's
// constraint that a worker finish the task it began was an artifact of
// binding Topaz threads to tasks; worker slots here are a prioritized
// counting semaphore, which removes that deadlock case without changing
// the scheduling policy (see DESIGN.md).
//
// Each worker slot has a lane, below the worker count, that passes with
// the slot from task to task.  A Recorder, when attached, is the one
// thing the Supervisor reports to: it times each task's stretches on its
// slot and hands them, with their lanes, and each wait's window to the
// task's ctrace.TaskCtx, and records forced fires and fault marks.  The
// stretches are the trace's measured clock; internal/obs renders them.
package sched

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
)

// ErrCanceled is the sentinel a task's wait raises when the compilation
// it belongs to has been canceled (Supervisor.Cancel).  It unwinds the
// task through the same panic-isolation path as a real fault — deferred
// queue seals run, produced events are force-fired so dependents never
// wedge — but is recognized in runGuarded and excluded from the fault
// count and the OnPanic report: cancellation is a request, not a bug.
var ErrCanceled = errors.New("compilation canceled")

// Priority computes a task's ready-queue priority: class-major (the
// §2.3.4 queue order), then larger sizes first within a class (code is
// generated for long procedures before short ones "to avoid a long
// sequential tail"), then spawn order.  Lower values run first.
func Priority(class ctrace.TaskKind, size int64) int64 {
	const classShift = 44
	if size < 0 {
		size = 0
	}
	if size >= 1<<classShift {
		size = 1<<classShift - 1
	}
	return int64(class)<<classShift - size
}

// Task is one schedulable unit of compilation work: one allocation
// holding its trace context, its done event and its scheduler state.
type Task struct {
	Ctx   *ctrace.TaskCtx // the task's own ctx
	Label string

	ctx  ctrace.TaskCtx
	done event.Event
	run  func(*Task)
	w    *worker // the worker running the task, set as it starts
	next *Task   // the Supervisor's task list

	// Scheduler state, under the Supervisor's mu.
	priority  int64 // raised by a §2.3.4 boost
	seq       int64
	produces  *produced // events registered to it by SetProducer
	stream    int32
	gatesLeft int32 // unfired events it counts in Supervisor.gateWaiters: its gates, or its handled wait's event
	heapIdx   int32 // index in the ready heap, -1 when absent
	lane      int32 // the lane of the slot it holds or last held
	started   bool
}

// produced lists the events a task was registered to produce.
type produced struct {
	e    *event.Event
	next *produced
}

// worker is a resident worker goroutine's state, shared by every task
// it runs: a blocked task keeps its goroutine, so one resume channel
// serves them all.
type worker struct {
	sup    *Supervisor
	resume chan struct{} // guards: slot handoff — one send re-admits the blocked task; made by its first wait
	onSlot time.Duration // when the traced task on it last took its slot, since the Supervisor's epoch
}

// Done returns the event fired when the task finishes.  Other tasks
// gate on it to sequence the stages of one stream.
func (t *Task) Done() *event.Event { return &t.done }

// Kind returns the task's class (used in fault reports).
func (t *Task) Kind() ctrace.TaskKind { return t.ctx.Kind }

// Stream returns the stream the task belongs to.
func (t *Task) Stream() int32 { return t.stream }

// BarrierWait performs a barrier-event wait: the worker slot is held
// (§2.3.3).  It makes a task the tokq.Waiter of its token readers.  The
// wait is noted unconditionally — token-block acquisitions are
// schedule-independent facts the simulator replays, whether or not this
// particular run had to block on them.
func (t *Task) BarrierWait(e *event.Event) {
	t.Ctx.NoteBarrier(e)
	if e.Fired() {
		return
	}
	s := t.w.sup
	if s.canceled.Load() {
		// The producer this wait depends on may already have been
		// discharged unrun; unwind instead of blocking a slot forever.
		panic(ErrCanceled)
	}
	from := s.clockOff(t)
	select {
	case <-e.Done():
	case <-s.cancelCh:
	}
	t.Ctx.Waited(e, ctrace.WaitBarrier, from, s.clockOn(t))
	if !e.Fired() {
		panic(ErrCanceled)
	}
}

// HandledWait performs a handled-event wait: the slot is released so
// another task (preferentially the event's producer) can run, and the
// fire readies t, as it readies a gated task.  It is the wait the
// symbol-table searcher uses for DKY blockages.  In a canceled
// compilation the watchdog's force-fire readies t, which unwinds here.
func (t *Task) HandledWait(e *event.Event) {
	if e.Fired() {
		return
	}
	s := t.w.sup
	from := s.block(t, e, false)
	<-t.w.resume
	t.Ctx.Waited(e, ctrace.WaitHandled, from, s.clockOn(t))
	if s.canceled.Load() {
		panic(ErrCanceled)
	}
}

// ExternalWait parks t on an event owned by *another* compilation (an
// interface-cache entry whose leader is a different session).  The
// worker slot is released like a handled wait, but the Supervisor's
// deadlock watchdog must neither force-fire the foreign event nor
// treat the stall as a scheduler bug: progress arrives from outside
// this compilation.  Only the trace's Run records the wait; its replayed
// facts show the cached scope pre-fired once installed.
//
// Because the producer lives outside this Supervisor's jurisdiction,
// the wait is bounded by StallTimeout: a foreign leader that wedges
// (or dies without failing its cache entry) must not stall this
// compilation forever.  ExternalWait reports whether the event fired;
// false means the deadline passed and the caller should abandon the
// foreign dependency and do the work itself.
func (t *Task) ExternalWait(e *event.Event) bool {
	if e.Fired() {
		return true
	}
	s := t.w.sup
	from := s.block(t, e, true)
	// Canceled: abandon the foreign dependency immediately; the caller's
	// fallback work is discharged unrun anyway.
	fired := e.Await(s.StallTimeout, s.cancelCh)
	s.mu.Lock()
	s.external--
	s.pushLocked(t)
	s.mu.Unlock()
	<-t.w.resume
	t.Ctx.Waited(e, ctrace.WaitExternal, from, s.clockOn(t))
	return fired
}

// Supervisor owns the worker slots and the ready queue.
type Supervisor struct {
	mu    sync.Mutex // guards: all scheduler state below, the ready heap included; cond's locker
	cond  *sync.Cond
	slots int
	idle  []int32 // the free slots' lanes, a stack

	ready taskHeap // runnable tasks in §2.3.4 order
	seq   int64

	tasks     *Task                  // every spawned task, newest first (Task.next)
	producers map[*event.Event]*Task // SetProducer registrations

	// Gate bookkeeping: the event.Subscribe installed by the Spawn that
	// adds a gate's key, or by each handled wait on it, batches the
	// release of every task counting it into one scheduler transaction.
	gateWaiters map[*event.Event][]*Task // event whose fire is unprocessed → tasks counting it
	onGate      func(*event.Event)       // gatesFired, bound once

	total    int
	finished int
	faults   int // tasks that panicked and were isolated
	external int // tasks in ExternalWait, woken from outside the compilation

	// canceled flips once when Cancel is called; checked lock-free on
	// every dispatch and wait so an abandoned compilation stops doing
	// work at the next task boundary.
	canceled atomic.Bool
	// cancelCh guards: cancellation broadcast — closed exactly once by
	// Cancel; every bounded wait selects on it so blocked tasks unwind
	// promptly instead of waiting for events that will never fire.
	cancelCh chan struct{}

	counters Counters // dispatch traffic
	exits    int64    // worker goroutines that returned (Exited)

	rec   *ctrace.Recorder // the one recorder of what the tasks do; nil when nobody records
	epoch time.Time        // the recorder's wall times count from here

	// OnDeadlock is invoked (outside the lock) with a description when
	// the watchdog breaks a stall; the driver reports it as an error.
	// The message includes a full scheduler state dump (ready queue,
	// blocked and parked tasks and the producers of the events they
	// wait on).
	OnDeadlock func(msg string)

	// OnPanic is invoked (outside the lock) when a task panics.  The
	// panic is contained: the Supervisor reports it here, force-fires
	// every unfired event the task was registered to produce (so
	// sibling streams unwedge instead of deadlocking on a producer
	// that will never come back), fires the task's Done event, and
	// releases the worker slot.  The driver converts the report into a
	// diagnostic and poisons the result.
	OnPanic func(t *Task, recovered any, stack []byte)

	// StallTimeout bounds ExternalWait: how long a task may park on an
	// event owned by a foreign compilation before abandoning it.  It
	// must be positive.  Set before the first Spawn.
	StallTimeout time.Duration
}

// Counters is a Supervisor's dispatch traffic and ready-queue depth;
// the counters of several compilations add up.
type Counters struct {
	Dispatches     int64 `json:"dispatches"` // tasks taken off the ready queue
	Handoffs       int64 `json:"handoffs"`   // releases that handed the slot directly onward
	Goroutines     int64 `json:"goroutines"` // worker goroutines started (resident workers run many tasks each)
	ReadyDepthSum  int64 `json:"-"`          // Σ ready-queue depth after each dispatch
	ReadyDepthPeak int64 `json:"-"`
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Dispatches += other.Dispatches
	c.Handoffs += other.Handoffs
	c.Goroutines += other.Goroutines
	c.ReadyDepthSum += other.ReadyDepthSum
	c.ReadyDepthPeak = max(c.ReadyDepthPeak, other.ReadyDepthPeak)
}

// New returns a Supervisor with the given number of worker slots
// (§2.3.2: one per processor).  rec may be nil.
func New(workers int, rec *ctrace.Recorder) *Supervisor {
	if workers < 1 {
		workers = 1
	}
	s := &Supervisor{
		slots: workers, idle: make([]int32, workers), rec: rec,
		cancelCh:    make(chan struct{}),
		producers:   make(map[*event.Event]*Task),
		gateWaiters: make(map[*event.Event][]*Task),
	}
	for i := range s.idle {
		s.idle[i] = int32(workers - 1 - i) // lane 0 on top
	}
	s.cond = sync.NewCond(&s.mu)
	s.onGate = s.gatesFired
	if rec != nil {
		s.epoch = time.Now()
		rec.SetClock(s.epoch, s.now)
	}
	return s
}

func (s *Supervisor) now() time.Duration { return time.Since(s.epoch) }

// Counters returns the dispatch-traffic counters accumulated so far.
func (s *Supervisor) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Exited counts the worker goroutines that have returned.  Each counts
// itself in the critical section that records its last task's finish,
// so once Wait returns it equals Counters().Goroutines unless a worker
// leaked.
func (s *Supervisor) Exited() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exits
}

// Cancel abandons the compilation: tasks not yet started are discharged
// without running (their produced events force-fired so nothing wedges),
// and every blocked wait unwinds at its next opportunity through the
// panic-isolation teardown (ErrCanceled).  Tasks already executing run
// to their next wait or to completion — cancellation is cooperative at
// task boundaries, never preemptive mid-mutation.  Wait still drains
// every registered task, so by the time it returns all worker slots are
// released and all led cache entries have been failed by the driver's
// end-of-compilation sweep.  Idempotent and safe from any goroutine.
func (s *Supervisor) Cancel() {
	if s.canceled.Swap(true) {
		return
	}
	close(s.cancelCh)
	s.mu.Lock()
	s.wakeWaitLocked()
	s.mu.Unlock()
}

// SetProducer declares that task t is the one that will fire e; the
// Supervisor uses this to run the DKY-resolving task preferentially
// when someone blocks on e (§2.3.4).
func (s *Supervisor) SetProducer(e *event.Event, t *Task) {
	s.mu.Lock()
	s.producers[e] = t
	t.produces = &produced{e, t.produces}
	s.mu.Unlock()
}

// Spawn registers a task.  parent supplies the creation stamp for the
// trace (nil for the initial tasks).  gates are the task's avoided
// events: it enters the ready queue only once all have fired.
func (s *Supervisor) Spawn(kind ctrace.TaskKind, stream int32, label string,
	priority int64, gates []*event.Event, parent *ctrace.TaskCtx, run func(*Task)) *Task {

	t := &Task{Label: label, run: run, priority: priority, stream: stream, heapIdx: -1}
	t.Ctx = &t.ctx
	t.ctx.Kind, t.ctx.Rec = kind, s.rec
	if s.rec != nil {
		t.ctx.ID = s.rec.RegisterTask(kind, stream, label)
		var pid ctrace.TaskID
		var at ctrace.Stamp
		if parent != nil {
			pid = parent.ID
			at = parent.Stamp()
		}
		s.rec.NoteSpawn(pid, at, t.ctx.ID, gates)
	}

	s.mu.Lock()
	s.total++
	t.seq = s.seq
	s.seq++
	t.next, s.tasks = s.tasks, t
	// Register against each gate that has not fired.  Fire sets the
	// flag before it runs subscribers, so a fired gate's release is done
	// or on its way.
	var buf [2]*event.Event
	fresh := buf[:0]
	for _, g := range gates {
		if !g.Fired() && s.gateLocked(t, g) {
			fresh = append(fresh, g)
		}
	}
	if t.gatesLeft == 0 {
		s.pushLocked(t)
	}
	s.mu.Unlock()

	for _, g := range fresh {
		g.Subscribe(s.onGate)
	}
	return t
}

// gateLocked counts t against unfired g and reports whether g's key is
// new, so that the caller must subscribe onGate to it.  Caller holds s.mu.
func (s *Supervisor) gateLocked(t *Task, g *event.Event) (fresh bool) {
	t.gatesLeft++
	waiters, subscribed := s.gateWaiters[g]
	s.gateWaiters[g] = append(waiters, t)
	return !subscribed
}

// gatesFired processes one event's fire: every task counting it is
// decremented, and all tasks it releases enter the ready queue under a
// single scheduler transaction, before any of them is dispatched.  A
// stall check that met the fired key waits for it: it wakes Wait.
func (s *Supervisor) gatesFired(g *event.Event) {
	s.mu.Lock()
	for _, t := range s.gateWaiters[g] {
		if t.gatesLeft--; t.gatesLeft == 0 {
			heap.Push(&s.ready, t)
		}
	}
	delete(s.gateWaiters, g)
	s.kickLocked()
	s.wakeWaitLocked()
	s.mu.Unlock()
}

// kickLocked grants free slots to ready tasks until one of them runs
// out.  Caller holds s.mu.
func (s *Supervisor) kickLocked() {
	for len(s.idle) > 0 && len(s.ready) > 0 {
		t := s.popLocked()
		n := len(s.idle) - 1
		t.lane, s.idle = s.idle[n], s.idle[:n]
		s.grantLocked(t)
	}
}

// pushLocked makes t ready and grants it a slot if one is free.  Caller
// holds s.mu.
func (s *Supervisor) pushLocked(t *Task) {
	heap.Push(&s.ready, t)
	s.kickLocked()
}

// popLocked takes the best ready task off the heap, which the caller
// has checked is non-empty.  Caller holds s.mu.
func (s *Supervisor) popLocked() *Task {
	t := heap.Pop(&s.ready).(*Task)
	s.counters.Dispatches++
	s.counters.ReadyDepthSum += int64(len(s.ready))
	s.counters.ReadyDepthPeak = max(s.counters.ReadyDepthPeak, int64(len(s.ready)))
	return t
}

// grantLocked hands a claimed slot to t, which the caller cannot run
// itself: an unstarted task gets a worker goroutine.  Caller holds s.mu.
func (s *Supervisor) grantLocked(t *Task) {
	if s.admitLocked(t) {
		s.counters.Goroutines++
		go s.work(t)
	}
}

// admitLocked gives a claimed slot to t.  A blocked task is resumed on
// the goroutine it blocked on; for an unstarted one admitLocked reports
// true and the caller supplies the goroutine.  Caller holds s.mu.
func (s *Supervisor) admitLocked(t *Task) (unstarted bool) {
	if !t.started {
		t.started = true
		return true
	}
	t.w.resume <- struct{}{}
	return false
}

// wakeWaitLocked wakes Wait on the only two transitions it can act on:
// the last task finished, or every slot is free (the stall check).
// Anything else would wake the driver once per task just to go back to
// sleep.  Caller holds s.mu.  This relies on Wait being the only
// sleeper on s.cond and on every critical section that bumps s.finished
// or frees a slot ending with this call, and gatesFired's; other pushes
// skip it, since they only add work.  A release site without it can
// strand Wait.
func (s *Supervisor) wakeWaitLocked() {
	if s.finished == s.total || len(s.idle) == s.slots {
		s.cond.Broadcast()
	}
}

// passLocked passes t's slot straight to the best ready task, which it
// returns, skipping the free-slot accounting entirely; with nothing
// ready it frees the slot and returns nil.  Caller holds s.mu and ends
// its critical section with wakeWaitLocked.
func (s *Supervisor) passLocked(t *Task) *Task {
	if len(s.ready) == 0 {
		s.idle = append(s.idle, t.lane)
		return nil
	}
	s.counters.Handoffs++
	next := s.popLocked()
	next.lane = t.lane
	return next
}

// handoffLocked gives up t's slot, which it holds and is about to block
// on, to the best ready task.  Caller holds s.mu.
func (s *Supervisor) handoffLocked(t *Task) {
	if next := s.passLocked(t); next != nil {
		s.grantLocked(next)
	}
	s.wakeWaitLocked()
}

// work is a resident worker: it runs t and then, on the same goroutine,
// every unstarted task its slot dispatches next.  It returns when the
// slot passes to a resumed task (which continues on its own goroutine)
// or is given back for want of work.
func (s *Supervisor) work(t *Task) {
	w := &worker{sup: s}
	for {
		t.w = w
		s.clockOn(t)
		t.Ctx.Add(ctrace.CostTaskStart)
		s.runGuarded(t)
		t.Ctx.FireEvent(&t.done)
		s.clockOff(t)
		t.Ctx.Finish()
		s.mu.Lock()
		s.finished++
		next := s.passLocked(t)
		mine := next != nil && s.admitLocked(next)
		if !mine {
			s.exits++
		}
		s.wakeWaitLocked()
		s.mu.Unlock()
		if !mine {
			return
		}
		t = next
	}
}

// clockOn starts a traced task's stretch as it takes its slot, or goes
// on after a barrier wait; clockOff ends it as the task finishes or
// waits, and hands it to the task's TaskCtx.  Each returns the time it
// read, 0 when untraced.
func (s *Supervisor) clockOn(t *Task) time.Duration {
	if s.rec != nil {
		t.w.onSlot = s.now()
	}
	return t.w.onSlot
}

func (s *Supervisor) clockOff(t *Task) time.Duration {
	if s.rec == nil {
		return 0
	}
	end := s.now()
	t.Ctx.Ran(int(t.lane), t.w.onSlot, end)
	return end
}

// runGuarded runs the task body with panic isolation: a panicking task
// is contained to its own stream instead of crashing the process.  The
// recovery reports the fault through OnPanic, then force-fires every
// unfired event the task was registered (via SetProducer) to produce —
// sibling streams blocked on those events resume and run to completion
// rather than wedging until the deadlock watchdog.  The caller (work)
// then fires Done and releases the slot exactly as for a clean finish.
func (s *Supervisor) runGuarded(t *Task) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if r != ErrCanceled { // a cooperative cancellation unwind is not a fault
			stack := debug.Stack()
			s.mu.Lock()
			s.faults++
			cb := s.OnPanic
			s.mu.Unlock()
			s.rec.NoteMark(ctrace.MarkPanic, t.Ctx.ID)
			if cb != nil {
				cb(t, r, stack)
			}
		}
		// The deferred seals already ran during the unwind; force-fire
		// what the task still owed and let work finish it normally.
		s.forceFireProduced(t)
	}()
	if s.canceled.Load() {
		// Granted after cancellation: discharge without running the
		// body, through the same teardown, so dependents that started
		// before the cancellation never wedge on this task.
		panic(ErrCanceled)
	}
	t.run(t)
}

// forceFireProduced force-fires every unfired event the task is still
// registered (via SetProducer) to produce, so sibling streams blocked
// on them resume instead of wedging until the deadlock watchdog.  The
// task's own Done event is not among them: work fires it on the normal
// path.  Shared by the panic-isolation and cancellation-discharge
// teardowns; it walks the task's own list, so a teardown costs what the
// task produces.
func (s *Supervisor) forceFireProduced(t *Task) {
	s.mu.Lock()
	var fires []*event.Event
	for p := t.produces; p != nil; p = p.next {
		if s.producers[p.e] == t && !p.e.Fired() {
			fires = append(fires, p.e)
		}
	}
	s.mu.Unlock()
	for _, e := range fires {
		s.rec.NoteFire(e, 0, true)
		e.Fire() // vet:allowfire forced fire on a dead or discharged task's behalf; NoteFire is the record
	}
}

// Faults reports how many tasks panicked and were isolated.
func (s *Supervisor) Faults() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// block gives up t's slot because it is about to wait on e, which
// another compilation owns when external.  A handled waiter subscribes
// to e, then counts it, so e's fire readies it while the firer holds
// its slot (with several waiters, all gatesFired calls but the first
// find nothing left to do); an external one is counted and readies
// itself.  The slot is handed straight to the best ready task —
// preferentially the producer that resolves the blockage, whose
// priority is first raised above every class (§2.3.4).  It returns when
// the wait began, as clockOff read it.
func (s *Supervisor) block(t *Task, e *event.Event, external bool) time.Duration {
	if !external {
		e.Subscribe(s.onGate)
	}
	from := s.clockOff(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.producers[e]; ok && p.heapIdx >= 0 {
		p.priority = -1 << 62
		heap.Fix(&s.ready, int(p.heapIdx))
	}
	if t.w.resume == nil {
		t.w.resume = make(chan struct{}, 1)
	}
	switch {
	case external:
		s.external++
	case e.Fired():
		// e fired since HandledWait looked: t keeps its slot and goes on.
		t.w.resume <- struct{}{}
		return from
	default:
		s.gateLocked(t, e)
	}
	s.handoffLocked(t)
	return from
}

// Wait blocks until every spawned task has finished.  It breaks DKY
// deadlocks (possible only for erroneous programs, e.g. cyclic imports)
// by force-firing the events stalled tasks wait on, so compilation
// always terminates with diagnostics instead of hanging.
func (s *Supervisor) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.finished < s.total {
		var fires []*event.Event
		if len(s.idle) == s.slots && len(s.ready) == 0 && s.external == 0 {
			// A stall: every task left counts an event in gateWaiters.
			if len(s.gateWaiters) == 0 {
				return // tasks vanished without finishing: a scheduler bug; bail out rather than hang
			}
			fires = s.stallFiresLocked() // nil while a fired event's release is on its way
		}
		if fires == nil {
			s.cond.Wait()
			continue
		}
		// A canceled teardown's residual gates are expected (their
		// producers were discharged unrun): fire them so the drain
		// completes, but report no deadlock; the result is canceled.
		var msg string
		if !s.canceled.Load() {
			msg = "DKY deadlock broken: compilation cannot make progress (cyclic imports or missing declarations)\n" +
				s.stateDumpLocked()
		}
		cb := s.OnDeadlock
		s.mu.Unlock()
		if msg != "" {
			s.rec.NoteMark(ctrace.MarkWatchdog, 0)
			if cb != nil {
				cb(msg)
			}
		}
		for _, e := range fires {
			s.rec.NoteFire(e, 0, true)
			e.Fire() // vet:allowfire watchdog force-fire; NoteFire is the record
		}
		s.mu.Lock()
	}
}

// stallFiresLocked returns the events whose force-fire breaks a stall:
// those blocked tasks wait on, the newest waiter's first, or else the
// parked tasks' gates.  It returns nil while a fired event's release
// has yet to run.  Caller holds s.mu.
func (s *Supervisor) stallFiresLocked() []*event.Event {
	var blocked, parked []*event.Event
	newest := make(map[*event.Event]int64) // 1 + the seq of an event's newest blocked waiter
	for g, waiters := range s.gateWaiters {
		if g.Fired() {
			return nil
		}
		for _, t := range waiters {
			if t.started {
				newest[g] = max(newest[g], t.seq+1)
			}
		}
		if newest[g] > 0 {
			blocked = append(blocked, g)
		} else {
			parked = append(parked, g)
		}
	}
	if len(blocked) == 0 {
		return parked
	}
	slices.SortFunc(blocked, func(a, b *event.Event) int { return cmp.Compare(newest[b], newest[a]) })
	return blocked
}

// stateDumpLocked renders the scheduler's full state — the ready queue,
// blocked and parked tasks, and for every awaited event its
// registered producer — so a DKY deadlock report names the stuck tasks
// instead of leaving the user to guess.  Lines within each section are
// sorted for deterministic output.  Caller holds s.mu.
func (s *Supervisor) stateDumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler state: %d/%d tasks finished, %d/%d slots free, %d faults\n",
		s.finished, s.total, len(s.idle), s.slots, s.faults)
	section := func(title string, lines []string) {
		if len(lines) == 0 {
			return
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "  %s:\n", title)
		for _, l := range lines {
			fmt.Fprintf(&b, "    %s\n", l)
		}
	}
	// An event is named by its registered producer, the only identity
	// events have; a task's Done event by the task.
	producer := make(map[*event.Event]*Task, len(s.producers))
	for t := s.tasks; t != nil; t = t.next {
		producer[&t.done] = t
	}
	for e, p := range s.producers {
		producer[e] = p
	}
	desc := func(e *event.Event) string {
		if p, ok := producer[e]; ok {
			return fmt.Sprintf("event produced by %q", p.Label)
		}
		return "event with no registered producer"
	}
	unfired := make(map[*Task][]string) // the blocked and parked tasks' events
	for g, waiters := range s.gateWaiters {
		for _, t := range waiters {
			unfired[t] = append(unfired[t], desc(g))
		}
	}
	var runnable, blocked, parked []string
	for _, t := range s.ready {
		runnable = append(runnable, t.Label)
	}
	for t, events := range unfired {
		if t.started {
			blocked = append(blocked, fmt.Sprintf("%s waits on %s", t.Label, events[0]))
		} else {
			sort.Strings(events)
			parked = append(parked, fmt.Sprintf("%s gated on %d event(s): %s",
				t.Label, len(events), strings.Join(events, ", ")))
		}
	}
	section("runnable", runnable)
	section("blocked (handled waits)", blocked)
	section("parked (avoided gates)", parked)
	return strings.TrimRight(b.String(), "\n")
}

// taskHeap orders runnable tasks by (priority, seq).
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = int32(i)
	h[j].heapIdx = int32(j)
}
func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	t.heapIdx = int32(len(*h))
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}
