// Package sched implements the Supervisors approach of §2.3.2: one
// worker slot per (virtual) processor, one ready queue ordered by the
// paper's task classes (§2.3.4), and the three event wait disciplines of
// §2.3.3:
//
//   - avoided events gate a task out of the ready queue entirely until
//     they fire;
//   - handled events release the task's worker slot while it waits, and
//     the Supervisor preferentially boosts the task that will fire the
//     event (§2.3.4);
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
// With a Recorder attached the Supervisor also times every task on its
// slot, from taking it to leaving it, and hands each stretch to the
// task's ctrace.TaskCtx: the measured clock the trace carries beside
// its work units.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
	"m2cc/internal/obs"
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

// Task is one schedulable unit of compilation work.
type Task struct {
	Ctx   *ctrace.TaskCtx
	Label string

	sup      *Supervisor
	kind     ctrace.TaskKind
	started  bool
	stream   int32
	priority int64 // raised by a §2.3.4 boost, under the Supervisor's mu
	seq      int64
	run      func(*Task)
	done     *event.Event

	gatesLeft int
	resume    chan struct{} // guards: slot handoff — one send re-admits this blocked task
	heapIdx   int           // index in the ready heap, -1 when absent
	obsID     int           // observability-layer task ID (0 = unobserved)
	onSlot    time.Duration // when a traced task last took its slot, since the Supervisor's epoch
}

// Done returns the event fired when the task finishes.  Other tasks
// gate on it to sequence the stages of one stream.
func (t *Task) Done() *event.Event { return t.done }

// Kind returns the task's class (used in fault reports).
func (t *Task) Kind() ctrace.TaskKind { return t.kind }

// Stream returns the stream the task belongs to.
func (t *Task) Stream() int32 { return t.stream }

// ObsID returns the task's observability-layer ID (0 when the
// compilation runs unobserved); the driver uses it to attribute
// stall-abandonment marks to the right task.
func (t *Task) ObsID() int { return t.obsID }

// BarrierWait performs a barrier-event wait: the worker slot is held
// (§2.3.3).  It is the WaitFunc handed to token-queue readers.  The
// wait is noted unconditionally — token-block acquisitions are
// schedule-independent facts the simulator replays, whether or not this
// particular run had to block on them.
func (t *Task) BarrierWait(e *event.Event) {
	t.Ctx.NoteBarrier(e)
	if e.Fired() {
		return
	}
	s := t.sup
	if s.canceled.Load() {
		// The producer this wait depends on may already have been
		// discharged unrun; unwind instead of blocking a slot forever.
		panic(ErrCanceled)
	}
	s.clockOff(t)
	s.Obs.TaskBarrierBlocked(t.obsID, e)
	select {
	case <-e.WaitChan():
	case <-s.cancelCh:
	}
	s.Obs.TaskBarrierUnblocked(t.obsID)
	s.clockOn(t)
	if !e.Fired() {
		panic(ErrCanceled)
	}
}

// HandledWait performs a handled-event wait: the slot is released so
// another task (preferentially the event's producer) can run, and
// re-acquired once the event fires.  It is the wait the symbol-table
// searcher uses for DKY blockages.
func (t *Task) HandledWait(e *event.Event) {
	if e.Fired() {
		return
	}
	s := t.sup
	s.clockOff(t)
	s.releaseForWait(t, e)
	select {
	case <-e.WaitChan():
	case <-s.cancelCh:
	}
	// Reacquire before unwinding so the slot accounting stays exact:
	// the cancellation panic is raised from inside the task body, where
	// the normal finish path releases the slot.
	s.reacquire(t)
	s.clockOn(t)
	if !e.Fired() {
		panic(ErrCanceled)
	}
}

// ExternalWait parks t on an event owned by *another* compilation (an
// interface-cache entry whose leader is a different session).  The
// worker slot is released like a handled wait, but the Supervisor's
// deadlock watchdog must neither force-fire the foreign event nor
// treat the stall as a scheduler bug: progress arrives from outside
// this compilation.  The wait is not traced — in the trace the cached
// scope appears pre-fired once installed.
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
	s := t.sup
	s.clockOff(t)
	s.mu.Lock()
	s.Obs.TaskBlocked(t.obsID, obs.BlockExternal, e)
	s.external[t] = e
	s.handoffLocked()
	s.mu.Unlock()
	fired := true
	if s.StallTimeout > 0 {
		timer := time.NewTimer(s.StallTimeout)
		select {
		case <-e.Done():
		case <-timer.C:
			// The fire may have raced the deadline; a fired event is
			// never reported as a stall.
			fired = e.Fired()
		case <-s.cancelCh:
			// Canceled: abandon the foreign dependency immediately; the
			// caller's fallback work is discharged unrun anyway.
			fired = e.Fired()
		}
		timer.Stop()
	} else {
		select {
		case <-e.WaitChan():
		case <-s.cancelCh:
			fired = e.Fired()
		}
	}
	s.mu.Lock()
	delete(s.external, t)
	s.pushLocked(t)
	s.mu.Unlock()
	<-t.resume
	s.clockOn(t)
	return fired
}

// Supervisor owns the worker slots and the ready queue.
type Supervisor struct {
	mu    sync.Mutex // guards: all scheduler state below, the ready heap included; cond's locker
	cond  *sync.Cond
	slots int
	free  int

	ready taskHeap // runnable tasks in §2.3.4 order
	seq   int64

	producers map[*event.Event]*Task
	blocked   map[*Task]*event.Event
	parked    map[*Task][]*event.Event
	external  map[*Task]*event.Event // waits on events owned by other compilations

	// Gate bookkeeping: one event.Subscribe per distinct gate event,
	// batching the release of every task it gates into a single
	// scheduler transaction when it fires.
	gateWaiters map[*event.Event][]*Task // unfired gate → tasks counting it
	gateDone    map[*event.Event]bool    // gates whose fire was processed
	gateSub     map[*event.Event]bool    // gates with a subscription installed

	total    int
	finished int
	faults   int // tasks that panicked and were isolated
	skips    int // tasks discharged unrun after cancellation

	// canceled flips once when Cancel is called; checked lock-free on
	// every dispatch and wait so an abandoned compilation stops doing
	// work at the next task boundary.
	canceled atomic.Bool
	// cancelCh guards: cancellation broadcast — closed exactly once by
	// Cancel; every bounded wait selects on it so blocked tasks unwind
	// promptly instead of waiting for events that will never fire.
	cancelCh chan struct{}

	counters obs.SchedCounters // dispatch traffic
	exits    int64             // worker goroutines that returned (Exited)

	rec   *ctrace.Recorder
	epoch time.Time // traced tasks' slot times count from here

	// OnDeadlock is invoked (outside the lock) with a description when
	// the watchdog breaks a stall; the driver reports it as an error.
	// The message includes a full scheduler state dump (ready queue,
	// blocked/parked/external tasks and the producers of the events
	// they wait on).
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
	// event owned by a foreign compilation before abandoning it.
	// Zero or negative waits forever.  Set before the first Spawn.
	StallTimeout time.Duration

	// Obs, when non-nil, receives live-observability hooks at every
	// task transition (spawn, dispatch, block, unblock, finish, panic,
	// watchdog fire).  Nil reduces every hook to a pointer check, the
	// same discipline as faultinject.  Set before the first Spawn.
	Obs *obs.Observer
}

// New returns a Supervisor with the given number of worker slots
// (§2.3.2: one per processor).  rec may be nil.
func New(workers int, rec *ctrace.Recorder) *Supervisor {
	if workers < 1 {
		workers = 1
	}
	s := &Supervisor{
		slots: workers, free: workers, rec: rec,
		cancelCh:    make(chan struct{}),
		producers:   make(map[*event.Event]*Task),
		blocked:     make(map[*Task]*event.Event),
		parked:      make(map[*Task][]*event.Event),
		external:    make(map[*Task]*event.Event),
		gateWaiters: make(map[*event.Event][]*Task),
		gateDone:    make(map[*event.Event]bool),
		gateSub:     make(map[*event.Event]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	if rec != nil {
		s.epoch = time.Now()
	}
	return s
}

// Counters returns the dispatch-traffic counters accumulated so far.
func (s *Supervisor) Counters() obs.SchedCounters {
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

// Canceled reports whether Cancel has been called.
func (s *Supervisor) Canceled() bool { return s.canceled.Load() }

// Skipped reports how many tasks were discharged unrun after
// cancellation.
func (s *Supervisor) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skips
}

// SetProducer declares that task t is the one that will fire e; the
// Supervisor uses this to run the DKY-resolving task preferentially
// when someone blocks on e (§2.3.4).
func (s *Supervisor) SetProducer(e *event.Event, t *Task) {
	s.mu.Lock()
	s.producers[e] = t
	s.mu.Unlock()
}

// Spawn registers a task.  parent supplies the creation stamp for the
// trace (nil for the initial tasks).  gates are the task's avoided
// events: it enters the ready queue only once all have fired.
func (s *Supervisor) Spawn(kind ctrace.TaskKind, stream int32, label string,
	priority int64, gates []*event.Event, parent *ctrace.TaskCtx, run func(*Task)) *Task {

	ctx := &ctrace.TaskCtx{Kind: kind, Rec: s.rec}
	if s.rec != nil {
		ctx.ID = s.rec.RegisterTask(kind, stream, label)
		var pid ctrace.TaskID
		var at ctrace.Stamp
		if parent != nil {
			pid = parent.ID
			at = parent.Stamp()
		}
		s.rec.NoteSpawn(pid, at, ctx.ID, gates)
	}
	parentObs := 0
	if parent != nil {
		parentObs = parent.ObsID
	}
	t := &Task{
		Ctx: ctx, Label: label, sup: s, kind: kind, stream: stream, priority: priority,
		run: run, done: event.New(), resume: make(chan struct{}, 1), heapIdx: -1,
		obsID: s.Obs.TaskSpawned(kind, stream, label, parentObs, gates),
	}
	if obsv := s.Obs; obsv != nil && t.obsID != 0 {
		// Edge capture: every event this task fires through its TaskCtx
		// is attributed to it, before the fire lands (so waiters' unblock
		// edges always follow the fire edge).
		ctx.ObsID = t.obsID
		id := t.obsID
		ctx.OnFire = func(e *event.Event) { obsv.EventFired(id, e) }
	}

	s.mu.Lock()
	s.total++
	t.seq = s.seq
	s.seq++
	// The task's finish event gains it as producer, so a handled wait
	// on it boosts the task (§2.3.4).
	s.producers[t.done] = t
	// Register against each gate that has not yet been seen to fire;
	// one subscription per distinct event covers every waiter, past and
	// future, in a single batched release.
	var fresh []*event.Event
	for _, g := range gates {
		if s.gateDone[g] || g.Fired() {
			continue
		}
		t.gatesLeft++
		s.gateWaiters[g] = append(s.gateWaiters[g], t)
		if !s.gateSub[g] {
			s.gateSub[g] = true
			fresh = append(fresh, g)
		}
	}
	if t.gatesLeft == 0 {
		s.pushLocked(t)
		s.mu.Unlock()
		return t
	}
	s.parked[t] = gates
	s.mu.Unlock()

	for _, g := range fresh {
		g := g
		g.Subscribe(func() { s.gatesFired(g) })
	}
	return t
}

// gatesFired processes one gate event's fire: every task counting it is
// decremented, and all tasks it releases enter the ready queue under a
// single scheduler transaction, before any of them is dispatched.
func (s *Supervisor) gatesFired(g *event.Event) {
	s.mu.Lock()
	s.gateDone[g] = true
	waiters := s.gateWaiters[g]
	delete(s.gateWaiters, g)
	for _, t := range waiters {
		t.gatesLeft--
		if t.gatesLeft == 0 {
			delete(s.parked, t)
			heap.Push(&s.ready, t)
		}
	}
	s.kickLocked()
	s.mu.Unlock()
}

// kickLocked grants free slots to ready tasks until one of them runs
// out.  Caller holds s.mu.
func (s *Supervisor) kickLocked() {
	for s.free > 0 && len(s.ready) > 0 {
		s.free--
		s.grantLocked(s.popLocked())
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
	s.Obs.ReadySample(len(s.ready))
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
		s.Obs.TaskStarted(t.obsID)
		return true
	}
	s.Obs.TaskUnblocked(t.obsID)
	t.resume <- struct{}{}
	return false
}

// wakeWaitLocked wakes Wait on the only two transitions it can act on:
// the last task finished, or every slot is free (the stall check).
// Anything else would wake the driver once per task just to go back to
// sleep.  Caller holds s.mu.  This relies on Wait being the only
// sleeper on s.cond and on every critical section that bumps s.finished
// or frees a slot ending with this call; pushes skip it, since they only
// add work.  A release site without it can strand Wait.
func (s *Supervisor) wakeWaitLocked() {
	if s.finished == s.total || s.free == s.slots {
		s.cond.Broadcast()
	}
}

// passLocked passes the caller's slot straight to the best ready task,
// which it returns, skipping the free-slot accounting entirely; with
// nothing ready it frees the slot and returns nil.  Caller holds s.mu
// and ends its critical section with wakeWaitLocked.
func (s *Supervisor) passLocked() *Task {
	if len(s.ready) == 0 {
		s.free++
		return nil
	}
	s.counters.Handoffs++
	return s.popLocked()
}

// handoffLocked gives up the caller's slot, which is about to block, to
// the best ready task.  Caller holds s.mu.
func (s *Supervisor) handoffLocked() {
	if t := s.passLocked(); t != nil {
		s.grantLocked(t)
	}
	s.wakeWaitLocked()
}

// work is a resident worker: it runs t and then, on the same goroutine,
// every unstarted task its slot dispatches next.  It returns when the
// slot passes to a resumed task (which continues on its own goroutine)
// or is given back for want of work.
func (s *Supervisor) work(t *Task) {
	for {
		s.clockOn(t)
		t.Ctx.Add(ctrace.CostTaskStart)
		s.runGuarded(t)
		t.Ctx.FireEvent(t.done)
		s.clockOff(t)
		t.Ctx.Finish()
		// Note the finish (freeing the task's observed lane) before the
		// slot moves on, so an observer never sees more lanes busy than
		// slots exist.
		s.Obs.TaskFinished(t.obsID)
		s.mu.Lock()
		s.finished++
		next := s.passLocked()
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

// clockOn starts a traced task's clock as it takes its slot; clockOff
// stops it as the task leaves the slot (finish, handled, external or
// stalled barrier wait) and hands the stretch to its TaskCtx.
func (s *Supervisor) clockOn(t *Task) {
	if s.rec != nil {
		t.onSlot = time.Since(s.epoch)
	}
}

func (s *Supervisor) clockOff(t *Task) {
	if s.rec != nil {
		t.Ctx.Ran(time.Since(s.epoch) - t.onSlot)
	}
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
		if r == ErrCanceled {
			// A cooperative cancellation unwind, not a fault: the
			// deferred seals already ran during the unwind; force-fire
			// what the task still owed and let work finish it normally.
			s.mu.Lock()
			s.skips++
			s.mu.Unlock()
			s.forceFireProduced(t)
			return
		}
		stack := debug.Stack()
		s.mu.Lock()
		s.faults++
		cb := s.OnPanic
		s.mu.Unlock()
		s.Obs.TaskPanicked(t.obsID)
		if cb != nil {
			cb(t, r, stack)
		}
		s.forceFireProduced(t)
	}()
	if s.canceled.Load() {
		// Granted after cancellation: discharge without running the
		// body.  Produced events are force-fired so dependents that
		// started before the cancellation never wedge on this task.
		s.mu.Lock()
		s.skips++
		s.mu.Unlock()
		s.forceFireProduced(t)
		return
	}
	t.run(t)
}

// forceFireProduced force-fires every unfired event the task was
// registered (via SetProducer) to produce, so sibling streams blocked
// on them resume instead of wedging until the deadlock watchdog.  The
// task's own Done event is excluded: work fires it on the normal path.
// Shared by the panic-isolation and cancellation-discharge teardowns.
func (s *Supervisor) forceFireProduced(t *Task) {
	s.mu.Lock()
	var fires []*event.Event
	for e, p := range s.producers {
		if p == t && e != t.done && !e.Fired() {
			fires = append(fires, e)
		}
	}
	s.mu.Unlock()
	for _, e := range fires {
		s.Obs.EventForceFired(e)
		e.Fire() // vet:allowfire forced fire on a dead or discharged task's behalf; EventForceFired is the record
	}
}

// Faults reports how many tasks panicked and were isolated.
func (s *Supervisor) Faults() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// releaseForWait gives up t's slot because it is about to block on e.
// The slot is handed straight to the best ready task — preferentially
// the producer that resolves the blockage, whose priority is first
// raised above every class (§2.3.4).  A producer that is running,
// blocked or parked sits in no queue and is left alone.
func (s *Supervisor) releaseForWait(t *Task, e *event.Event) {
	s.mu.Lock()
	s.Obs.TaskBlocked(t.obsID, obs.BlockHandled, e)
	s.blocked[t] = e
	if p, ok := s.producers[e]; ok && p.heapIdx >= 0 {
		p.priority = -1 << 62
		heap.Fix(&s.ready, p.heapIdx)
	}
	s.handoffLocked()
	s.mu.Unlock()
}

// reacquire returns t to the ready queue after its event fired and
// blocks until a slot is granted.
func (s *Supervisor) reacquire(t *Task) {
	s.mu.Lock()
	delete(s.blocked, t)
	s.pushLocked(t)
	s.mu.Unlock()
	<-t.resume
}

// Wait blocks until every spawned task has finished.  It breaks DKY
// deadlocks (possible only for erroneous programs, e.g. cyclic imports)
// by force-firing the events stalled tasks wait on, so compilation
// always terminates with diagnostics instead of hanging.
func (s *Supervisor) Wait() {
	s.mu.Lock()
	for s.finished < s.total {
		if s.free == s.slots && len(s.ready) == 0 {
			// Nothing is running or runnable, yet tasks remain: a stall.
			var fires []*event.Event
			// Tasks parked on foreign (cache) events are woken from
			// outside this compilation; their stall is not a deadlock.
			inTransit := len(s.external) > 0
			for _, e := range s.blocked {
				if e.Fired() {
					// A woken waiter is between its event firing and
					// re-acquiring a slot; it may fire the events the
					// others wait on.  Not a deadlock — let it land.
					inTransit = true
				} else {
					fires = append(fires, e)
				}
			}
			if inTransit {
				fires = nil
			}
			if len(fires) == 0 && !inTransit {
				for _, gates := range s.parked {
					for _, g := range gates {
						if !g.Fired() {
							fires = append(fires, g)
						}
					}
				}
			}
			if len(fires) > 0 {
				cb := s.OnDeadlock
				var msg string
				wedged := !s.canceled.Load()
				if wedged {
					msg = "DKY deadlock broken: compilation cannot make progress (cyclic imports or missing declarations)\n" +
						s.stateDumpLocked()
				} else {
					// Canceled teardown: residual gates are expected (their
					// producers were discharged unrun); force-fire them so
					// the drain completes, but report no deadlock — the
					// result is already marked canceled by the driver.
					cb = nil
				}
				s.mu.Unlock()
				if wedged {
					s.Obs.WatchdogFired()
				}
				if cb != nil {
					cb(msg)
				}
				for _, e := range fires {
					s.Obs.EventForceFired(e)
					e.Fire() // vet:allowfire watchdog force-fire; EventForceFired is the record
				}
				s.mu.Lock()
				continue
			}
			if !inTransit {
				// No one to wake: tasks vanished without finishing —
				// this would be a scheduler bug; bail out rather than
				// hang.
				break
			}
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// stateDumpLocked renders the scheduler's full state — the ready queue,
// blocked/parked/external tasks, and for every awaited event its
// registered producer — so a DKY deadlock report names the stuck tasks
// instead of leaving the user to guess.  Lines within each section are
// sorted for deterministic output.  Caller holds s.mu.
func (s *Supervisor) stateDumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler state: %d/%d tasks finished, %d/%d slots free, %d faults\n",
		s.finished, s.total, s.free, s.slots, s.faults)
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
	var runnable []string
	for _, t := range s.ready {
		runnable = append(runnable, t.Label)
	}
	section("runnable", runnable)
	var blocked []string
	for t, e := range s.blocked {
		blocked = append(blocked, fmt.Sprintf("%s waits on %s", t.Label, s.eventDescLocked(e)))
	}
	section("blocked (handled waits)", blocked)
	var parked []string
	for t, gates := range s.parked {
		var unfired []string
		for _, g := range gates {
			if !g.Fired() {
				unfired = append(unfired, s.eventDescLocked(g))
			}
		}
		parked = append(parked, fmt.Sprintf("%s gated on %d event(s): %s",
			t.Label, len(unfired), strings.Join(unfired, ", ")))
	}
	section("parked (avoided gates)", parked)
	var external []string
	for t := range s.external {
		external = append(external, fmt.Sprintf("%s waits on a foreign compilation's event", t.Label))
	}
	section("external (cache waits)", external)
	return strings.TrimRight(b.String(), "\n")
}

// eventDescLocked names an event by its registered producer, the only
// identity events have.  Caller holds s.mu.
func (s *Supervisor) eventDescLocked(e *event.Event) string {
	if p, ok := s.producers[e]; ok {
		return fmt.Sprintf("event produced by %q", p.Label)
	}
	return "event with no registered producer"
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
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	t.heapIdx = len(*h)
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
