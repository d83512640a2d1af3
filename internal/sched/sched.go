// Package sched implements the Supervisors approach of §2.3.2: one
// worker slot per (virtual) processor, priority-ordered ready queues
// searched in the paper's task-class order, and the three event wait
// disciplines of §2.3.3:
//
//   - avoided events gate a task out of the ready queues entirely until
//     they fire;
//   - handled events release the task's worker slot while it waits, and
//     the Supervisor preferentially boosts the task that will fire the
//     event (§2.3.4);
//   - barrier events hold the slot (token-queue consumers only; their
//     producers never block, so progress is guaranteed).
//
// Dispatch topology: each worker slot owns a local run queue, and one
// global overflow queue catches work with no slot affinity.  Tasks are
// pushed to the queue of the slot that made them ready (the spawner, the
// producer whose event released them, the slot a re-admitted waiter last
// ran on); a finishing or blocking slot-holder serves the best of its
// local queue and the overflow queue — both are priority heaps in the
// §2.3.4 class-major order, so comparing the two heads bounds priority
// inversion to what sits in *other* workers' local queues — and steals
// from another worker's queue (randomized victim order) before giving
// the slot back.
//
// Workers are resident: the goroutine that finishes a task runs the
// next unstarted task its slot dispatches, so a finish→start chain
// costs no goroutine start, stack regrowth or wake-up; a goroutine is
// started only where the granter cannot run the task itself (a spawner
// filling a free slot, a task giving its slot up to block), and a
// blocked task resumes on the goroutine it blocked on.  The paper's
// constraint that a worker finish the task it began was an artifact of
// Topaz thread affinity; worker slots here are a prioritized counting
// semaphore, which removes that deadlock case without changing the
// scheduling policy (see DESIGN.md).
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
	"m2cc/internal/faultinject"
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
	stream   int32
	priority int64 // written at boost under the owning runQ's mu
	seq      int64
	run      func(*Task)
	done     *event.Event

	gatesLeft int
	started   bool
	stolen    bool          // dispatched via a steal before first start (fault-injection site)
	resume    chan struct{} // guards: slot handoff — one send re-admits this blocked task
	heapIdx   int           // index in the containing runQ's heap, -1 when absent
	obsID     int           // observability-layer task ID (0 = unobserved)

	// slot is the worker slot most recently granted to the task (-1
	// before the first grant).  Written by the granter, read for queue
	// affinity by spawners and gate fires on other goroutines.
	slot atomic.Int32
	// curQ is the run queue currently holding the task, nil when the
	// task is running, blocked, or in flight between queues.  Written
	// under the owning queue's mu; the boost path loads it to find
	// which queue to migrate a producer out of.
	curQ atomic.Pointer[runQ]
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
	s.Obs.TaskBarrierBlocked(t.obsID, e)
	select {
	case <-e.WaitChan():
	case <-s.cancelCh:
	}
	s.Obs.TaskBarrierUnblocked(t.obsID)
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
	s.releaseForWait(t, e)
	select {
	case <-e.WaitChan():
	case <-s.cancelCh:
	}
	// Reacquire before unwinding so the slot accounting stays exact:
	// the cancellation panic is raised from inside the task body, where
	// the normal finish path releases the slot.
	s.reacquire(t)
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
	w := int(t.slot.Load())
	s.mu.Lock()
	s.Obs.TaskBlocked(t.obsID, obs.BlockExternal, e)
	s.external[t] = e
	s.mu.Unlock()
	s.handoffOrRelease(w)
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
	s.pushLocked(t, w)
	s.kickLocked()
	s.wakeWaitLocked()
	s.mu.Unlock()
	<-t.resume
	return fired
}

// runQ is one priority run queue: a binary heap in (priority, seq)
// order.  Each worker slot owns one, and the Supervisor owns one more
// as the global overflow queue.
type runQ struct {
	mu sync.Mutex // guards: h (and the heapIdx/curQ/priority of the tasks in it)
	h  taskHeap

	// n mirrors len(h); maintained under mu, read lock-free by the
	// stall detector, ready-depth samples and steal-victim scans.
	n atomic.Int32
}

func (q *runQ) push(t *Task) {
	q.mu.Lock()
	heap.Push(&q.h, t)
	t.curQ.Store(q)
	q.n.Add(1)
	q.mu.Unlock()
}

func (q *runQ) popMin() *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) == 0 {
		return nil
	}
	t := heap.Pop(&q.h).(*Task)
	t.curQ.Store(nil)
	q.n.Add(-1)
	return t
}

// Supervisor owns the worker slots and the run queues.
type Supervisor struct {
	mu    sync.Mutex // guards: all scheduler state below (locked before any runQ.mu); cond's locker
	cond  *sync.Cond
	slots int
	free  int

	// slotFree marks which worker slots are unclaimed; mutated only
	// under mu, so the stall detector's free==slots check is exact.
	slotFree []bool

	local     []*runQ  // one run queue per worker slot
	overflow  runQ     // global queue for work with no slot affinity
	stealRand []uint64 // per-slot xorshift state; touched only by the slot's holder

	seq int64

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

	// Dispatch-traffic counters (see obs.SchedCounters).
	nLocalPushes    atomic.Int64
	nOverflowPushes atomic.Int64
	nLocalPops      atomic.Int64
	nSteals         atomic.Int64
	nOverflowPops   atomic.Int64
	nHandoffs       atomic.Int64
	nGoroutines     atomic.Int64

	rec *ctrace.Recorder

	// Inject, when non-nil, arms the PanicSteal fault-injection point:
	// a stolen task panics before its body runs, exercising panic
	// isolation on the steal dispatch path.  Set before the first Spawn.
	Inject *faultinject.Plan

	// OnDeadlock is invoked (outside the lock) with a description when
	// the watchdog breaks a stall; the driver reports it as an error.
	// The message includes a full scheduler state dump (run queues,
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
		slotFree:    make([]bool, workers),
		local:       make([]*runQ, workers),
		stealRand:   make([]uint64, workers),
		producers:   make(map[*event.Event]*Task),
		blocked:     make(map[*Task]*event.Event),
		parked:      make(map[*Task][]*event.Event),
		external:    make(map[*Task]*event.Event),
		gateWaiters: make(map[*event.Event][]*Task),
		gateDone:    make(map[*event.Event]bool),
		gateSub:     make(map[*event.Event]bool),
	}
	for i := range s.local {
		s.slotFree[i] = true
		s.local[i] = &runQ{}
		// Deterministic per-slot seeds (splitmix64 increments) so steal
		// orders differ across slots without global randomness.
		s.stealRand[i] = uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Counters returns the dispatch-traffic counters accumulated so far.
func (s *Supervisor) Counters() obs.SchedCounters {
	return obs.SchedCounters{
		LocalPushes:    s.nLocalPushes.Load(),
		OverflowPushes: s.nOverflowPushes.Load(),
		LocalPops:      s.nLocalPops.Load(),
		Steals:         s.nSteals.Load(),
		OverflowPops:   s.nOverflowPops.Load(),
		Handoffs:       s.nHandoffs.Load(),
		Goroutines:     s.nGoroutines.Load(),
	}
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
// events: it enters a run queue only once all have fired.
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
	t.slot.Store(-1)
	ctx.Owner = t
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
	// The task's finish event gains it as producer, so gate releases
	// and DKY boosts know which slot's queue has affinity with it.
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
		s.pushLocked(t, affinitySlot(parent))
		s.kickLocked()
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

// affinitySlot names the worker slot whose local queue a fresh spawn
// should land on: the spawning task's own.  -1 (the overflow queue)
// when the spawn has no scheduled parent.
func affinitySlot(parent *ctrace.TaskCtx) int {
	if parent == nil {
		return -1
	}
	if pt, ok := parent.Owner.(*Task); ok && pt != nil {
		return int(pt.slot.Load())
	}
	return -1
}

// gatesFired processes one gate event's fire: every task counting it is
// decremented, and all tasks it releases enter the run queues — pushed
// to the firing producer's slot for affinity — under a single scheduler
// transaction.
func (s *Supervisor) gatesFired(g *event.Event) {
	s.mu.Lock()
	s.gateDone[g] = true
	waiters := s.gateWaiters[g]
	delete(s.gateWaiters, g)
	w := -1
	if p, ok := s.producers[g]; ok {
		w = int(p.slot.Load())
	}
	released := false
	for _, t := range waiters {
		t.gatesLeft--
		if t.gatesLeft == 0 {
			delete(s.parked, t)
			s.pushLocked(t, w)
			released = true
		}
	}
	if released {
		s.kickLocked()
		s.wakeWaitLocked()
	}
	s.mu.Unlock()
}

// pushLocked enqueues a runnable task, preferring slot w's local queue
// (-1 or an out-of-range slot selects the overflow queue).  All pushes
// happen under s.mu so the stall detector can trust
// free==slots ∧ queuedLen()==0; pops and steals run outside it.
func (s *Supervisor) pushLocked(t *Task, w int) {
	if w < 0 || w >= len(s.local) {
		s.overflow.push(t)
		s.nOverflowPushes.Add(1)
		return
	}
	s.local[w].push(t)
	s.nLocalPushes.Add(1)
}

// queuedLen is the total number of queued runnable tasks.
func (s *Supervisor) queuedLen() int {
	n := int(s.overflow.n.Load())
	for _, q := range s.local {
		n += int(q.n.Load())
	}
	return n
}

// claimSlotLocked claims a free worker slot, preferring the one whose
// local queue is deepest.  Caller holds s.mu and has checked free > 0.
func (s *Supervisor) claimSlotLocked() int {
	best, bestN := -1, int32(-1)
	for w, fr := range s.slotFree {
		if !fr {
			continue
		}
		if n := s.local[w].n.Load(); n > bestN {
			best, bestN = w, n
		}
	}
	s.slotFree[best] = false
	s.free--
	return best
}

func (s *Supervisor) releaseSlotLocked(w int) {
	s.slotFree[w] = true
	s.free++
}

// kickLocked grants free slots to queued tasks until one of them runs
// out.  Caller holds s.mu.
func (s *Supervisor) kickLocked() {
	for s.free > 0 && s.queuedLen() > 0 {
		w := s.claimSlotLocked()
		t := s.nextFor(w)
		if t == nil {
			// A concurrent handoff drained the queues between the
			// length check and the pop; the work went somewhere.
			s.releaseSlotLocked(w)
			return
		}
		s.grant(t, w)
	}
}

// nextFor picks the best queued task for slot w: the better of the
// slot's local head and the overflow head (both heaps are in global
// priority order, so comparing heads bounds priority inversion), then
// a steal from another worker's queue.  The caller owns slot w; s.mu
// may or may not be held (lock order is always s.mu → runQ.mu).
func (s *Supervisor) nextFor(w int) *Task {
	lq := s.local[w]
	lq.mu.Lock()
	s.overflow.mu.Lock()
	var lt, ot *Task
	if len(lq.h) > 0 {
		lt = lq.h[0]
	}
	if len(s.overflow.h) > 0 {
		ot = s.overflow.h[0]
	}
	switch {
	case lt != nil && (ot == nil || taskLess(lt, ot)):
		heap.Pop(&lq.h)
		lt.curQ.Store(nil)
		lq.n.Add(-1)
		s.overflow.mu.Unlock()
		lq.mu.Unlock()
		s.nLocalPops.Add(1)
		return lt
	case ot != nil:
		heap.Pop(&s.overflow.h)
		ot.curQ.Store(nil)
		s.overflow.n.Add(-1)
		s.overflow.mu.Unlock()
		lq.mu.Unlock()
		s.nOverflowPops.Add(1)
		return ot
	}
	s.overflow.mu.Unlock()
	lq.mu.Unlock()
	return s.steal(w)
}

// steal scans the other workers' local queues in a randomized order
// and takes the head (best-priority) task of the first non-empty one.
// Only slot w's holder calls this, so stealRand[w] needs no lock; one
// victim queue is locked at a time.
func (s *Supervisor) steal(w int) *Task {
	n := len(s.local)
	if n < 2 {
		return nil
	}
	r := s.stealRand[w]
	r ^= r << 13
	r ^= r >> 7
	r ^= r << 17
	s.stealRand[w] = r
	start := int(r % uint64(n))
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v == w || s.local[v].n.Load() == 0 {
			continue
		}
		if t := s.local[v].popMin(); t != nil {
			s.nSteals.Add(1)
			if !t.started {
				t.stolen = true
			}
			return t
		}
	}
	return nil
}

// grant hands slot w to task t, which the caller popped from a queue
// and cannot run itself: an unstarted task gets a worker goroutine.
// The slot stays claimed from pop to grant, so the stall detector never
// sees an all-free scheduler with a task in flight.
func (s *Supervisor) grant(t *Task, w int) {
	if s.admit(t, w) {
		s.nGoroutines.Add(1)
		go s.work(t)
	}
}

// admit gives slot w to t.  A blocked task is resumed on the goroutine
// it blocked on; for an unstarted one admit reports true and the caller
// supplies the goroutine.
func (s *Supervisor) admit(t *Task, w int) (unstarted bool) {
	t.slot.Store(int32(w))
	s.Obs.ReadySample(s.queuedLen())
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
// or may leave more slots free than it found (releaseSlotLocked, also
// kickLocked's roll-back) ending with this call; Spawn alone skips it,
// since it only adds work.  A release site without it can strand Wait.
func (s *Supervisor) wakeWaitLocked() {
	if s.finished == s.total || s.free == s.slots {
		s.cond.Broadcast()
	}
}

// handoffOrRelease passes slot w straight to the next queued task —
// skipping the free-slot accounting entirely — or, when no work is
// queued, returns the slot under s.mu.  The re-check under the lock
// closes the race against a push that saw no free slot.
func (s *Supervisor) handoffOrRelease(w int) {
	if t := s.nextFor(w); t != nil {
		s.nHandoffs.Add(1)
		s.grant(t, w)
		return
	}
	s.mu.Lock()
	s.releaseSlotLocked(w)
	s.kickLocked()
	s.wakeWaitLocked()
	s.mu.Unlock()
}

// work is a resident worker: it runs t and then, on the same goroutine,
// every unstarted task its slot dispatches next.  It returns when the
// slot passes to a resumed task (which continues on its own goroutine)
// or is given back for want of work.
func (s *Supervisor) work(t *Task) {
	for {
		t.Ctx.Add(ctrace.CostTaskStart)
		s.runGuarded(t)
		t.Ctx.FireEvent(t.done)
		if s.rec != nil {
			s.rec.FinishTask(t.Ctx.ID, t.Ctx.Units)
		}
		// Note the finish (freeing the task's observed lane) before the
		// slot moves on, so an observer never sees more lanes busy than
		// slots exist.
		s.Obs.TaskFinished(t.obsID)
		w := int(t.slot.Load())
		next := s.nextFor(w)
		mine := false
		if next != nil {
			s.nHandoffs.Add(1)
			mine = s.admit(next, w)
		}
		s.mu.Lock()
		s.finished++
		if next == nil {
			s.releaseSlotLocked(w)
			s.kickLocked()
		}
		s.wakeWaitLocked()
		s.mu.Unlock()
		if !mine {
			return
		}
		t = next
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
	if t.stolen {
		// Injected: the task crashes on the worker that stole it,
		// before its body runs; isolation must hold on this path too.
		s.Inject.Panic(faultinject.PanicSteal, t.Label)
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
// The slot is handed straight to the next queued task — preferentially
// the producer that resolves the blockage, which is boosted into this
// slot's local queue first (§2.3.4).
func (s *Supervisor) releaseForWait(t *Task, e *event.Event) {
	w := int(t.slot.Load())
	s.mu.Lock()
	s.Obs.TaskBlocked(t.obsID, obs.BlockHandled, e)
	s.blocked[t] = e
	if p, ok := s.producers[e]; ok {
		s.boostLocked(p, w)
	}
	s.mu.Unlock()
	s.handoffOrRelease(w)
}

// boostLocked promotes a queued producer to run next: its priority is
// raised above every class and it migrates to slot w's local queue, so
// the blocked worker's own slot runs the task that unblocks it.  A
// producer that is already running, blocked, or parked is left alone
// (it no longer sits in any queue).  Caller holds s.mu, which is what
// serializes concurrent boosts of the same producer.
func (s *Supervisor) boostLocked(p *Task, w int) {
	for {
		q := p.curQ.Load()
		if q == nil {
			return
		}
		q.mu.Lock()
		if p.curQ.Load() != q {
			// Popped (or migrated) between the load and the lock; the
			// new queue — if any — is re-read on the next spin.
			q.mu.Unlock()
			continue
		}
		p.priority = -1 << 62
		var tq *runQ
		if w >= 0 && w < len(s.local) {
			tq = s.local[w]
		}
		if tq == nil || tq == q {
			heap.Fix(&q.h, p.heapIdx)
			q.mu.Unlock()
			return
		}
		heap.Remove(&q.h, p.heapIdx)
		p.curQ.Store(nil)
		q.n.Add(-1)
		q.mu.Unlock()
		tq.push(p)
		return
	}
}

// reacquire returns t to the run queues after its event fired and
// blocks until a slot is granted.  The task lands on the queue of the
// slot it last ran on.
func (s *Supervisor) reacquire(t *Task) {
	s.mu.Lock()
	delete(s.blocked, t)
	s.pushLocked(t, int(t.slot.Load()))
	s.kickLocked()
	s.wakeWaitLocked()
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
		if s.free == s.slots && s.queuedLen() == 0 {
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

// stateDumpLocked renders the scheduler's full state — every run queue,
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
	collect := func(q *runQ, where string) {
		q.mu.Lock()
		for _, t := range q.h {
			runnable = append(runnable, fmt.Sprintf("%s (%s)", t.Label, where))
		}
		q.mu.Unlock()
	}
	collect(&s.overflow, "overflow queue")
	for w, q := range s.local {
		collect(q, fmt.Sprintf("local queue %d", w))
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

// taskLess is the run-queue order: priority, then spawn order.
func taskLess(a, b *Task) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// taskHeap orders runnable tasks by (priority, seq).
type taskHeap []*Task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return taskLess(h[i], h[j]) }
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
