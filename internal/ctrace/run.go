package ctrace

import (
	"time"

	"m2cc/internal/event"
)

// Run is what one recorded run measured on the wall clock, beside the
// schedule-independent facts of its Trace.  Times are offsets from
// Epoch; task and event IDs are the trace's.
type Run struct {
	Epoch  time.Time
	Tasks  []TaskRun // indexed by TaskID-1
	Fires  []Fire    // first fire of each event, in time order
	Marks  []Mark    // in time order
	Events int       // events numbered in the trace and its run: Trace.Events plus those only the run names
}

// TaskRun is what the run measured of one task.  A task hands its
// stretches and waits over as it finishes, so a task still running has
// none.  They alternate, a stretch first: a stretch ends where a wait
// begins or, the last one, where the task finished.
type TaskRun struct {
	Spawned   time.Duration
	Stretches []Stretch
	Waits     []Wait
}

// Stretch is one stretch of a task's execution on a worker slot: the
// slot's lane, below the compilation's worker count, and the wall
// interval.  Units is the task's work-unit offset at its end, so the
// stretches are also the task's measured clock (Trace.Measured).
type Stretch struct {
	Lane       int32
	Units      float64
	Start, End time.Duration
}

// WaitKind is the discipline of a wait (§2.3.3).
type WaitKind uint8

const (
	WaitHandled  WaitKind = iota // releases the slot until the event fires (a DKY blockage)
	WaitExternal                 // releases it to wait on another compilation's event (a cache leader)
	WaitBarrier                  // holds the slot, and its lane, while it waits
)

var waitKindNames = [...]string{"handled", "external", "barrier"}

func (k WaitKind) String() string { return waitKindNames[k] }

// Wait is one wait of a task on an event, from when the task stopped
// executing to when it executed again.  The part after the event's fire
// is queue delay, not dependency stall.
type Wait struct {
	Event      EventID
	Kind       WaitKind
	Start, End time.Duration
}

// Fire is one event fire on the wall clock.  Task 0 is a fire no task
// made: the driver's, or a forced one.
type Fire struct {
	Event  EventID
	Task   TaskID
	Forced bool // panic isolation or the deadlock watchdog fired it on a task's behalf
	At     time.Duration
}

// MarkKind classifies the fault marks.
type MarkKind uint8

const (
	MarkPanic        MarkKind = iota // a task panicked and was isolated
	MarkWatchdog                     // the deadlock watchdog force-fired events
	MarkStallAbandon                 // a task gave up on a wedged foreign cache leader at its deadline
)

var markKindNames = [...]string{"panic", "watchdog", "stall-abandon"}

func (k MarkKind) String() string { return markKindNames[k] }

// Mark is one fault mark; Task is 0 for compilation-wide marks.
type Mark struct {
	Kind MarkKind
	Task TaskID
	At   time.Duration
}

// SetClock gives r the wall clock its run is measured on: now returns
// the time since epoch.  The scheduler sets it before any task runs.
func (r *Recorder) SetClock(epoch time.Time, now func() time.Duration) {
	r.mu.Lock()
	r.epoch, r.now = epoch, now
	r.mu.Unlock()
}

func (r *Recorder) wall() time.Duration {
	if r.now == nil {
		return 0
	}
	return r.now()
}

// NoteFire records a fire of e that no task makes through its TaskCtx:
// the driver's own, or a forced one.  Only the run keeps it; the
// simulator never sees it.  Safe on a nil Recorder.
func (r *Recorder) NoteFire(e *event.Event, forced bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fired = append(r.fired, Fire{Event: r.eventIDLocked(e), Forced: forced, At: r.wall()})
}

// NoteMark records a fault mark.  Safe on a nil Recorder.
func (r *Recorder) NoteMark(kind MarkKind, task TaskID) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.marks = append(r.marks, Mark{Kind: kind, Task: task, At: r.wall()})
}
