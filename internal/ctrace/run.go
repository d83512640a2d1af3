package ctrace

import (
	"fmt"
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

// NoteFire records a fire of e that only the run keeps; the simulator
// never sees it.  Task 0 is a fire no task makes through its TaskCtx:
// the driver's own, or a forced one.  Safe on a nil Recorder.
func (r *Recorder) NoteFire(e *event.Event, task TaskID, forced bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fired = append(r.fired, Fire{Event: r.eventIDLocked(e), Task: task, Forced: forced, At: r.wall()})
}

// FireRunEvent fires e, an event the simulator never replays, and if
// recording notes the fire in the run alone: a lookup's per-symbol
// event, whose handled waits the run records and the simulator
// re-derives from lookup records.  The record precedes the fire, as in
// FireEvent.
func (t *TaskCtx) FireRunEvent(e *event.Event) {
	if t.Rec != nil {
		t.Rec.NoteFire(e, t.ID, false)
	}
	e.Fire() // vet:allowfire FireEvent's run-only twin
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

// Validate checks the cross-reference of t's run, the records every
// view of it reads: task and event IDs lie in range, no event fires
// twice, a finished task's stretches and waits alternate (one stretch
// more than its waits, each wait from the end of the stretch before it
// to the start of the one after, no interval ending before it starts),
// and every wait that is not external names an event a fire or
// force-fire records.  An external wait's producer is another
// compilation's cache leader, whose fire is not in this trace.  A task
// that has not finished has handed nothing over.
func (t *Trace) Validate() error {
	r := t.Run
	if r == nil || len(r.Tasks) != len(t.Tasks) {
		return fmt.Errorf("trace has no run record for each of its %d tasks", len(t.Tasks))
	}
	tasks, events := TaskID(len(t.Tasks)), EventID(r.Events)
	fired := make([]bool, events+1)
	for _, f := range r.Fires {
		switch {
		case f.Event < 1 || f.Event > events || f.Task < 0 || f.Task > tasks:
			return fmt.Errorf("fire of event %d by task %d outside events 1..%d, tasks 0..%d", f.Event, f.Task, events, tasks)
		case fired[f.Event]:
			return fmt.Errorf("event %d has more than one fire", f.Event)
		}
		fired[f.Event] = true
	}
	for i, tr := range r.Tasks {
		if len(tr.Stretches) != len(tr.Waits)+1 && len(tr.Stretches)+len(tr.Waits) > 0 {
			return fmt.Errorf("task %d: %d stretches and %d waits, want one stretch more", i+1, len(tr.Stretches), len(tr.Waits))
		}
		for j, s := range tr.Stretches {
			if s.Start < 0 || s.End < s.Start {
				return fmt.Errorf("task %d: stretch %d runs from %v to %v", i+1, j, s.Start, s.End)
			}
		}
		for j, w := range tr.Waits {
			switch {
			case w.Event < 1 || w.Event > events:
				return fmt.Errorf("task %d waits on event %d outside 1..%d", i+1, w.Event, events)
			case w.End < w.Start:
				return fmt.Errorf("task %d: wait on event %d ends at %v before it starts at %v", i+1, w.Event, w.End, w.Start)
			case w.Start != tr.Stretches[j].End || w.End != tr.Stretches[j+1].Start:
				return fmt.Errorf("task %d: wait on event %d from %v to %v is not between its stretches", i+1, w.Event, w.Start, w.End)
			case w.Kind != WaitExternal && !fired[w.Event]:
				return fmt.Errorf("task %d waits on event %d (%s) but no fire or force-fire records it", i+1, w.Event, w.Kind)
			}
		}
	}
	for _, sp := range t.Spawns {
		if sp.Parent < 0 || sp.Parent > tasks || sp.Child < 1 || sp.Child > tasks {
			return fmt.Errorf("spawn of task %d by %d outside 1..%d", sp.Child, sp.Parent, tasks)
		}
		for _, g := range sp.Gates {
			if g < 1 || g > events {
				return fmt.Errorf("task %d gated on event %d outside 1..%d", sp.Child, g, events)
			}
		}
	}
	return nil
}
