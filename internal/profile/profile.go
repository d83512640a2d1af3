// Package profile is the critical-path profiler for measured
// concurrent compilations: the answer to "why didn't this compile
// speed up?".
//
// Input is an obs.Dump — the wall-clock spans, event fire edges and
// wait windows recorded by internal/obs during a real run.  From those
// the profiler reconstructs the task/event dependency DAG, walks the
// critical path backwards from the last finishing task, attributes
// every unit of blocked time to the event (and producing task) that
// caused it, and derives the two numbers the paper's evaluation keeps
// circling (§4): the serial fraction of the compilation and the
// speedup bound at P→∞ (Amdahl over the measured DAG: total work
// divided by critical-path work).
//
// Blocked time is split into two causes with different remedies:
//
//   - dependency stall: from the moment a task decided to wait until
//     the awaited event fired.  Only producing the event earlier (or
//     restructuring the dependency) can recover it.
//   - queue delay: from the event's fire until the waiter was running
//     again.  More processors recover it.
//
// The profile explains the run that happened; m2c -whatif replays the
// run's own trace (ctrace.Trace.Measured) at other processor counts.
package profile

import (
	"sort"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/obs"
)

// SegKind classifies one critical-path segment.
type SegKind uint8

// Segment kinds.
const (
	// SegWork: the task was executing on a worker slot.
	SegWork SegKind = iota
	// SegBlocked: waiting on an event with no usable fire edge (a
	// foreign compilation's event, or one force-fired after a fault) —
	// the stall cannot be walked through to a producer.
	SegBlocked
	// SegQueue: the awaited event had fired; the waiter was waiting for
	// a worker slot (or the gap between a gate fire and first dispatch).
	SegQueue
	// SegDispatch: between spawn and first dispatch with all gates open.
	SegDispatch
	// SegStartup: before the first observed activity (driver startup).
	SegStartup
)

func (k SegKind) String() string {
	switch k {
	case SegWork:
		return "work"
	case SegBlocked:
		return "blocked"
	case SegQueue:
		return "queue"
	case SegDispatch:
		return "dispatch"
	default:
		return "startup"
	}
}

// Segment is one stretch of the critical path.
type Segment struct {
	Kind  SegKind
	Task  int    // task advancing the path (0 for startup)
	Label string // its label, for the report
	Event int    // observer event ID involved (blocked/queue), else 0
	Start time.Duration
	End   time.Duration
}

// Dur returns the segment's length.
func (s Segment) Dur() time.Duration { return s.End - s.Start }

// EventBlame is the blocked time attributed to one event across all
// its waiters — the unit of the ranked blame report.
type EventBlame struct {
	Event         int
	Producer      int    // observer task ID of the firer; 0 = driver/none
	ProducerLabel string // "" when Producer is 0
	Forced        bool   // fire came from panic isolation or the watchdog
	External      bool   // no fire was observed at all (foreign event)
	Waiters       int    // wait edges charged to this event
	Blocked       time.Duration
	Queue         time.Duration
	OnCritPath    bool
}

// TaskCost is one task's measured totals.
type TaskCost struct {
	Task     int
	Kind     ctrace.TaskKind
	Label    string
	Work     time.Duration // executing time (spans minus barrier stalls)
	Blocked  time.Duration // its own wait-edge time, all reasons
	CritWork time.Duration // executing time on the critical path
}

// Profile is the computed critical-path profile of one observed run.
type Profile struct {
	Wall     time.Duration // observation horizon
	Makespan time.Duration // end of the last observed span
	Workers  int
	Strategy string
	Tasks    int

	TotalWork    time.Duration // Σ executing time across tasks
	TotalBlocked time.Duration // Σ wait-edge durations (all reasons)
	TotalQueue   time.Duration // post-fire share of TotalBlocked

	CritLen     time.Duration // Σ path segments (≈ Makespan)
	CritWork    time.Duration
	CritBlocked time.Duration
	CritQueue   time.Duration

	// SerialFraction is CritWork/TotalWork: the share of the measured
	// work that is inherently sequential under the recorded dependency
	// structure.  SpeedupBound is its reciprocal view, TotalWork /
	// CritWork — the measured run's speedup ceiling at P→∞ (0 when no
	// work was recorded).
	SerialFraction float64
	SpeedupBound   float64

	Path   []Segment    // the critical path, earliest first
	Events []EventBlame // ranked by Blocked+Queue, largest first
	ByTask []TaskCost   // ranked by Work, largest first

	// Sched is the Supervisor's dispatch traffic for the observed run
	// (zero when the scheduler reported none): how many tasks left the
	// ready queue, and how many slot releases handed the slot straight
	// onward without marking it free.
	Sched obs.SchedCounters
}

// ival is one execution interval of a task (span minus barrier stalls).
type ival struct{ s, e time.Duration }

// execIntervals computes each task's executing intervals: its spans
// with overlapping barrier-wait windows carved out (a barrier waiter
// holds its slot but does no work).  Index 0 is unused; task IDs are
// 1-based.  Both spans and waits arrive sorted by start.
func execIntervals(d *obs.Dump) [][]ival {
	execs := make([][]ival, len(d.Tasks)+1)
	barriers := make([][]ival, len(d.Tasks)+1)
	for _, w := range d.Waits {
		if w.Reason == obs.BlockBarrier && w.Task >= 1 && w.Task <= len(d.Tasks) {
			barriers[w.Task] = append(barriers[w.Task], ival{w.Start, w.End})
		}
	}
	for _, sp := range d.Spans {
		if sp.Task < 1 || sp.Task > len(d.Tasks) || sp.End <= sp.Start {
			continue
		}
		cur := sp.Start
		for _, b := range barriers[sp.Task] {
			if b.e <= cur || b.s >= sp.End {
				continue
			}
			if b.s > cur {
				execs[sp.Task] = append(execs[sp.Task], ival{cur, b.s})
			}
			cur = b.e
			if cur >= sp.End {
				break
			}
		}
		if cur < sp.End {
			execs[sp.Task] = append(execs[sp.Task], ival{cur, sp.End})
		}
	}
	return execs
}

// item is one per-task timeline entry for the backward walk: an
// execution interval or a wait window.
type item struct {
	s, e    time.Duration
	event   int // 0 for exec items
	isWait  bool
	barrier bool
}

const epsD = 100 * time.Nanosecond

// Build computes the critical-path profile of a recorded run.
func Build(d *obs.Dump) *Profile {
	p := &Profile{
		Wall: d.Wall, Workers: d.Workers, Strategy: d.Strategy, Tasks: len(d.Tasks),
		Sched: d.Sched,
	}
	if len(d.Spans) == 0 {
		return p
	}
	execs := execIntervals(d)

	// First (non-forced) fire per event, and its producer.
	fireOf := make(map[int]obs.FireEdge, len(d.Fires))
	for _, f := range d.Fires {
		if _, ok := fireOf[f.Event]; !ok {
			fireOf[f.Event] = f
		}
	}

	// Per-task totals and the ranked task table.
	p.ByTask = make([]TaskCost, 0, len(d.Tasks))
	taskCost := make([]*TaskCost, len(d.Tasks)+1)
	for i := range d.Tasks {
		t := &d.Tasks[i]
		tc := TaskCost{Task: t.ID, Kind: t.Kind, Label: t.Label}
		for _, iv := range execs[t.ID] {
			tc.Work += iv.e - iv.s
		}
		p.TotalWork += tc.Work
		p.ByTask = append(p.ByTask, tc)
	}
	for i := range p.ByTask {
		taskCost[p.ByTask[i].Task] = &p.ByTask[i]
	}

	// Blame attribution: each wait edge splits at its event's fire into
	// dependency stall (before) and queue delay (after).  Invariant
	// checked by the tests: Σ(Blocked+Queue) over events == Σ wait-edge
	// durations == TotalBlocked.
	blame := make(map[int]*EventBlame)
	for _, w := range d.Waits {
		dur := w.End - w.Start
		if dur < 0 {
			dur = 0
		}
		p.TotalBlocked += dur
		if tc := taskCost[w.Task]; tc != nil {
			tc.Blocked += dur
		}
		eb := blame[w.Event]
		if eb == nil {
			eb = &EventBlame{Event: w.Event}
			if f, ok := fireOf[w.Event]; ok {
				eb.Producer = f.Task
				eb.Forced = f.Forced
				if f.Task >= 1 && f.Task <= len(d.Tasks) {
					eb.ProducerLabel = d.Tasks[f.Task-1].Label
				}
			} else {
				eb.External = true
			}
			blame[w.Event] = eb
		}
		eb.Waiters++
		f, ok := fireOf[w.Event]
		switch {
		case !ok:
			eb.Blocked += dur
		case f.At <= w.Start:
			eb.Queue += dur
			p.TotalQueue += dur
		case f.At >= w.End:
			eb.Blocked += dur
		default:
			eb.Blocked += f.At - w.Start
			eb.Queue += w.End - f.At
			p.TotalQueue += w.End - f.At
		}
	}

	// Per-task walk timeline: exec intervals and wait windows, sorted.
	items := make([][]item, len(d.Tasks)+1)
	for id := 1; id <= len(d.Tasks); id++ {
		for _, iv := range execs[id] {
			items[id] = append(items[id], item{s: iv.s, e: iv.e})
		}
	}
	for _, w := range d.Waits {
		if w.Task >= 1 && w.Task <= len(d.Tasks) {
			items[w.Task] = append(items[w.Task], item{
				s: w.Start, e: w.End, event: w.Event,
				isWait: true, barrier: w.Reason == obs.BlockBarrier,
			})
		}
	}
	for id := range items {
		sort.Slice(items[id], func(i, j int) bool { return items[id][i].s < items[id][j].s })
	}

	// Anchor: the task whose observed activity ends last.
	cur, tEnd := 0, time.Duration(0)
	for id := 1; id <= len(d.Tasks); id++ {
		for _, iv := range execs[id] {
			if iv.e > tEnd {
				cur, tEnd = id, iv.e
			}
		}
	}
	if cur == 0 {
		return p
	}
	p.Makespan = tEnd

	label := func(id int) string {
		if id >= 1 && id <= len(d.Tasks) {
			return d.Tasks[id-1].Label
		}
		return ""
	}
	critEvents := map[int]bool{}
	var rev []Segment // built back-to-front
	push := func(seg Segment) {
		if seg.End-seg.Start > 0 {
			rev = append(rev, seg)
		}
	}

	// Backward walk.  Every step strictly decreases t (segments of zero
	// length are dropped but the cursor still moves); the step bound is
	// a defensive guard against degenerate timestamps.
	t := tEnd
	maxSteps := 4*(len(d.Spans)+len(d.Waits)+len(d.Tasks)) + 64
	for steps := 0; t > 0 && steps < maxSteps; steps++ {
		list := items[cur]
		// Latest item beginning strictly before t.
		idx := sort.Search(len(list), func(i int) bool { return list[i].s >= t-epsD }) - 1
		if idx < 0 {
			// Before the task's first activity: spawn/gate region.
			tr := &d.Tasks[cur-1]
			var gate obs.FireEdge
			haveGate := false
			for _, g := range tr.Gates {
				if f, ok := fireOf[g]; ok && f.At <= t+epsD {
					if !haveGate || f.At > gate.At {
						gate, haveGate = f, true
					}
				}
			}
			if haveGate && !gate.Forced && gate.Task >= 1 && gate.At > tr.Spawned+epsD && gate.At < t {
				// The last gate to open bounds the first dispatch: jump
				// to its producer at the fire.
				push(Segment{Kind: SegQueue, Task: cur, Label: label(cur), Event: gate.Event, Start: gate.At, End: t})
				critEvents[gate.Event] = true
				cur, t = gate.Task, gate.At
				continue
			}
			if tr.Parent == 0 && haveGate && !gate.Forced && gate.Task >= 1 && gate.At < t {
				// Driver-sequenced spawn (the merge task): the driver
				// itself waited for these completions before spawning, so
				// even a gate that fired before the recorded spawn stamp
				// bounds it — jump through the latest one rather than
				// writing the whole prefix off as startup.
				push(Segment{Kind: SegDispatch, Task: cur, Label: label(cur), Event: gate.Event, Start: gate.At, End: t})
				critEvents[gate.Event] = true
				cur, t = gate.Task, gate.At
				continue
			}
			spawn := tr.Spawned
			if spawn > t {
				spawn = t
			}
			push(Segment{Kind: SegDispatch, Task: cur, Label: label(cur), Start: spawn, End: t})
			t = spawn
			if tr.Parent >= 1 && t > 0 {
				cur = tr.Parent
				continue
			}
			// Initial task: everything earlier is driver startup.
			push(Segment{Kind: SegStartup, Start: 0, End: t})
			t = 0
			break
		}
		it := list[idx]
		if !it.isWait {
			if t > it.e+epsD {
				// Gap after this exec (measurement jitter between a wake
				// and the next span): charge it as queue delay.
				push(Segment{Kind: SegQueue, Task: cur, Label: label(cur), Start: it.e, End: t})
				t = it.e
				continue
			}
			push(Segment{Kind: SegWork, Task: cur, Label: label(cur), Start: it.s, End: t})
			if tc := taskCost[cur]; tc != nil {
				tc.CritWork += t - it.s
			}
			t = it.s
			continue
		}
		// Wait window.  Jump through the fire to the producer when one
		// was observed; otherwise the stall is a dead end — charge it
		// here and keep walking this task's earlier activity.
		critEvents[it.event] = true
		f, ok := fireOf[it.event]
		if ok && !f.Forced && f.Task >= 1 && f.At >= it.s-epsD && f.At <= t+epsD {
			end := t
			if f.At < end {
				push(Segment{Kind: SegQueue, Task: cur, Label: label(cur), Event: it.event, Start: f.At, End: end})
			}
			cur, t = f.Task, min(f.At, end)
			continue
		}
		push(Segment{Kind: SegBlocked, Task: cur, Label: label(cur), Event: it.event, Start: it.s, End: t})
		t = it.s
	}

	// Earliest-first order and the summary sums.
	for i := len(rev) - 1; i >= 0; i-- {
		seg := rev[i]
		p.Path = append(p.Path, seg)
		p.CritLen += seg.Dur()
		switch seg.Kind {
		case SegWork:
			p.CritWork += seg.Dur()
		case SegBlocked, SegStartup:
			p.CritBlocked += seg.Dur()
		default:
			p.CritQueue += seg.Dur()
		}
	}
	if p.TotalWork > 0 && p.CritWork > 0 {
		p.SerialFraction = float64(p.CritWork) / float64(p.TotalWork)
		p.SpeedupBound = float64(p.TotalWork) / float64(p.CritWork)
	}

	p.Events = make([]EventBlame, 0, len(blame))
	for _, eb := range blame {
		eb.OnCritPath = critEvents[eb.Event]
		p.Events = append(p.Events, *eb)
	}
	sort.Slice(p.Events, func(i, j int) bool {
		a, b := &p.Events[i], &p.Events[j]
		if at, bt := a.Blocked+a.Queue, b.Blocked+b.Queue; at != bt {
			return at > bt
		}
		return a.Event < b.Event
	})
	sort.Slice(p.ByTask, func(i, j int) bool {
		if p.ByTask[i].Work != p.ByTask[j].Work {
			return p.ByTask[i].Work > p.ByTask[j].Work
		}
		return p.ByTask[i].Task < p.ByTask[j].Task
	})
	return p
}

func min(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
