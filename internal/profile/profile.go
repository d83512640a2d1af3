// Package profile is the critical-path profiler for measured
// concurrent compilations: the answer to "why didn't this compile
// speed up?".
//
// Input is a traced run (ctrace.Trace with its Run): the wall-clock
// stretches, event fires and waits the Recorder took of a real
// compilation, as internal/obs renders them.  From those the profiler
// reconstructs the task/event dependency DAG, walks the
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
	"m2cc/internal/sched"
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
	Event int    // trace event ID involved (blocked/queue), else 0
	Start time.Duration
	End   time.Duration
}

// Dur returns the segment's length.
func (s Segment) Dur() time.Duration { return s.End - s.Start }

// EventBlame is the blocked time attributed to one event across all
// its waiters — the unit of the ranked blame report.
type EventBlame struct {
	Event         int
	Producer      int    // trace task ID of the firer; 0 = driver/none
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
	Work     time.Duration // executing time (its stretches)
	Blocked  time.Duration // its own wait-edge time, all reasons
	CritWork time.Duration // executing time on the critical path
}

// Profile is the computed critical-path profile of one observed run.
type Profile struct {
	Wall     time.Duration // observation horizon
	Makespan time.Duration // end of the last stretch
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
	Sched sched.Counters
}

// item is one per-task timeline entry for the backward walk: a stretch
// or a wait window.
type item struct {
	s, e   time.Duration
	event  int // 0 for stretches
	isWait bool
}

const epsD = 100 * time.Nanosecond

// Build computes the critical-path profile of tr's run, observed up to
// wall.  Workers, Strategy and Sched are left for the caller.
func Build(tr *ctrace.Trace, wall time.Duration) *Profile {
	n := len(tr.Tasks)
	p := &Profile{Wall: wall, Tasks: n}
	if tr.Run == nil {
		return p
	}
	runs := tr.Run.Tasks
	label := func(id int) string {
		if id >= 1 && id <= n {
			return tr.Tasks[id-1].Label
		}
		return ""
	}
	parent := make([]int, n+1)
	gates := make([][]ctrace.EventID, n+1)
	for _, sp := range tr.Spawns {
		parent[sp.Child], gates[sp.Child] = int(sp.Parent), sp.Gates
	}

	// The fire of each event (the run keeps the first), and its producer.
	fireOf := make(map[int]ctrace.Fire, len(tr.Run.Fires))
	for _, f := range tr.Run.Fires {
		fireOf[int(f.Event)] = f
	}

	// Per-task totals and the task table, in task order until it is
	// ranked at the end.
	p.ByTask = make([]TaskCost, n)
	steps := 0
	for i, t := range tr.Tasks {
		tc := &p.ByTask[i]
		*tc = TaskCost{Task: i + 1, Kind: t.Kind, Label: t.Label}
		for _, s := range runs[i].Stretches {
			tc.Work += s.End - s.Start
		}
		steps += len(runs[i].Stretches) + len(runs[i].Waits)
		p.TotalWork += tc.Work
	}

	// Blame attribution: each wait edge splits at its event's fire into
	// dependency stall (before) and queue delay (after).  Invariant
	// checked by the tests: Σ(Blocked+Queue) over events == Σ wait-edge
	// durations == TotalBlocked.
	blame := make(map[int]*EventBlame)
	// Per-task walk timeline: stretches and wait windows, which
	// alternate, so each task's list is in time order.
	items := make([][]item, n+1)
	cur, tEnd := 0, time.Duration(0) // anchor: the task whose last stretch ends last
	for i, r := range runs {
		id := i + 1
		for j, s := range r.Stretches {
			items[id] = append(items[id], item{s: s.Start, e: s.End})
			if s.End > tEnd {
				cur, tEnd = id, s.End
			}
			if j >= len(r.Waits) {
				continue
			}
			w := r.Waits[j]
			ev := int(w.Event)
			items[id] = append(items[id], item{s: w.Start, e: w.End, event: ev, isWait: true})
			dur := max(w.End-w.Start, 0)
			p.TotalBlocked += dur
			p.ByTask[i].Blocked += dur
			eb := blame[ev]
			f, fired := fireOf[ev]
			if eb == nil {
				eb = &EventBlame{Event: ev, External: !fired}
				if fired {
					eb.Producer, eb.Forced = int(f.Task), f.Forced
					eb.ProducerLabel = label(eb.Producer)
				}
				blame[ev] = eb
			}
			eb.Waiters++
			switch {
			case !fired:
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
	}
	if cur == 0 {
		return p
	}
	p.Makespan = tEnd

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
	maxSteps := 4*(steps+n) + 64
	for steps := 0; t > 0 && steps < maxSteps; steps++ {
		list := items[cur]
		// Latest item beginning strictly before t.
		idx := sort.Search(len(list), func(i int) bool { return list[i].s >= t-epsD }) - 1
		if idx < 0 {
			// Before the task's first activity: spawn/gate region.
			spawned := runs[cur-1].Spawned
			var gate ctrace.Fire
			haveGate := false
			for _, g := range gates[cur] {
				if f, ok := fireOf[int(g)]; ok && f.At <= t+epsD {
					if !haveGate || f.At > gate.At {
						gate, haveGate = f, true
					}
				}
			}
			if haveGate && !gate.Forced && gate.Task >= 1 && gate.At > spawned+epsD && gate.At < t {
				// The last gate to open bounds the first dispatch: jump
				// to its producer at the fire.
				push(Segment{Kind: SegQueue, Task: cur, Label: label(cur), Event: int(gate.Event), Start: gate.At, End: t})
				critEvents[int(gate.Event)] = true
				cur, t = int(gate.Task), gate.At
				continue
			}
			if parent[cur] == 0 && haveGate && !gate.Forced && gate.Task >= 1 && gate.At < t {
				// Driver-sequenced spawn (the merge task): the driver
				// itself waited for these completions before spawning, so
				// even a gate that fired before the recorded spawn stamp
				// bounds it — jump through the latest one rather than
				// writing the whole prefix off as startup.
				push(Segment{Kind: SegDispatch, Task: cur, Label: label(cur), Event: int(gate.Event), Start: gate.At, End: t})
				critEvents[int(gate.Event)] = true
				cur, t = int(gate.Task), gate.At
				continue
			}
			spawn := min(spawned, t)
			push(Segment{Kind: SegDispatch, Task: cur, Label: label(cur), Start: spawn, End: t})
			t = spawn
			if parent[cur] >= 1 && t > 0 {
				cur = parent[cur]
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
				// Gap after this stretch (clock jitter between a wake and
				// the next stretch): charge it as queue delay.
				push(Segment{Kind: SegQueue, Task: cur, Label: label(cur), Start: it.e, End: t})
				t = it.e
				continue
			}
			push(Segment{Kind: SegWork, Task: cur, Label: label(cur), Start: it.s, End: t})
			p.ByTask[cur-1].CritWork += t - it.s
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
			cur, t = int(f.Task), min(f.At, end)
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
