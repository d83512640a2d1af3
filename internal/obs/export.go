package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/ifacecache"
	"m2cc/internal/sched"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
)

// Metrics is the machine-readable snapshot of one observed run.  All
// durations are milliseconds of wall clock.
type Metrics struct {
	WallMs  float64 `json:"wall_ms"`
	Workers int     `json:"workers"`

	Tasks    int `json:"tasks"`
	Finished int `json:"finished"`
	NeverRan int `json:"never_ran"` // spawned but never dispatched (faulted runs)
	Spans    int `json:"spans"`     // stretches of a task on a worker slot

	Panics        int `json:"panics"`         // panic-isolated tasks (PR 2)
	WatchdogFires int `json:"watchdog_fires"` // deadlock-watchdog interventions
	StallAbandons int `json:"stall_abandons"` // foreign-leader waits abandoned at deadline

	BlocksHandled  int64 `json:"blocks_handled"`  // handled-event waits taken (slot released)
	BlocksExternal int64 `json:"blocks_external"` // external (cache-leader) waits taken
	BlocksBarrier  int64 `json:"blocks_barrier"`  // barrier waits taken (slot held)

	// Worker-slot occupancy over the run: time-weighted mean of busy
	// slots (a barrier waiter's slot is busy), the peak, and
	// mean/workers as utilization (the measured counterpart of
	// sim.Result.Utilization).
	SlotOccupancyMean float64 `json:"slot_occupancy_mean"`
	SlotOccupancyPeak int     `json:"slot_occupancy_peak"`
	Utilization       float64 `json:"utilization"`

	// Ready-queue depth after every dispatch.
	ReadyDepthMean float64 `json:"ready_depth_mean"`
	ReadyDepthPeak int     `json:"ready_depth_peak"`

	// Event traffic of the observed compilations, from their traces:
	// the events fired and the blocking waits taken.
	EventFires int64 `json:"event_fires"`
	EventWaits int64 `json:"event_waits"`

	// Cache is the compilations' own interface-cache Acquire outcomes,
	// when there were any (a cache was attached).
	Cache *ifacecache.Stats `json:"ifacecache,omitempty"`

	// Streams is the stream-cache (incremental recompilation) traffic,
	// when there was any (a stream cache was attached).
	Streams *StreamMetrics `json:"streamcache,omitempty"`

	// Sched is the Supervisor's dispatch traffic — how many tasks left
	// the ready queue, how many slot releases handed the slot straight
	// to the next task, and how many worker goroutines were started —
	// when the scheduler reported it.
	Sched *sched.Counters `json:"sched,omitempty"`

	// Lookups are the per-strategy DKY tallies (Table 2's collector,
	// re-used at runtime), when lookup stats were recorded.
	Lookups *LookupMetrics `json:"lookups,omitempty"`
}

// StreamMetrics is the stream-cache section of the snapshot: the
// compilations' own tallies plus the shared store's eviction delta.
type StreamMetrics struct {
	streamcache.Tally
	Evictions int64 `json:"evictions"` // store entries dropped by the LRU cap (delta)
}

// LookupMetrics serializes symtab.Stats for the metrics snapshot.
type LookupMetrics struct {
	Strategy string       `json:"strategy"`
	Lookups  int64        `json:"lookups"`
	Blocks   int64        `json:"blocks"` // DKY blockages actually taken
	Rows     []LookupRow  `json:"rows,omitempty"`
	Outcomes []OutcomeRow `json:"outcomes,omitempty"` // per-strategy DKY outcome histogram
}

// OutcomeRow is one strategy's lookup-outcome histogram: how the
// strategy's DKY gamble actually played out at runtime (the measured
// companion of Table 2's risk/benefit discussion).
type OutcomeRow struct {
	Strategy  string `json:"strategy"`
	Found     int64  `json:"found"`     // lookups that resolved to a symbol
	Blocked   int64  `json:"blocked"`   // DKY waits actually taken
	Guessed   int64  `json:"guessed"`   // hits in still-incomplete tables, no wait
	Retracted int64  `json:"retracted"` // incomplete-table misses searched twice
}

// LookupRow is one Table 2 row as measured at runtime.
type LookupRow struct {
	Class string `json:"class"` // simple | qualified
	Found string `json:"found"` // First try | Search | After DKY | Never
	Scope string `json:"scope,omitempty"`
	State string `json:"state,omitempty"` // complete | incomplete
	Count int64  `json:"count"`
}

// Snapshot computes the metrics view.  It may be taken at any time;
// a compilation still running counts what its finished tasks handed
// over, up to Finish's stamp (or now).
func (o *Observer) Snapshot() Metrics {
	if o == nil {
		return Metrics{}
	}
	tr, wall, _ := o.trace()

	o.mu.Lock()
	m := Metrics{
		WallMs:     wall.Seconds() * 1000,
		Workers:    o.workers,
		Tasks:      len(tr.Tasks),
		EventFires: int64(len(tr.Run.Fires)),
	}
	if o.cache != (ifacecache.Stats{}) {
		c := o.cache
		m.Cache = &c
	}
	if o.streams != (StreamMetrics{}) {
		sc := o.streams
		m.Streams = &sc
	}
	if o.sched != (sched.Counters{}) {
		sc := o.sched
		m.Sched = &sc
		m.ReadyDepthPeak = int(sc.ReadyDepthPeak)
		if sc.Dispatches > 0 {
			m.ReadyDepthMean = float64(sc.ReadyDepthSum) / float64(sc.Dispatches)
		}
	}
	lookups := o.lookups
	strategy := o.strategy
	o.mu.Unlock()

	// Slot occupancy: the time-weighted busy slots, and their peak from
	// a sweep over the tenures' ends, a start at t kept as 2t+1 and an
	// end as 2t, so an end sorts first at one instant (a slot passes on
	// at once).
	var busy time.Duration
	var ends []time.Duration
	var blocks [3]int64
	for _, r := range tr.Run.Tasks {
		if len(r.Stretches) > 0 {
			m.Finished++
		}
		m.Spans += len(r.Stretches)
		tenures(r, func(s ctrace.Stretch) {
			busy += s.End - s.Start
			ends = append(ends, 2*s.Start+1, 2*s.End)
		})
		for _, w := range r.Waits {
			blocks[w.Kind]++
		}
	}
	slices.Sort(ends)
	held := 0
	for _, e := range ends {
		held += int(e&1)*2 - 1
		m.SlotOccupancyPeak = max(m.SlotOccupancyPeak, held)
	}
	m.NeverRan = m.Tasks - m.Finished
	m.BlocksHandled, m.BlocksExternal, m.BlocksBarrier = blocks[ctrace.WaitHandled], blocks[ctrace.WaitExternal], blocks[ctrace.WaitBarrier]
	m.EventWaits = m.BlocksHandled + m.BlocksExternal + m.BlocksBarrier
	if wall > 0 {
		m.SlotOccupancyMean = busy.Seconds() / wall.Seconds()
	}
	if m.Workers > 0 {
		m.Utilization = m.SlotOccupancyMean / float64(m.Workers)
	}
	var marks [3]int
	for _, mk := range tr.Run.Marks {
		marks[mk.Kind]++
	}
	m.Panics, m.WatchdogFires, m.StallAbandons = marks[ctrace.MarkPanic], marks[ctrace.MarkWatchdog], marks[ctrace.MarkStallAbandon]
	if lookups != nil {
		lm := &LookupMetrics{Strategy: strategy}
		for _, r := range lookups.Rows() {
			row := LookupRow{Count: r.Count, Class: "simple", Found: r.Key.When.String()}
			if r.Key.Qualified {
				row.Class = "qualified"
			}
			if r.Key.When != symtab.Never {
				row.Scope = r.Key.Rel.String()
				row.State = "complete"
				if r.Key.Incomplete {
					row.State = "incomplete"
				}
			}
			lm.Rows = append(lm.Rows, row)
		}
		for _, or := range lookups.OutcomeRows() {
			lm.Outcomes = append(lm.Outcomes, OutcomeRow{
				Strategy:  or.Strategy.String(),
				Found:     or.Counts[symtab.OutFound],
				Blocked:   or.Counts[symtab.OutBlocked],
				Guessed:   or.Counts[symtab.OutGuessed],
				Retracted: or.Counts[symtab.OutRetracted],
			})
		}
		lm.Lookups, lm.Blocks = lookups.Totals()
		m.Lookups = lm
	}
	return m
}

// WriteMetrics writes the metrics snapshot as indented JSON.
func (o *Observer) WriteMetrics(w io.Writer) error {
	data, err := json.MarshalIndent(o.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// chromeEvent is one Chrome trace-event JSON object (the subset of the
// trace-event format Perfetto and chrome://tracing load: metadata "M",
// complete "X" and instant "i" phases).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

const tracePid = 1

// WriteChromeTrace writes the observed run as Chrome trace-event JSON:
// one thread lane per worker slot, one complete ("X") event per
// stretch of a task on a slot, and instant events for the waits, event
// fires and fault marks.  The same recorded run always serializes
// byte-identically.  A trace that fails ctrace.Trace.Validate is a
// recording bug: it is reported, and nothing is written.  Load the
// file in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		return fmt.Errorf("obs: no observer attached")
	}
	tr, _, lanes := o.trace()
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("obs: invalid trace: %w", err)
	}
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: tracePid, Args: map[string]any{"name": "m2cc concurrent compiler"}},
	}
	for lane := 0; lane < lanes; lane++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: lane,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", lane)},
		})
	}
	// instant places a mark on the lane its task held, or on the whole
	// process.
	instant := func(name, cat string, task ctrace.TaskID, at time.Duration, args map[string]any) {
		ev := chromeEvent{Name: name, Cat: cat, Ph: "i", Ts: at.Microseconds(), Pid: tracePid, Scope: "p", Args: args}
		if lane := laneAt(tr, task, at); lane >= 0 {
			ev.Scope, ev.Tid = "t", lane
		}
		evs = append(evs, ev)
	}
	bad := panicked(tr)
	for i, ti := range tr.Tasks {
		r := tr.Run.Tasks[i]
		for j, s := range r.Stretches {
			args := map[string]any{"end": "finish", "stream": ti.Stream, "task": ti.ID}
			if j < len(r.Waits) {
				args["end"] = "block-" + r.Waits[j].Kind.String()
			}
			if bad[ti.ID] {
				args["panicked"] = true
			}
			evs = append(evs, chromeEvent{
				Name: ti.Label, Cat: ti.Kind.String(), Ph: "X",
				Ts: s.Start.Microseconds(), Dur: max((s.End - s.Start).Microseconds(), 1), // Perfetto drops zero-width slices
				Pid: tracePid, Tid: int(s.Lane), Args: args,
			})
		}
		// The dependency edges carry the trace's event and task IDs, the
		// cross-reference Validate checked.
		for _, wt := range r.Waits {
			instant("wait", "event", ti.ID, wt.Start, map[string]any{
				"event": wt.Event, "task": ti.ID, "reason": wt.Kind.String(),
				"blocked_us": (wt.End - wt.Start).Microseconds(),
			})
		}
	}
	for _, f := range tr.Run.Fires {
		name := "fire"
		if f.Forced {
			name = "force-fire"
		}
		instant(name, "event", f.Task, f.At, map[string]any{"event": f.Event, "task": f.Task})
	}
	for _, mk := range tr.Run.Marks {
		args := map[string]any{}
		if mk.Task != 0 {
			args["task"] = tr.Tasks[mk.Task-1].Label
		}
		instant(mk.Kind.String(), "fault", mk.Task, mk.At, args)
	}

	data, err := json.MarshalIndent(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"}, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// RenderTimeline draws the measured per-worker activity as rows of
// task-kind glyphs in the style of the paper's Figure 7 (and of
// bench.RenderTimeline, which draws the simulator's *predicted*
// timeline from the same glyph alphabet): L lex, S split, I import,
// P parse/decl, G stmt-analysis/codegen, M merge, '.' idle, '!' a
// panic-isolated task.  A slot held through a barrier wait shows as
// busy.  Comparing this measured view against the simulated one is the
// point of the layer.
func (o *Observer) RenderTimeline(width int) string {
	if o == nil {
		return ""
	}
	if width <= 0 {
		width = 100
	}
	tr, wall, lanes := o.trace()
	if lanes == 0 || wall <= 0 {
		return "(no activity recorded)\n"
	}
	bad := panicked(tr)
	var acts []ctrace.Activity
	for i, ti := range tr.Tasks {
		glyph := ti.Kind.Glyph()
		if bad[ti.ID] {
			glyph = '!'
		}
		tenures(tr.Run.Tasks[i], func(s ctrace.Stretch) {
			acts = append(acts, ctrace.Activity{Lane: int(s.Lane), Start: s.Start.Seconds(), End: s.End.Seconds(), Glyph: glyph})
		})
	}
	var sb strings.Builder
	ctrace.WriteLanes(&sb, 'W', lanes, wall.Seconds(), width, acts)
	fmt.Fprintf(&sb, "    0%*s\n", width, fmt.Sprintf("%.2f ms", float64(wall)/float64(time.Millisecond)))
	sb.WriteString("legend: L lexical  S splitter  I importer  P parser/decl  G stmt/codegen  M merge  ! panic-isolated  . idle\n")
	return sb.String()
}
