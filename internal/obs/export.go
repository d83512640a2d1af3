package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/ifacecache"
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
	Spans    int `json:"spans"`

	Panics        int `json:"panics"`         // panic-isolated tasks (PR 2)
	WatchdogFires int `json:"watchdog_fires"` // deadlock-watchdog interventions
	StallAbandons int `json:"stall_abandons"` // foreign-leader waits abandoned at deadline

	BlocksHandled  int64 `json:"blocks_handled"`  // handled-event waits taken (slot released)
	BlocksExternal int64 `json:"blocks_external"` // external (cache-leader) waits taken
	BlocksBarrier  int64 `json:"blocks_barrier"`  // barrier waits taken (slot held)

	// Worker-slot occupancy over the run: time-weighted mean of busy
	// slots, the peak, and mean/workers as utilization (the measured
	// counterpart of sim.Result.Utilization).
	SlotOccupancyMean float64 `json:"slot_occupancy_mean"`
	SlotOccupancyPeak int     `json:"slot_occupancy_peak"`
	Utilization       float64 `json:"utilization"`

	// Ready-queue depth sampled after every dispatch round.
	ReadyDepthMean float64 `json:"ready_depth_mean"`
	ReadyDepthPeak int     `json:"ready_depth_peak"`

	// Event traffic attributed to the run (process-global counter
	// delta; see event.Totals).
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
	Sched *SchedCounters `json:"sched,omitempty"`

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
// spans still running are counted up to Finish's stamp (or now).
func (o *Observer) Snapshot() Metrics {
	if o == nil {
		return Metrics{}
	}
	spans, tasks, marks, wall := o.snapshotSpans()

	o.mu.Lock()
	m := Metrics{
		WallMs:            wall.Seconds() * 1000,
		Workers:           o.workers,
		Tasks:             len(tasks),
		Spans:             len(spans),
		SlotOccupancyPeak: o.peakBusy,
		ReadyDepthPeak:    o.readyPeak,
		EventFires:        o.evDelta.Fires,
		EventWaits:        o.evDelta.Waits,
	}
	// Advance the occupancy integral to the horizon for tasks still on
	// a slot, without mutating the live integral.
	busyInt := o.busyInt + float64(o.busy)*(wall-o.lastBusyAt).Seconds()
	if wall > 0 {
		m.SlotOccupancyMean = busyInt / wall.Seconds()
	}
	if o.workers > 0 {
		m.Utilization = m.SlotOccupancyMean / float64(o.workers)
	}
	if o.readySamples > 0 {
		m.ReadyDepthMean = float64(o.readySum) / float64(o.readySamples)
	}
	if o.cache != (ifacecache.Stats{}) {
		c := o.cache
		m.Cache = &c
	}
	if o.streams != (StreamMetrics{}) {
		sc := o.streams
		m.Streams = &sc
	}
	if o.sched != (SchedCounters{}) {
		sc := o.sched
		m.Sched = &sc
	}
	lookups := o.lookups
	strategy := o.strategy
	o.mu.Unlock()

	for _, t := range tasks {
		if t.Done {
			m.Finished++
		}
		if !t.HasRun {
			m.NeverRan++
		}
		m.BlocksHandled += int64(t.Blocks[BlockHandled])
		m.BlocksExternal += int64(t.Blocks[BlockExternal])
		m.BlocksBarrier += int64(t.Blocks[BlockBarrier])
	}
	for _, mk := range marks {
		switch mk.Kind {
		case MarkPanic:
			m.Panics++
		case MarkWatchdog:
			m.WatchdogFires++
		case MarkStallAbandon:
			m.StallAbandons++
		}
	}
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

// WriteChromeTrace writes the observed spans as Chrome trace-event
// JSON: one thread lane per worker slot, one complete ("X") event per
// span, instant events for event fires, waits, panic isolation and
// watchdog fires.  Output order is deterministic (spans sorted by
// start, then lane, then task; edges likewise), so the same recorded
// run always serializes byte-identically.  Load the file in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		return fmt.Errorf("obs: no observer attached")
	}
	spans, tasks, marks, _ := o.snapshotSpans()
	fires, waits, _ := o.snapshotEdges()
	o.mu.Lock()
	workers := o.workers
	lanes := len(o.lanes)
	o.mu.Unlock()
	if lanes > workers {
		workers = lanes
	}

	evs := make([]chromeEvent, 0, len(spans)+len(marks)+len(fires)+len(waits)+workers+2)
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "m2cc concurrent compiler"},
	})
	// task_count lets cross-reference checkers (cmd/tracecheck) validate
	// task IDs in span/edge args without trusting the span set itself.
	evs = append(evs, chromeEvent{
		Name: "task_count", Ph: "M", Pid: tracePid,
		Args: map[string]any{"count": len(tasks)},
	})
	for lane := 0; lane < workers; lane++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: lane,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", lane)},
		})
	}
	taskOf := func(id int) *TaskRecord {
		if id < 1 || id > len(tasks) {
			return nil
		}
		return &tasks[id-1]
	}
	for _, sp := range spans {
		name := fmt.Sprintf("task %d", sp.Task)
		args := map[string]any{"end": sp.EndReason}
		cat := ""
		if t := taskOf(sp.Task); t != nil {
			name = t.Label
			cat = t.Kind.String()
			args["stream"] = t.Stream
			args["task"] = t.ID
			if t.Panicked {
				args["panicked"] = true
			}
		}
		dur := (sp.End - sp.Start).Microseconds()
		if dur < 1 {
			dur = 1 // Perfetto drops zero-width slices
		}
		evs = append(evs, chromeEvent{
			Name: name, Cat: cat, Ph: "X",
			Ts: sp.Start.Microseconds(), Dur: dur,
			Pid: tracePid, Tid: sp.Lane, Args: args,
		})
	}
	for _, mk := range marks {
		name := mk.Kind.String()
		scope, tid := "p", 0
		if mk.Lane >= 0 {
			scope, tid = "t", mk.Lane
		}
		args := map[string]any{}
		if t := taskOf(mk.Task); t != nil {
			args["task"] = t.Label
		}
		evs = append(evs, chromeEvent{
			Name: name, Cat: "fault", Ph: "i",
			Ts: mk.At.Microseconds(), Pid: tracePid, Tid: tid,
			Scope: scope, Args: args,
		})
	}
	// Dependency edges: one instant per event fire and per wait window,
	// carrying the observer event/task IDs so tracecheck can verify the
	// cross-references (every non-external wait must name a fired event).
	for _, f := range fires {
		name := "fire"
		if f.Forced {
			name = "force-fire"
		}
		scope, tid := "p", 0
		if f.Lane >= 0 {
			scope, tid = "t", f.Lane
		}
		evs = append(evs, chromeEvent{
			Name: name, Cat: "event", Ph: "i",
			Ts: f.At.Microseconds(), Pid: tracePid, Tid: tid, Scope: scope,
			Args: map[string]any{"event": f.Event, "task": f.Task},
		})
	}
	for _, wt := range waits {
		scope, tid := "p", 0
		if wt.Lane >= 0 {
			scope, tid = "t", wt.Lane
		}
		evs = append(evs, chromeEvent{
			Name: "wait", Cat: "event", Ph: "i",
			Ts: wt.Start.Microseconds(), Pid: tracePid, Tid: tid, Scope: scope,
			Args: map[string]any{
				"event": wt.Event, "task": wt.Task,
				"reason":     wt.Reason.String(),
				"blocked_us": (wt.End - wt.Start).Microseconds(),
			},
		})
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
// panic-isolated span.  Comparing this measured view against the
// simulated one is the point of the layer.
func (o *Observer) RenderTimeline(width int) string {
	if o == nil {
		return ""
	}
	if width <= 0 {
		width = 100
	}
	spans, tasks, _, wall := o.snapshotSpans()
	o.mu.Lock()
	workers := o.workers
	lanes := len(o.lanes)
	o.mu.Unlock()
	if lanes > workers {
		workers = lanes
	}
	if workers == 0 || wall <= 0 {
		return "(no activity recorded)\n"
	}

	acts := make([]ctrace.Activity, len(spans))
	for i, sp := range spans {
		glyph := byte('?')
		if sp.Task >= 1 && sp.Task <= len(tasks) {
			t := tasks[sp.Task-1]
			glyph = t.Kind.Glyph()
			if t.Panicked {
				glyph = '!'
			}
		}
		acts[i] = ctrace.Activity{Lane: sp.Lane, Start: sp.Start.Seconds(), End: sp.End.Seconds(), Glyph: glyph}
	}
	var sb strings.Builder
	ctrace.WriteLanes(&sb, 'W', workers, wall.Seconds(), width, acts)
	fmt.Fprintf(&sb, "    0%*s\n", width, fmt.Sprintf("%.2f ms", float64(wall)/float64(time.Millisecond)))
	sb.WriteString("legend: L lexical  S splitter  I importer  P parser/decl  G stmt/codegen  M merge  ! panic-isolated  . idle\n")
	return sb.String()
}
