package obs_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/ctrace"
	"m2cc/internal/faultinject"
	"m2cc/internal/ifacecache"
	"m2cc/internal/obs"
	"m2cc/internal/sched"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
	"m2cc/internal/workload"
)

// obsProgram is a three-module fixture with enough procedures, imports
// and lookups that the trace has every kind of record (the same shape
// as the chaos fixture at the repo root).
var obsProgram = map[string]map[source.FileKind]string{
	"Pair": {source.Def: `
DEFINITION MODULE Pair;
PROCEDURE Sum(a, b: INTEGER): INTEGER;
PROCEDURE Max(a, b: INTEGER): INTEGER;
END Pair.
`, source.Impl: `
IMPLEMENTATION MODULE Pair;

PROCEDURE Sum(a, b: INTEGER): INTEGER;
BEGIN
  RETURN a + b
END Sum;

PROCEDURE Max(a, b: INTEGER): INTEGER;
BEGIN
  IF a > b THEN RETURN a END;
  RETURN b
END Max;

END Pair.
`},
	"Main": {source.Impl: `
MODULE Main;
FROM Pair IMPORT Sum, Max;
IMPORT Pair;
VAR v: INTEGER;

PROCEDURE Triple(n: INTEGER): INTEGER;
BEGIN
  RETURN Sum(Sum(n, n), n)
END Triple;

PROCEDURE Clamp(n, hi: INTEGER): INTEGER;
BEGIN
  RETURN hi - Max(0, hi - n)
END Clamp;

BEGIN
  v := Triple(4);
  WriteInt(Clamp(v, 10), 0); WriteLn;
  WriteInt(Pair.Max(v, 3), 0); WriteLn
END Main.
`},
}

func obsLoader() *source.MapLoader {
	loader := source.NewMapLoader()
	for name, kinds := range obsProgram {
		for kind, text := range kinds {
			loader.Add(name, kind, text)
		}
	}
	return loader
}

// compileObserved runs one concurrent compilation with an observer
// attached and fails the test on unexpected compile errors.
func compileObserved(t *testing.T, workers int, plan *faultinject.Plan) (*obs.Observer, *core.Result) {
	t.Helper()
	o := obs.New()
	res := core.Compile("Main", obsLoader(), core.Options{
		Workers: workers, Obs: o, FaultPlan: plan,
		// Lookup tallies are opt-in; the snapshot tests want them.
		CollectStats: true,
	})
	if plan == nil && (res.Failed() || res.Faulted) {
		t.Fatalf("clean compile failed (faulted=%v):\n%s", res.Faulted, res.Diags)
	}
	return o, res
}

// TestNilObserverSafe exercises every method on a nil receiver: each
// must be a no-op (views return zero values or a diagnosable error),
// mirroring the faultinject pattern.
func TestNilObserverSafe(t *testing.T) {
	var o *obs.Observer
	rec := ctrace.NewRecorder()
	o.Begin(rec, 4, "Skeptical")
	o.End(rec, obs.Tally{Sched: sched.Counters{Dispatches: 1}, Cache: ifacecache.Stats{Hits: 1}, Streams: streamcache.Tally{Hits: 1}, Evictions: 1})
	o.Finish()
	if m := o.Snapshot(); m.Tasks != 0 || m.Spans != 0 {
		t.Fatalf("nil Snapshot = %+v, want zero", m)
	}
	if p := o.Profile(); p.Tasks != 0 || p.Makespan != 0 || len(p.Path) != 0 {
		t.Fatalf("nil Profile = %+v, want zero", p)
	}
	if err := o.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil WriteChromeTrace must error")
	}
	if s := o.RenderTimeline(40); s != "" {
		t.Fatalf("nil RenderTimeline = %q, want empty", s)
	}
}

// TestSnapshotWorkers1Deterministic pins the snapshot fields that are
// schedule-independent under a single worker slot: every task runs,
// every task finishes, occupancy never exceeds the one slot.
func TestSnapshotWorkers1Deterministic(t *testing.T) {
	o, _ := compileObserved(t, 1, nil)
	m := o.Snapshot()

	if m.Workers != 1 {
		t.Errorf("Workers = %d, want 1", m.Workers)
	}
	if m.Tasks == 0 {
		t.Fatal("no tasks observed")
	}
	if m.Finished != m.Tasks {
		t.Errorf("Finished = %d, want %d (all tasks)", m.Finished, m.Tasks)
	}
	if m.NeverRan != 0 {
		t.Errorf("NeverRan = %d, want 0", m.NeverRan)
	}
	if m.Spans < m.Tasks {
		t.Errorf("Spans = %d < Tasks = %d; every task needs at least one span", m.Spans, m.Tasks)
	}
	if m.SlotOccupancyPeak != 1 {
		t.Errorf("SlotOccupancyPeak = %d, want 1 with one worker slot", m.SlotOccupancyPeak)
	}
	if m.Panics != 0 || m.WatchdogFires != 0 || m.StallAbandons != 0 {
		t.Errorf("clean run reported faults: %+v", m)
	}
	if m.WallMs <= 0 {
		t.Errorf("WallMs = %v, want > 0", m.WallMs)
	}
	if m.Utilization <= 0 || m.Utilization > 1.000001 {
		t.Errorf("Utilization = %v, want in (0, 1]", m.Utilization)
	}
	if m.EventFires <= 0 {
		t.Errorf("EventFires = %d, want > 0 (scope completions fire events)", m.EventFires)
	}
	if m.Lookups == nil || m.Lookups.Lookups == 0 {
		t.Errorf("Lookups = %+v, want recorded tallies", m.Lookups)
	}
}

// TestEventCountsAreTheRunsOwn: an Observer's event counters are read
// from the traces of the compilations it observes, so a compilation it
// does not observe, run after it was made, does not count.
func TestEventCountsAreTheRunsOwn(t *testing.T) {
	o := obs.New()
	core.Compile("Main", obsLoader(), core.Options{Workers: 2})
	res := core.Compile("Main", obsLoader(), core.Options{Workers: 2, Obs: o, Trace: true})
	var waits int64
	for _, r := range res.Trace.Run.Tasks {
		waits += int64(len(r.Waits))
	}
	m := o.Snapshot()
	if fires := int64(len(res.Trace.Run.Fires)); m.EventFires != fires || m.EventWaits != waits {
		t.Fatalf("EventFires, EventWaits = %d, %d; the observed trace holds %d fires, %d waits",
			m.EventFires, m.EventWaits, fires, waits)
	}
}

// TestCacheMetricsAreTheRunsOwn observes a batch of suite programs, one
// after another, on a shared interface cache: the Observer's cache
// traffic is the cache's own over the batch.
func TestCacheMetricsAreTheRunsOwn(t *testing.T) {
	suite := workload.GenerateSuite(1992, 0.1)
	cache := ifacecache.New()
	core.Compile(suite.Programs[0].Name, suite.Loader, core.Options{Workers: 2, Cache: cache}) // not observed
	o, before := obs.New(), cache.Stats()
	for _, p := range suite.Programs[:12] {
		core.Compile(p.Name, suite.Loader, core.Options{Workers: 2, Cache: cache, Obs: o})
	}
	d, m := cache.Stats().Sub(before), o.Snapshot()
	if m.Cache == nil || m.Cache.Hits != d.Hits || m.Cache.Misses != d.Misses || m.Cache.Waits != d.Waits || d.Hits == 0 {
		t.Fatalf("observed interface-cache traffic %+v; the cache's over the batch %+v", m.Cache, d)
	}
}

// chromeTrace is the trace-event JSON envelope the exporter writes.
type chromeTrace struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Ph    string         `json:"ph"`
		Ts    int64          `json:"ts"`
		Dur   int64          `json:"dur"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		Scope string         `json:"s"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func parseTrace(t *testing.T, o *obs.Observer) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return tr
}

// TestChromeTraceSchema checks the exported trace against the
// trace-event contract: valid JSON, one complete event per stretch, a
// stretch for every task, sane lanes and durations.
func TestChromeTraceSchema(t *testing.T) {
	const workers = 4
	o, _ := compileObserved(t, workers, nil)
	m := o.Snapshot()
	tr := parseTrace(t, o)

	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}
	spans := 0
	sawProcessName := false
	tasksWithSpan := map[int]bool{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				sawProcessName = true
			}
		case "X":
			spans++
			if ev.Name == "" {
				t.Error("span event with empty name")
			}
			if ev.Ts < 0 || ev.Dur < 1 {
				t.Errorf("span %q has ts=%d dur=%d", ev.Name, ev.Ts, ev.Dur)
			}
			if ev.Tid < 0 || ev.Tid >= workers {
				t.Errorf("span %q on lane %d, want [0,%d)", ev.Name, ev.Tid, workers)
			}
			if id, ok := ev.Args["task"].(float64); ok {
				tasksWithSpan[int(id)] = true
			}
		case "i":
			if ev.Scope != "t" && ev.Scope != "p" {
				t.Errorf("instant %q has scope %q", ev.Name, ev.Scope)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if !sawProcessName {
		t.Error("missing process_name metadata")
	}
	if spans != m.Spans {
		t.Errorf("trace has %d complete events, snapshot says %d spans", spans, m.Spans)
	}
	if len(tasksWithSpan) != m.Tasks {
		t.Errorf("%d tasks appear in the trace, snapshot says %d", len(tasksWithSpan), m.Tasks)
	}
}

// TestChromeTraceDeterministic pins the export contract: the same
// recorded run serializes byte-identically on every call.
func TestChromeTraceDeterministic(t *testing.T) {
	o, _ := compileObserved(t, 4, nil)
	var a, b bytes.Buffer
	if err := o.WriteChromeTrace(&a); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := o.WriteChromeTrace(&b); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same recorded run differ")
	}
}

// TestDumpEdgesConsistent validates the dependency edges of the trace
// the views render, which feed the profiler (ctrace.Trace.Validate: IDs
// in range, one fire per event, waits alternating with stretches, every
// non-external wait naming a fired event), and that every task of the
// finished compilations ran.  A batch of two compilations checks that
// their IDs do not collide.
func TestDumpEdgesConsistent(t *testing.T) {
	o, _ := compileObserved(t, 4, nil)
	if res := core.Compile("Main", obsLoader(), core.Options{Workers: 2, Obs: o}); res.Failed() {
		t.Fatalf("second compile failed:\n%s", res.Diags)
	}
	tr, _, _ := obs.Trace(o)
	if tr.Run.Events == 0 || len(tr.Run.Fires) == 0 {
		t.Fatalf("%d events, %d fires observed", tr.Run.Events, len(tr.Run.Fires))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Validate passes a task with no stretch, as a compilation still
	// running holds; both of these finished, so every task ran.
	for i, r := range tr.Run.Tasks {
		if len(r.Stretches) == 0 {
			t.Errorf("task %d of a finished compilation has no stretch", i+1)
		}
	}
}

// TestTracesValidate runs ctrace.Trace.Validate on the traces of the
// example modules and two generated suite programs under every DKY
// strategy, one and two workers and both header modes: the merged
// trace an Observer exports and the full trace Options.Trace records.
// Under Optimistic handling a lookup waits on a per-symbol event that
// its owner fires when the name is published or the scope completes;
// the run must record that fire as well as the wait.
func TestTracesValidate(t *testing.T) {
	loader := source.NewMapLoader()
	var modules []string
	kind := map[string]source.FileKind{".def": source.Def, ".mod": source.Impl}
	files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.*"))
	for _, f := range files {
		k, ok := kind[filepath.Ext(f)]
		if !ok {
			continue
		}
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		loader.Add(name, k, string(text))
		if k == source.Impl {
			modules = append(modules, name)
		}
	}
	suite := workload.GenerateSuite(1992, 0.2)
	for _, p := range suite.Programs {
		if p.Name == "Prog05" || p.Name == "Prog36" {
			modules = append(modules, p.Name)
		}
	}
	suiteLoader := func(m string) source.Loader {
		if strings.HasPrefix(m, "Prog") {
			return suite.Loader
		}
		return loader
	}
	if len(modules) < 9 {
		t.Fatalf("found %d modules: %v", len(modules), modules)
	}
	for s := symtab.Strategy(0); s < symtab.NumStrategies; s++ {
		for _, workers := range []int{1, 2} {
			for _, hdr := range []core.HeaderMode{core.HeaderShared, core.HeaderReprocess} {
				for _, m := range modules {
					opts := core.Options{Workers: workers, Strategy: s, Headers: hdr}
					o := obs.New()
					opts.Obs = o
					core.Compile(m, suiteLoader(m), opts)
					tr, _, _ := obs.Trace(o)
					if err := tr.Validate(); err != nil {
						t.Errorf("%s %v workers=%d headers=%d, exported: %v", m, s, workers, hdr, err)
					}
					opts.Obs, opts.Trace = nil, true
					if err := core.Compile(m, suiteLoader(m), opts).Trace.Validate(); err != nil {
						t.Errorf("%s %v workers=%d headers=%d, Options.Trace: %v", m, s, workers, hdr, err)
					}
				}
			}
		}
	}
}

// TestCleanVsChaosParity compares a clean run against one with a
// panic injected mid-lookup: the chaos snapshot must show the fault
// (panic count, tainted span, fault marker) while staying internally
// consistent, and both snapshots must agree with their own traces.
func TestCleanVsChaosParity(t *testing.T) {
	clean, cres := compileObserved(t, 4, nil)
	if cres.Faulted {
		t.Fatal("clean run faulted")
	}
	chaosPlan := faultinject.New().Arm(faultinject.PanicLookup, 5)
	chaos, xres := compileObserved(t, 4, chaosPlan)
	if !xres.Faulted {
		t.Fatal("armed PanicLookup did not fault the run")
	}

	cm, xm := clean.Snapshot(), chaos.Snapshot()
	if cm.Panics != 0 {
		t.Errorf("clean Panics = %d, want 0", cm.Panics)
	}
	if xm.Panics < 1 {
		t.Errorf("chaos Panics = %d, want >= 1", xm.Panics)
	}
	for name, m := range map[string]obs.Metrics{"clean": cm, "chaos": xm} {
		if m.Finished > m.Tasks {
			t.Errorf("%s: Finished %d > Tasks %d", name, m.Finished, m.Tasks)
		}
		if m.Spans < m.Finished {
			t.Errorf("%s: Spans %d < Finished %d", name, m.Spans, m.Finished)
		}
		if m.NeverRan > m.Tasks {
			t.Errorf("%s: NeverRan %d > Tasks %d", name, m.NeverRan, m.Tasks)
		}
	}

	// The chaos trace must carry the fault: a tainted span and a panic
	// instant marker — and each trace's block tallies must match its
	// snapshot.
	for name, pair := range map[string]struct {
		o *obs.Observer
		m obs.Metrics
	}{"clean": {clean, cm}, "chaos": {chaos, xm}} {
		tr := parseTrace(t, pair.o)
		var blocksHandled int64
		tainted, panicMark := false, false
		for _, ev := range tr.TraceEvents {
			if ev.Ph == "X" && ev.Args["end"] == "block-handled" {
				blocksHandled++
			}
			if ev.Ph == "X" && ev.Args["panicked"] == true {
				tainted = true
			}
			if ev.Ph == "i" && ev.Name == "panic" {
				panicMark = true
			}
		}
		if blocksHandled != pair.m.BlocksHandled {
			t.Errorf("%s: trace shows %d handled blocks, snapshot %d",
				name, blocksHandled, pair.m.BlocksHandled)
		}
		if name == "chaos" && (!tainted || !panicMark) {
			t.Errorf("chaos trace missing fault evidence: tainted=%v panicMark=%v",
				tainted, panicMark)
		}
		if name == "clean" && (tainted || panicMark) {
			t.Errorf("clean trace shows fault evidence: tainted=%v panicMark=%v",
				tainted, panicMark)
		}
	}
}

// TestRenderTimelineShape checks the Figure 7-style view: one row per
// worker (top-down), an axis line and the legend.
func TestRenderTimelineShape(t *testing.T) {
	o, _ := compileObserved(t, 2, nil)
	out := o.RenderTimeline(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 2 worker rows + axis + legend, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "W1 |") || !strings.HasPrefix(lines[1], "W0 |") {
		t.Errorf("rows not top-down W1,W0:\n%s", out)
	}
	if !strings.Contains(lines[3], "! panic-isolated") {
		t.Errorf("legend missing panic glyph:\n%s", out)
	}
	if !strings.ContainsAny(lines[1], "LSIPGM") {
		t.Errorf("worker 0 row shows no activity:\n%s", out)
	}
}

// TestObserverSpansBatch checks that one Observer accumulates across
// several compilations (the CompileBatch pattern): task counts grow,
// the largest worker count wins, compilations one after another share
// their lanes, and compilations side by side get lanes of their own,
// with views taken while they run.
func TestObserverSpansBatch(t *testing.T) {
	o := obs.New()
	loader := obsLoader()
	for i, w := range []int{2, 4} {
		res := core.Compile("Main", loader, core.Options{Workers: w, Obs: o})
		if res.Failed() || res.Faulted {
			t.Fatalf("compile %d failed:\n%s", i, res.Diags)
		}
	}
	m := o.Snapshot()
	if m.Workers != 4 {
		t.Errorf("Workers = %d, want max(2,4) = 4", m.Workers)
	}
	single := core.Compile("Main", loader, core.Options{Workers: 4, Obs: obs.New()})
	if single.Failed() {
		t.Fatal("single compile failed")
	}
	if m.Finished != m.Tasks || m.Tasks == 0 {
		t.Errorf("batch observer: Tasks=%d Finished=%d, want equal and > 0", m.Tasks, m.Finished)
	}
	if _, _, lanes := obs.Trace(o); lanes != 4 {
		t.Errorf("two compilations one after another show %d lanes, want 4", lanes)
	}

	side := obs.New()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			core.Compile("Main", loader, core.Options{Workers: 2, Obs: side})
			obs.Trace(side) // races the other compilation and its view, which may keep this run's trace
		}()
	}
	wg.Wait()
	tr, _, lanes := obs.Trace(side)
	if lanes < 2 || lanes > 4 {
		t.Errorf("two compilations side by side show %d lanes, want 2 to 4", lanes)
	}
	byLane := map[int32][]ctrace.Stretch{}
	for _, r := range tr.Run.Tasks {
		for _, s := range r.Stretches {
			byLane[s.Lane] = append(byLane[s.Lane], s)
		}
	}
	for lane, ss := range byLane {
		slices.SortFunc(ss, func(a, b ctrace.Stretch) int { return cmp.Compare(a.Start, b.Start) })
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End {
				t.Fatalf("lane %d: a stretch starts at %v before the one before it ends at %v", lane, ss[i].Start, ss[i-1].End)
			}
		}
	}
}
