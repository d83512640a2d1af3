package core_test

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"m2cc/internal/core"
	"m2cc/internal/ctrace"
	"m2cc/internal/sim"
	"m2cc/internal/symtab"
	"m2cc/internal/workload"
)

// TestTraceCanonicalAcrossRuns pins that a one-worker trace is a
// function of the program alone — the property the §4 harness's
// reproducibility rests on.  Even at one worker the live run's
// recording order depends on goroutine interleaving (the driver's
// prefetch, importers racing to start a def stream), so the program is
// recompiled many times while another goroutine loads the machine, and
// every trace must equal the first.  The runs' wall-clock records
// (Trace.Run) are cleared before comparing: no two runs share one.
func TestTraceCanonicalAcrossRuns(t *testing.T) {
	suite := workload.GenerateSuite(7, 0.05)
	prog := suite.Programs[2].Name

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				core.Compile(suite.Programs[3].Name, suite.Loader, core.Options{Workers: 2})
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	first := core.Compile(prog, suite.Loader, core.Options{Workers: 1, Trace: true})
	if first.Failed() {
		t.Fatalf("%s failed to compile:\n%s", prog, first.Diags)
	}
	first.Trace.Run = nil
	for i := 1; i < 50; i++ {
		res := core.Compile(prog, suite.Loader, core.Options{Workers: 1, Trace: true})
		res.Trace.Run = nil
		if !reflect.DeepEqual(res.Trace, first.Trace) {
			t.Fatalf("compile %d of %s: trace differs from the first", i, prog)
		}
	}
}

// measuredTrace compiles prog with tracing on and returns its trace on
// the measured clock.
func measuredTrace(t *testing.T, suite *workload.Suite, prog string, workers int, strategy symtab.Strategy) *ctrace.Trace {
	t.Helper()
	res := core.Compile(prog, suite.Loader, core.Options{Workers: workers, Strategy: strategy, Trace: true})
	if res.Failed() {
		t.Fatalf("%s failed to compile:\n%s", prog, res.Diags)
	}
	return res.Trace.Measured()
}

// TestMeasuredReplayP1 pins the measured clock against the simulator:
// one processor runs every task back to back, so a P=1 replay of the
// measured trace takes exactly the tasks' measured µs plus the
// Skeptical re-search charged per simulated blockage.
func TestMeasuredReplayP1(t *testing.T) {
	suite := workload.GenerateSuite(7, 0.05)
	for _, workers := range []int{1, 2, 4} {
		m := measuredTrace(t, suite, suite.Programs[2].Name, workers, symtab.Skeptical)
		total := m.TotalCost()
		if total <= 0 {
			t.Fatalf("workers=%d: measured trace has no time", workers)
		}
		r := sim.New(m, sim.Options{
			Processors: 1, Strategy: symtab.Skeptical, LongBeforeShort: true, BoostResolver: true,
		}).Run()
		want := total + float64(r.Blocks)*ctrace.CostLookupHop
		if math.Abs(r.Makespan-want) > 1e-9*want {
			t.Errorf("workers=%d: P=1 makespan %v µs, want Σ cost %v + %d blocks × %v = %v",
				workers, r.Makespan, total, r.Blocks, ctrace.CostLookupHop, want)
		}
	}
}

// TestMeasuredStampsInTask checks the mapping on a real compile: every
// stamp lands inside its task, in [0, measured cost], and each task's
// records keep their work-unit order.
func TestMeasuredStampsInTask(t *testing.T) {
	suite := workload.GenerateSuite(7, 0.05)
	res := core.Compile(suite.Programs[2].Name, suite.Loader, core.Options{Workers: 2, Trace: true})
	if res.Failed() {
		t.Fatalf("compile failed:\n%s", res.Diags)
	}
	tr := res.Trace
	m := tr.Measured()
	check := func(what string, before, after []ctrace.Stamp) {
		for i, s := range after {
			if s.Task == 0 {
				continue
			}
			if cost := m.Tasks[s.Task-1].Cost; s.Offset < 0 || s.Offset > cost {
				t.Fatalf("%s %d: offset %v µs outside task %d's [0, %v]", what, i, s.Offset, s.Task, cost)
			}
			if i > 0 && s.Task == after[i-1].Task &&
				(before[i].Offset-before[i-1].Offset)*(s.Offset-after[i-1].Offset) < 0 {
				t.Fatalf("%s %d: mapping reorders task %d's records", what, i, s.Task)
			}
		}
	}
	var bf, af, bl, al, bs, as []ctrace.Stamp
	for i := range tr.Fires {
		bf, af = append(bf, tr.Fires[i].At), append(af, m.Fires[i].At)
	}
	for i := range tr.Lookups {
		bl, al = append(bl, tr.Lookups[i].At), append(al, m.Lookups[i].At)
		for h := range tr.Lookups[i].Hops {
			bs, as = append(bs, tr.Lookups[i].Hops[h].Insert), append(as, m.Lookups[i].Hops[h].Insert)
		}
	}
	var bw, aw, bp, ap []ctrace.Stamp
	for i := range tr.Waits {
		bw, aw = append(bw, tr.Waits[i].At), append(aw, m.Waits[i].At)
	}
	for i := range tr.Spawns {
		bp, ap = append(bp, tr.Spawns[i].At), append(ap, m.Spawns[i].At)
	}
	if len(al) == 0 || len(af) == 0 {
		t.Fatal("trace has no lookups or fires")
	}
	check("fire", bf, af)
	check("wait", bw, aw)
	check("spawn", bp, ap)
	check("lookup", bl, al)
	check("insert", bs, as)
}

// TestMeasuredReplayFollowsStrategy checks that the measured trace
// carries what -dky acts on: some suite program's Avoidance replay is
// held back by the scope gates the measured trace carries (before the
// first search), and so differs from its replay without them and from
// its Skeptical replay.  The trace's wall-clock stretches are rewritten
// to one µs per work unit first, so the replays do not depend on the
// host's timings.
func TestMeasuredReplayFollowsStrategy(t *testing.T) {
	suite := workload.GenerateSuite(7, 0.05)
	replay := func(m *ctrace.Trace, s symtab.Strategy) (int64, float64) {
		r := sim.New(m, sim.Options{Processors: 4, Strategy: s, LongBeforeShort: true, BoostResolver: true}).Run()
		return r.Blocks, r.Makespan
	}
	for _, p := range suite.Programs {
		res := core.Compile(p.Name, suite.Loader, core.Options{Workers: 1, Trace: true})
		if res.Failed() {
			t.Fatalf("%s failed to compile:\n%s", p.Name, res.Diags)
		}
		for i := range res.Trace.Run.Tasks {
			var units float64
			for j := range res.Trace.Run.Tasks[i].Stretches {
				s := &res.Trace.Run.Tasks[i].Stretches[j]
				s.End = s.Start + time.Duration((s.Units-units)*float64(time.Microsecond))
				units = s.Units
			}
		}
		m := res.Trace.Measured()
		ungated := *m
		ungated.ScopeGates = nil
		avBlocks, avSpan := replay(m, symtab.Avoidance)
		if b, span := replay(&ungated, symtab.Avoidance); b == avBlocks && span == avSpan {
			continue
		}
		if b, span := replay(m, symtab.Skeptical); b == avBlocks && span == avSpan {
			t.Errorf("%s: Avoidance replay matches Skeptical (%d blocks, %v µs)", p.Name, b, span)
		}
		return
	}
	t.Fatal("no suite program's measured Avoidance replay depends on its scope gates")
}
