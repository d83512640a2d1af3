// Benchmarks regenerating the paper's evaluation, one per table and
// figure (see DESIGN.md's experiment index).  Each benchmark measures
// the cost of regenerating its artifact and reports the headline
// numbers as custom metrics, so `go test -bench=. -benchmem` doubles as
// a compact reproduction report.
//
// The workload scale is reduced (0.25) to keep -bench runs quick; run
// cmd/m2bench for the paper-sized versions.
package m2cc_test

import (
	"sync"
	"testing"

	"m2cc"
	"m2cc/internal/bench"
	"m2cc/internal/symtab"
	"m2cc/internal/workload"
)

const benchScale = 0.25

var (
	harnessOnce sync.Once
	harness     *bench.Harness
	harnessErr  error
)

// sharedHarness prepares the traced workload once for all benchmarks.
func sharedHarness(b *testing.B) *bench.Harness {
	b.Helper()
	harnessOnce.Do(func() {
		harness, harnessErr = bench.New(bench.Config{Scale: benchScale})
	})
	if harnessErr != nil {
		b.Fatal(harnessErr)
	}
	return harness
}

// BenchmarkTable1SuiteCompile regenerates Table 1: it compiles the
// whole generated test suite sequentially and summarizes its
// characteristics.
func BenchmarkTable1SuiteCompile(b *testing.B) {
	h := sharedHarness(b)
	for i := 0; i < b.N; i++ {
		if len(h.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
	suite := h.Suite
	b.ReportMetric(float64(len(suite.Programs)), "programs")
}

// BenchmarkFigure1SuiteSpeedup regenerates Figure 1 (and the Min/Mean/
// Max columns of Table 3): the suite speedup sweep over 1..8 simulated
// processors.
func BenchmarkFigure1SuiteSpeedup(b *testing.B) {
	h := sharedHarness(b)
	for i := 0; i < b.N; i++ {
		if len(h.Figure1()) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.ReportMetric(h.MeanSpeedup(8), "speedup@8")
}

// BenchmarkFigure2BestCase regenerates Figure 2: the synthetic module's
// near-linear curve against the best human-authored module and the
// linear reference.
func BenchmarkFigure2BestCase(b *testing.B) {
	h := sharedHarness(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = h.Figure2()
	}
	_ = out
}

// BenchmarkFigure3Quartiles regenerates Figure 3: speedup by
// sequential-compile-time quartiles.
func BenchmarkFigure3Quartiles(b *testing.B) {
	h := sharedHarness(b)
	for i := 0; i < b.N; i++ {
		if len(h.Figure3()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure4WatchTool regenerates Figure 4: activity timelines
// for one program per quartile plus Synth.mod at P=8.
func BenchmarkFigure4WatchTool(b *testing.B) {
	h := sharedHarness(b)
	for i := 0; i < b.N; i++ {
		if len(h.Figure4()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable2LookupStats regenerates Table 2: identifier lookup
// statistics under Skeptical handling at P=8, aggregated over the
// suite.
func BenchmarkTable2LookupStats(b *testing.B) {
	h := sharedHarness(b)
	var stats *m2cc.Stats
	for i := 0; i < b.N; i++ {
		stats = h.Table2(8)
	}
	b.ReportMetric(float64(stats.Lookups.Load()), "lookups")
	b.ReportMetric(float64(stats.Blocks.Load()), "DKY-blocks")
}

// BenchmarkTable3Summary regenerates the full Table 3.
func BenchmarkTable3Summary(b *testing.B) {
	h := sharedHarness(b)
	for i := 0; i < b.N; i++ {
		if len(h.Table3()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure7ActivityView regenerates Figure 7: the task-kind
// activity view of the suite's largest compilation.
func BenchmarkFigure7ActivityView(b *testing.B) {
	h := sharedHarness(b)
	for i := 0; i < b.N; i++ {
		if len(h.Figure7()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkSequentialVsConcurrent1 measures the §4.2 claim: the
// concurrent compiler restricted to one worker pays a small overhead
// over the sequential compiler (the paper measured 4.3%).
func BenchmarkSequentialVsConcurrent1(b *testing.B) {
	h := sharedHarness(b)
	var ov bench.OverheadResult
	for i := 0; i < b.N; i++ {
		ov = h.Overhead()
	}
	b.ReportMetric(ov.UnitsPct, "overhead-units-%")
}

// BenchmarkDKYStrategyAblation measures the §2.2 claim: the choice of
// DKY strategy moves overall compile time by roughly 10%.
func BenchmarkDKYStrategyAblation(b *testing.B) {
	h := sharedHarness(b)
	var rel map[symtab.Strategy]float64
	for i := 0; i < b.N; i++ {
		rel = h.StrategyAblation(8)
	}
	b.ReportMetric(100*(rel[symtab.Avoidance]-1), "avoidance-%")
	b.ReportMetric(100*(rel[symtab.Pessimistic]-1), "pessimistic-%")
	b.ReportMetric(100*(rel[symtab.Optimistic]-1), "optimistic-%")
}

// BenchmarkHeaderModeAblation measures the §2.4 claim: re-processing
// headings in the child scope (alternative 3) costs about 3%.
func BenchmarkHeaderModeAblation(b *testing.B) {
	h := sharedHarness(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := h.HeaderAblation(8)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r
	}
	b.ReportMetric(100*(ratio-1), "alt3-slowdown-%")
}

// BenchmarkLongShortAblation measures the §2.3.4 claim: generating code
// for long procedures first avoids a sequential tail.
func BenchmarkLongShortAblation(b *testing.B) {
	h := sharedHarness(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = h.OrderingAblation(8)
	}
	b.ReportMetric(100*(ratio-1), "no-ordering-slowdown-%")
}

// BenchmarkConcurrentCompile measures raw concurrent compilation
// throughput on a mid-sized generated module.
func BenchmarkConcurrentCompile(b *testing.B) {
	h := sharedHarness(b)
	prog := h.Suite.Programs[20]
	b.SetBytes(int64(prog.Bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m2cc.Compile(prog.Name, h.Suite.Loader, m2cc.Options{Workers: 4})
		if res.Failed() {
			b.Fatalf("compile failed:\n%s", res.Diags)
		}
	}
}

// BenchmarkSequentialCompile is the sequential counterpart.
func BenchmarkSequentialCompile(b *testing.B) {
	h := sharedHarness(b)
	prog := h.Suite.Programs[20]
	b.SetBytes(int64(prog.Bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m2cc.CompileSequential(prog.Name, h.Suite.Loader)
		if res.Failed() {
			b.Fatalf("compile failed:\n%s", res.Diags)
		}
	}
}

// BenchmarkImportDAG measures the import-graph cost: a module importing
// the last of 3 200 interfaces, each importing the two before it
// (importChain), compiled concurrently at one and two workers and
// sequentially.
func BenchmarkImportDAG(b *testing.B) {
	module, loader := importChain(3200, true)
	for _, c := range []struct {
		name    string
		compile func() bool
	}{
		{"Compile/1", func() bool { return m2cc.Compile(module, loader, m2cc.Options{Workers: 1}).Failed() }},
		{"Compile/2", func() bool { return m2cc.Compile(module, loader, m2cc.Options{Workers: 2}).Failed() }},
		{"CompileSequential", func() bool { return m2cc.CompileSequential(module, loader).Failed() }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				if c.compile() {
					b.Fatal("compile failed")
				}
			}
		})
	}
}

// BenchmarkSynthTraceAndSim measures the full best-case pipeline:
// generate Synth.mod, trace-compile it and simulate 8 processors.
func BenchmarkSynthTraceAndSim(b *testing.B) {
	loader := m2cc.NewMapLoader()
	workload.GenerateSynth(loader, 32, 6, nil)
	var speedup float64
	for i := 0; i < b.N; i++ {
		res := m2cc.Compile("Synth", loader, m2cc.Options{Workers: 1, Trace: true})
		if res.Failed() {
			b.Fatal("Synth failed")
		}
		opts := m2cc.SimOptions{Processors: 1, Strategy: m2cc.Skeptical,
			LongBeforeShort: true, BoostResolver: true}
		base := m2cc.Simulate(res.Trace, opts).Makespan
		opts.Processors = 8
		speedup = base / m2cc.Simulate(res.Trace, opts).Makespan
	}
	b.ReportMetric(speedup, "synth-speedup@8")
}
