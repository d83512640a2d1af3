package bench_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"m2cc/internal/bench"
	"m2cc/internal/sim"
	"m2cc/internal/symtab"
)

var (
	hOnce sync.Once
	h     *bench.Harness
	hErr  error
)

func harness(t *testing.T) *bench.Harness {
	t.Helper()
	hOnce.Do(func() {
		h, hErr = bench.New(bench.Config{Scale: 0.08, Seed: 1992})
	})
	if hErr != nil {
		t.Fatal(hErr)
	}
	return h
}

func TestTable1Shape(t *testing.T) {
	out := harness(t).Table1()
	for _, want := range []string{"Module size (bytes)", "Seq. compile time",
		"Imported interfaces", "Import nesting depth", "Number of procedures",
		"Number of streams"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3MonotoneColumns(t *testing.T) {
	hh := harness(t)
	prevMean := 1.0
	for p := 2; p <= hh.Cfg.MaxProcs; p++ {
		mean := hh.MeanSpeedup(p)
		if mean < 1.0 {
			t.Errorf("mean speedup %f < 1 at P=%d", mean, p)
		}
		if mean+0.05 < prevMean {
			t.Errorf("mean speedup decreased at P=%d: %f < %f", p, mean, prevMean)
		}
		prevMean = mean
	}
	out := hh.Table3()
	if !strings.Contains(out, "Synth") || !strings.Contains(out, "Q4") {
		t.Fatalf("Table 3 columns missing:\n%s", out)
	}
}

func TestFiguresRender(t *testing.T) {
	hh := harness(t)
	for name, text := range map[string]string{
		"fig1": hh.Figure1(), "fig2": hh.Figure2(), "fig3": hh.Figure3(),
		"fig4": hh.Figure4(), "fig7": hh.Figure7(),
	} {
		if len(strings.TrimSpace(text)) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	if !strings.Contains(hh.Figure2(), "linear") {
		t.Error("Figure 2 must include the linear reference")
	}
	if !strings.Contains(hh.Figure7(), "legend") {
		t.Error("Figure 7 must include the legend")
	}
}

func TestQuartileOrderingMatchesPaper(t *testing.T) {
	// The paper's Figure 3 finding: speedup grows with program size —
	// Table 3's quartile columns must be (weakly) increasing at P=8.
	out := harness(t).Table3()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1] // the P=8 row
	var n int
	var min, mean, max, synth, vm, q1, q2, q3, q4 float64
	if _, err := fmt.Sscanf(last, "%d | %f %f %f | %f %f | %f %f %f %f",
		&n, &min, &mean, &max, &synth, &vm, &q1, &q2, &q3, &q4); err != nil {
		t.Fatalf("cannot parse Table 3 row %q: %v", last, err)
	}
	if !(q1 <= q2*1.05 && q2 <= q3*1.05 && q3 <= q4*1.05) {
		t.Errorf("quartiles not increasing: %f %f %f %f", q1, q2, q3, q4)
	}
	if min > mean || mean > max {
		t.Errorf("min/mean/max inconsistent: %f %f %f", min, mean, max)
	}
}

func TestTable2AggregatesSuite(t *testing.T) {
	stats := harness(t).Table2(8)
	if stats.Lookups.Load() < 1000 {
		t.Fatalf("suspiciously few lookups: %d", stats.Lookups.Load())
	}
	text := stats.String()
	for _, want := range []string{"self", "Builtin", "qualified"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 2 missing %q rows:\n%s", want, text)
		}
	}
}

func TestStrategyAblationCoversAll(t *testing.T) {
	rel := harness(t).StrategyAblation(8)
	if len(rel) != int(symtab.NumStrategies) {
		t.Fatalf("got %d strategies", len(rel))
	}
	if rel[symtab.Skeptical] != 1.0 {
		t.Fatalf("skeptical must be the 1.0 baseline, got %f", rel[symtab.Skeptical])
	}
	for s, v := range rel {
		if v < 0.9 || v > 1.5 {
			t.Errorf("%s relative time %f out of plausible range", s, v)
		}
	}
}

func TestOverheadVirtualUnitsSmall(t *testing.T) {
	if ov := harness(t).Overhead(); ov.UnitsPct < 0 || ov.UnitsPct > 15 {
		t.Errorf("virtual overhead %.1f%% out of range (paper: 4.3%%)", ov.UnitsPct)
	}
}

func TestRenderTimelineShape(t *testing.T) {
	tl := []sim.Interval{
		{Proc: 0, Kind: 0, Start: 0, End: 50},
		{Proc: 1, Kind: 7, Start: 25, End: 100},
	}
	out := bench.RenderTimeline(tl, 2, 100, 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 2 processor rows + axis, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "P1") || !strings.HasPrefix(lines[1], "P0") {
		t.Fatalf("row order wrong:\n%s", out)
	}
	if !strings.Contains(lines[1], "L") || !strings.Contains(lines[0], "G") {
		t.Fatalf("glyphs wrong:\n%s", out)
	}
	if !strings.Contains(lines[0], ".") {
		t.Fatalf("idle time must render as dots:\n%s", out)
	}
}

// TestHarnessDeterministic: two harnesses with the same config produce
// identical tables — the property EXPERIMENTS.md's numbers rely on.
func TestHarnessDeterministic(t *testing.T) {
	a, err := bench.New(bench.Config{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.New(bench.Config{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Table3() != b.Table3() {
		t.Fatal("Table 3 not reproducible")
	}
	if a.Table1() != b.Table1() {
		t.Fatal("Table 1 not reproducible")
	}
	if a.Figure7() != b.Figure7() {
		t.Fatal("Figure 7 not reproducible")
	}
	if a.Table2(8).String() != b.Table2(8).String() {
		t.Fatal("Table 2 not reproducible")
	}
}

// TestBoostAblationRuns exercises the §2.3.4 resolver-preference knob.
func TestBoostAblationRuns(t *testing.T) {
	ratio := harness(t).BoostAblation(8)
	if ratio < 0.95 || ratio > 1.2 {
		t.Fatalf("boost ablation ratio %f implausible", ratio)
	}
}
