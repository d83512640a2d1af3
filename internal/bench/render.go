package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"m2cc/internal/ctrace"
	"m2cc/internal/sim"
	"m2cc/internal/symtab"
)

// minMedMax summarizes a column of Table 1.
func minMedMax(vals []float64) (lo, med, hi float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	return s[0], s[n/2], s[n-1]
}

// Table1 renders the test-suite characteristics table.  Sequential
// compile time is reported in thousands of deterministic work units
// (the simulator's virtual clock; see internal/ctrace/cost.go).
func (h *Harness) Table1() string {
	var bytes, seqT, imps, depth, procs, streams []float64
	for i, p := range h.Suite.Programs {
		bytes = append(bytes, float64(p.Bytes))
		seqT = append(seqT, h.seqUnits[i]/1000)
		imps = append(imps, float64(p.Imports))
		depth = append(depth, float64(p.ImportDepth))
		procs = append(procs, float64(p.Procedures))
		streams = append(streams, float64(p.Streams))
	}
	var sb strings.Builder
	sb.WriteString("Table 1: Description of Test Suite (37 generated programs)\n")
	fmt.Fprintf(&sb, "%-28s %10s %10s %10s\n", "Attribute", "Minimum", "Median", "Maximum")
	row := func(name string, vals []float64, format string) {
		lo, med, hi := minMedMax(vals)
		fmt.Fprintf(&sb, "%-28s %10s %10s %10s\n", name,
			fmt.Sprintf(format, lo), fmt.Sprintf(format, med), fmt.Sprintf(format, hi))
	}
	row("Module size (bytes)", bytes, "%.0f")
	row("Seq. compile time (kunits)", seqT, "%.1f")
	row("Imported interfaces", imps, "%.0f")
	row("Import nesting depth", depth, "%.0f")
	row("Number of procedures", procs, "%.0f")
	row("Number of streams", streams, "%.0f")
	return sb.String()
}

// Table3 renders the full speedup summary.
func (h *Harness) Table3() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Summary of Speedup Data (self-relative, simulated Firefly)\n")
	fmt.Fprintf(&sb, "%2s | %5s %5s %5s | %6s %5s | %5s %5s %5s %5s\n",
		"N", "Min", "Mean", "Max", "Synth", "VM", "Q1", "Q2", "Q3", "Q4")
	for p := 2; p <= h.Cfg.MaxProcs; p++ {
		lo, hi := h.minMax(p)
		fmt.Fprintf(&sb, "%2d | %5.2f %5.2f %5.2f | %6.2f %5.2f | %5.2f %5.2f %5.2f %5.2f\n",
			p, lo, h.MeanSpeedup(p), hi,
			h.synthSpeedup[p-1], h.speedups[h.bestIdx][p-1],
			h.quartileMean(0, p), h.quartileMean(1, p),
			h.quartileMean(2, p), h.quartileMean(3, p))
	}
	return sb.String()
}

// series is one labelled speedup curve.
type series struct {
	label string
	vals  []float64 // index p-1
}

// chart renders speedup curves as an ASCII plot plus a value table.
func (h *Harness) chart(title string, ss []series, withLinear bool) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	maxP := h.Cfg.MaxProcs
	if withLinear {
		lin := make([]float64, maxP)
		for p := 1; p <= maxP; p++ {
			lin[p-1] = float64(p)
		}
		ss = append([]series{{label: "linear", vals: lin}}, ss...)
	}
	top := 1.0
	for _, s := range ss {
		for _, v := range s.vals {
			if v > top {
				top = v
			}
		}
	}
	const rows = 16
	const colw = 8
	marks := "*+xo#@%&"
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", maxP*colw+6))
	}
	for si, s := range ss {
		for p := 1; p <= maxP; p++ {
			r := rows - 1 - int(math.Round((s.vals[p-1]/top)*float64(rows-1)))
			if r < 0 {
				r = 0
			}
			c := 6 + (p-1)*colw + colw/2
			grid[r][c] = marks[si%len(marks)]
		}
	}
	for r := 0; r < rows; r++ {
		val := top * float64(rows-1-r) / float64(rows-1)
		fmt.Fprintf(&sb, "%5.1f %s\n", val, strings.TrimRight(string(grid[r]), " "))
	}
	sb.WriteString("      " + strings.Repeat("-", maxP*colw) + "\n")
	sb.WriteString("      ")
	for p := 1; p <= maxP; p++ {
		sb.WriteString(fmt.Sprintf("%*d", colw/2+1, p) + strings.Repeat(" ", colw-colw/2-1))
	}
	sb.WriteString(" processors\n")
	for si, s := range ss {
		fmt.Fprintf(&sb, "  %c = %-10s", marks[si%len(marks)], s.label)
		for p := 1; p <= maxP; p++ {
			fmt.Fprintf(&sb, " %5.2f", s.vals[p-1])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Figure1 renders the test-suite self-relative speedup curve.
func (h *Harness) Figure1() string {
	mean := make([]float64, h.Cfg.MaxProcs)
	for p := 1; p <= h.Cfg.MaxProcs; p++ {
		mean[p-1] = h.MeanSpeedup(p)
	}
	return h.chart("Figure 1: Test Suite Self Relative Speedup",
		[]series{{label: "suite mean", vals: mean}}, false)
}

// Figure2 renders the best-case comparison: Synth.mod, the best
// human-authored module and the linear reference.
func (h *Harness) Figure2() string {
	return h.chart("Figure 2: Best Case Self Relative Speedup",
		[]series{
			{label: "Synth", vals: h.synthSpeedup},
			{label: h.Suite.Programs[h.bestIdx].Name, vals: h.speedups[h.bestIdx]},
		}, true)
}

// Figure3 renders the per-quartile speedup curves.
func (h *Harness) Figure3() string {
	var ss []series
	for q := 0; q < 4; q++ {
		vals := make([]float64, h.Cfg.MaxProcs)
		for p := 1; p <= h.Cfg.MaxProcs; p++ {
			vals[p-1] = h.quartileMean(q, p)
		}
		ss = append(ss, series{label: fmt.Sprintf("Q%d", q+1), vals: vals})
	}
	return h.chart("Figure 3: Speedup by Quartiles", ss, false)
}

// RenderTimeline draws per-processor activity as rows of task-kind
// glyphs (L lex, S split, I import, P parse/decl, G stmt-analysis/
// codegen, M merge; '.' idle), the reproduction of the WatchTool views.
func RenderTimeline(tl []sim.Interval, procs int, makespan float64, width int) string {
	if width <= 0 {
		width = 100
	}
	acts := make([]ctrace.Activity, len(tl))
	for i, iv := range tl {
		acts[i] = ctrace.Activity{Lane: iv.Proc, Start: iv.Start, End: iv.End, Glyph: iv.Kind.Glyph()}
	}
	var sb strings.Builder
	ctrace.WriteLanes(&sb, 'P', procs, makespan, width, acts)
	fmt.Fprintf(&sb, "    0%*s\n", width, fmt.Sprintf("%.0f units", makespan))
	return sb.String()
}

// timelineFor simulates one trace at p processors with the timeline on.
func (h *Harness) timelineFor(idx int, p int) (string, *sim.Result) {
	o := h.simOpts(p)
	o.CollectTimeline = true
	var r *sim.Result
	if idx < 0 {
		r = sim.New(h.synthTrace, o).Run()
	} else {
		r = sim.New(h.traces[idx], o).Run()
	}
	return RenderTimeline(r.Timeline, p, r.Makespan, 100), r
}

// Figure4 renders the WatchTool snapshot: one program per quartile plus
// the synthetic module, each compiled on MaxProcs simulated processors.
func (h *Harness) Figure4() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: WatchTool Snapshot (processor activity, P=%d)\n", h.Cfg.MaxProcs)
	for q := 0; q < 4; q++ {
		ids := h.quartiles[q]
		idx := ids[len(ids)/2]
		tlText, r := h.timelineFor(idx, h.Cfg.MaxProcs)
		fmt.Fprintf(&sb, "\n[%s — quartile %d, speedup %.2f]\n%s",
			h.Suite.Programs[idx].Name, q+1, h.speedups[idx][h.Cfg.MaxProcs-1], tlText)
		_ = r
	}
	tlText, _ := h.timelineFor(-1, h.Cfg.MaxProcs)
	fmt.Fprintf(&sb, "\n[Synth.mod — best case, speedup %.2f]\n%s",
		h.synthSpeedup[h.Cfg.MaxProcs-1], tlText)
	return sb.String()
}

// Figure7 renders the activity view of one large compilation with the
// task-kind legend of the paper's Figure 7.
func (h *Harness) Figure7() string {
	// Pick the largest program by sequential time.
	idx := 0
	for i := range h.seqUnits {
		if h.seqUnits[i] > h.seqUnits[idx] {
			idx = i
		}
	}
	tlText, r := h.timelineFor(idx, h.Cfg.MaxProcs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: Concurrent Compiler Processor Activity (%s, P=%d)\n",
		h.Suite.Programs[idx].Name, h.Cfg.MaxProcs)
	sb.WriteString(tlText)
	fmt.Fprintf(&sb, "legend: L lexical  S splitter  I importer  P parser/decl-analysis  G stmt-analysis/codegen  M merge  . idle\n")
	fmt.Fprintf(&sb, "makespan %.0f units, utilization %.0f%%, DKY blockages %d\n",
		r.Makespan, 100*r.Utilization(h.Cfg.MaxProcs), r.Blocks)
	return sb.String()
}

// RenderTable2 renders the aggregated lookup statistics.
func (h *Harness) RenderTable2(p int) string {
	return fmt.Sprintf("Table 2: Identifier Lookup Statistics (Skeptical handling, P=%d)\n%s",
		p, h.Table2(p))
}

// RenderStrategyAblation renders the §2.2 DKY-strategy comparison.
func (h *Harness) RenderStrategyAblation(p int) string {
	rel := h.StrategyAblation(p)
	var sb strings.Builder
	fmt.Fprintf(&sb, "DKY strategy ablation (suite total simulated time at P=%d, skeptical = 1.000)\n", p)
	for s := symtab.Avoidance; s < symtab.NumStrategies; s++ {
		fmt.Fprintf(&sb, "  %-12s %.3f\n", s, rel[s])
	}
	sb.WriteString("paper: the choice of DKY strategy caused about 10% variation (§2.2)\n")
	return sb.String()
}
