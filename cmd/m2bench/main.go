// Command m2bench regenerates the paper's evaluation (§4): every table
// and figure, plus the quantified claims from the text.
//
//	m2bench                 # everything, paper-sized workload
//	m2bench -scale 0.25     # quicker, shrunken bodies
//	m2bench -table2 -fig7   # selected experiments only
//
// The output is a pure function of the flags: every number comes from
// deterministic work units, so two runs print identical bytes.
//
// Hardware substitution: the paper measured wall-clock speedups on an
// 8-CPU DEC Firefly; here speedups come from a deterministic
// discrete-event simulation of the same Supervisor scheduling policy
// over schedule-independent compilation traces (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"m2cc/internal/bench"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1.0, "workload body scale in (0,1]")
		seed     = flag.Int64("seed", 1992, "workload seed")
		procs    = flag.Int("procs", 8, "simulated processor sweep upper bound")
		table1   = flag.Bool("table1", false, "Table 1: test suite description")
		table2   = flag.Bool("table2", false, "Table 2: identifier lookup statistics")
		table3   = flag.Bool("table3", false, "Table 3: speedup summary")
		fig1     = flag.Bool("fig1", false, "Figure 1: suite self-relative speedup")
		fig2     = flag.Bool("fig2", false, "Figure 2: best-case speedup")
		fig3     = flag.Bool("fig3", false, "Figure 3: speedup by quartiles")
		fig4     = flag.Bool("fig4", false, "Figure 4: WatchTool snapshot")
		fig7     = flag.Bool("fig7", false, "Figure 7: processor activity view")
		overhead = flag.Bool("overhead", false, "§4.2: 1-processor overhead vs sequential compiler")
		dky      = flag.Bool("dky", false, "§2.2: DKY strategy ablation")
		headersA = flag.Bool("headers", false, "§2.4: heading-sharing ablation")
		ordering = flag.Bool("longshort", false, "§2.3.4: long-before-short ordering ablation")
		boost    = flag.Bool("boost", false, "§2.3.4: DKY-resolver preference ablation")
	)
	flag.Parse()

	all := !(*table1 || *table2 || *table3 || *fig1 || *fig2 || *fig3 || *fig4 ||
		*fig7 || *overhead || *dky || *headersA || *ordering || *boost)

	h, err := bench.New(bench.Config{Seed: *seed, Scale: *scale, MaxProcs: *procs})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("workload generated and traced (seed %d, scale %g)\n\n", *seed, *scale)

	section := func(enabled bool, text func() string) {
		if all || enabled {
			fmt.Println(text())
		}
	}
	section(*table1, h.Table1)
	section(*fig1, h.Figure1)
	section(*fig2, h.Figure2)
	section(*fig3, h.Figure3)
	section(*fig4, h.Figure4)
	section(*table2, func() string { return h.RenderTable2(*procs) })
	section(*table3, h.Table3)
	section(*fig7, h.Figure7)
	section(*dky, func() string { return h.RenderStrategyAblation(*procs) })

	if all || *headersA {
		ratio, err := h.HeaderAblation(*procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("Heading-sharing ablation (§2.4): alternative 3 / alternative 1 = %.3f at P=%d\n", ratio, *procs)
		fmt.Printf("paper: alternative 3 was about 3%% slower due to redundant effort\n\n")
	}
	if all || *ordering {
		ratio := h.OrderingAblation(*procs)
		fmt.Printf("Task-ordering ablation (§2.3.4): without long-before-short / with = %.3f at P=%d\n", ratio, *procs)
		fmt.Printf("paper: long procedures are scheduled first to avoid a sequential tail\n\n")
	}
	if all || *boost {
		ratio := h.BoostAblation(*procs)
		fmt.Printf("DKY-resolver preference ablation (§2.3.4): without boost / with = %.3f at P=%d\n", ratio, *procs)
		fmt.Printf("paper: a blocked worker's slot preferentially runs the task that resolves the blockage\n\n")
	}
	if all || *overhead {
		ov := h.Overhead()
		fmt.Printf("Single-processor overhead (§4.2): sequential %.0f units, concurrent@1 %.0f units => %+.1f%%\n",
			ov.SeqUnits, ov.ConUnits, ov.UnitsPct)
		fmt.Printf("paper: concurrent was 4.3%% slower on one processor\n")
	}
}
