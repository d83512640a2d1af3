// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§4) from this reproduction's
// compiler, workload generator and Firefly-substitute simulator.
//
//	Table 1   — test-suite characteristics
//	Figure 1  — test-suite self-relative speedup, 1–8 processors
//	Figure 2  — best-case speedup (Synth.mod vs best human module vs linear)
//	Figure 3  — speedup by sequential-compile-time quartiles
//	Figure 4  — WatchTool-style processor activity, one program per quartile
//	Table 2   — identifier lookup statistics under Skeptical handling
//	Table 3   — the full speedup summary
//	Figure 7  — activity view of one large compilation with task kinds
//
// plus the claims quantified in the text: the ~4% single-processor
// overhead of the concurrent compiler (§4.2), the ~10% spread between
// DKY strategies (§2.2) and the ~3% cost of re-processing procedure
// headings (§2.4).
package bench

import (
	"fmt"
	"sort"

	"m2cc/internal/core"
	"m2cc/internal/ctrace"
	"m2cc/internal/seq"
	"m2cc/internal/sim"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
	"m2cc/internal/workload"
)

// Config parameterizes one harness run.
type Config struct {
	Seed     int64   // workload seed (default 1992)
	Scale    float64 // program body scale in (0,1]; 1 = paper-sized suite
	Beta     float64 // bus-contention coefficient (default sim.DefaultBeta)
	MaxProcs int     // processor sweep upper bound (default 8)
	Startup  float64 // fixed serial compilation cost in units (default 3500)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1992
	}
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	if c.Beta == 0 {
		c.Beta = sim.DefaultBeta
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 8
	}
	if c.Startup == 0 {
		c.Startup = 3500
	}
	return c
}

// Harness holds the prepared workload, traces and simulation results.
type Harness struct {
	Cfg   Config
	Suite *workload.Suite

	SynthInfo workload.ProgramInfo

	traces     []*ctrace.Trace // per suite program
	synthTrace *ctrace.Trace
	seqUnits   []float64 // sequential virtual time per program
	synthSeq   float64

	// speedups[i][p-1]: self-relative speedup of program i on p
	// processors; synthSpeedup likewise for Synth.mod.
	speedups     [][]float64
	synthSpeedup []float64

	quartiles [][]int // program indexes per quartile, by sequential time
	bestIdx   int     // the human-authored module with the best speedup ("VM")
}

// New generates the workload, collects one deterministic trace per
// program (Workers=1) and sweeps the simulated processor counts.
func New(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	h := &Harness{Cfg: cfg}
	h.Suite = workload.GenerateSuite(cfg.Seed, cfg.Scale)

	synthProcs := 128
	synthReps := int(28 * cfg.Scale)
	if synthReps < 2 {
		synthReps = 2
	}
	// Layer-0 interfaces: their streams parallelize lexing and parsing
	// without any cross-stream references, so no DKY can arise.
	var synthImports []string
	for i := 0; i < workload.LibPerLayer; i++ {
		synthImports = append(synthImports, fmt.Sprintf("Lib%d", i))
	}
	h.SynthInfo = workload.GenerateSynth(h.Suite.Loader, synthProcs, synthReps, synthImports)

	for _, p := range h.Suite.Programs {
		tr, err := collectTrace(p.Name, h.Suite.Loader)
		if err != nil {
			return nil, err
		}
		h.traces = append(h.traces, tr)
		h.seqUnits = append(h.seqUnits, seq.Compile(p.Name, h.Suite.Loader).Units)
	}
	tr, err := collectTrace("Synth", h.Suite.Loader)
	if err != nil {
		return nil, err
	}
	h.synthTrace = tr
	h.synthSeq = seq.Compile("Synth", h.Suite.Loader).Units

	h.sweep()
	h.split()
	return h, nil
}

func collectTrace(name string, loader source.Loader) (*ctrace.Trace, error) {
	res := core.Compile(name, loader, core.Options{Workers: 1, Trace: true})
	if res.Failed() {
		return nil, fmt.Errorf("%s failed to compile:\n%s", name, res.Diags)
	}
	return res.Trace, nil
}

// simOpts returns the paper-default simulation options.
func (h *Harness) simOpts(p int) sim.Options {
	return sim.Options{
		Processors: p, Strategy: symtab.Skeptical, Beta: h.Cfg.Beta,
		Startup: h.Cfg.Startup, LongBeforeShort: true, BoostResolver: true,
	}
}

// sweep computes self-relative speedups for every program and Synth.
func (h *Harness) sweep() {
	curve := func(tr *ctrace.Trace) []float64 {
		base := sim.New(tr, h.simOpts(1)).Run().Makespan
		out := make([]float64, h.Cfg.MaxProcs)
		for p := 1; p <= h.Cfg.MaxProcs; p++ {
			r := sim.New(tr, h.simOpts(p)).Run()
			out[p-1] = base / r.Makespan
		}
		return out
	}
	for _, tr := range h.traces {
		h.speedups = append(h.speedups, curve(tr))
	}
	h.synthSpeedup = curve(h.synthTrace)

	best, bestVal := 0, 0.0
	last := h.Cfg.MaxProcs - 1
	for i, sp := range h.speedups {
		if sp[last] > bestVal {
			bestVal = sp[last]
			best = i
		}
	}
	h.bestIdx = best
}

// split builds the sequential-compile-time quartiles (Figure 3 groups
// programs 10/9/9/9 as the paper groups 10/8/10/9 by absolute time).
func (h *Harness) split() {
	idx := make([]int, len(h.seqUnits))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h.seqUnits[idx[a]] < h.seqUnits[idx[b]] })
	sizes := []int{10, 9, 9, 9}
	pos := 0
	for _, n := range sizes {
		end := pos + n
		if end > len(idx) {
			end = len(idx)
		}
		h.quartiles = append(h.quartiles, append([]int(nil), idx[pos:end]...))
		pos = end
	}
}

// MeanSpeedup returns the suite mean at p processors.
func (h *Harness) MeanSpeedup(p int) float64 {
	var sum float64
	for _, sp := range h.speedups {
		sum += sp[p-1]
	}
	return sum / float64(len(h.speedups))
}

// minMax returns the suite extremes at p processors.
func (h *Harness) minMax(p int) (lo, hi float64) {
	lo, hi = 1e18, 0
	for _, sp := range h.speedups {
		v := sp[p-1]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// quartileMean returns the mean speedup of quartile q at p processors.
func (h *Harness) quartileMean(q, p int) float64 {
	var sum float64
	for _, i := range h.quartiles[q] {
		sum += h.speedups[i][p-1]
	}
	return sum / float64(len(h.quartiles[q]))
}

// OverheadResult is the §4.2 single-processor comparison in
// deterministic work units.
type OverheadResult struct {
	SeqUnits float64
	ConUnits float64
	UnitsPct float64 // (ConUnits-SeqUnits)/SeqUnits × 100 — the paper reports 4.3%
}

// Overhead compares the sequential compiler's work units with the
// concurrent compiler's traced work units over the whole suite.
func (h *Harness) Overhead() OverheadResult {
	var res OverheadResult
	for i := range h.Suite.Programs {
		res.SeqUnits += h.seqUnits[i]
		res.ConUnits += h.traces[i].TotalCost()
	}
	res.UnitsPct = 100 * (res.ConUnits - res.SeqUnits) / res.SeqUnits
	return res
}

// StrategyAblation returns the suite mean 8-processor makespan per DKY
// strategy, normalized to Skeptical (the §2.2 "about 10%" claim).
func (h *Harness) StrategyAblation(p int) map[symtab.Strategy]float64 {
	totals := make(map[symtab.Strategy]float64)
	for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
		for _, tr := range h.traces {
			o := h.simOpts(p)
			o.Strategy = strat
			totals[strat] += sim.New(tr, o).Run().Makespan
		}
	}
	base := totals[symtab.Skeptical]
	out := make(map[symtab.Strategy]float64)
	for k, v := range totals {
		out[k] = v / base
	}
	return out
}

// HeaderAblation recompiles the suite under §2.4 alternative 3 and
// returns total simulated time at p processors relative to alternative
// 1 (the paper measured about 3% slower).
func (h *Harness) HeaderAblation(p int) (float64, error) {
	var alt1, alt3 float64
	for i, prog := range h.Suite.Programs {
		alt1 += sim.New(h.traces[i], h.simOpts(p)).Run().Makespan
		res := core.Compile(prog.Name, h.Suite.Loader, core.Options{
			Workers: 1, Trace: true, Headers: core.HeaderReprocess,
		})
		if res.Failed() {
			return 0, fmt.Errorf("%s failed under header alternative 3:\n%s", prog.Name, res.Diags)
		}
		alt3 += sim.New(res.Trace, h.simOpts(p)).Run().Makespan
	}
	return alt3 / alt1, nil
}

// OrderingAblation returns suite total makespan without the
// long-before-short rule, relative to with it (§2.3.4).
func (h *Harness) OrderingAblation(p int) float64 {
	var with, without float64
	for _, tr := range h.traces {
		with += sim.New(tr, h.simOpts(p)).Run().Makespan
		o := h.simOpts(p)
		o.LongBeforeShort = false
		without += sim.New(tr, o).Run().Makespan
	}
	return without / with
}

// BoostAblation returns suite total makespan without the §2.3.4
// preference for running the DKY-resolving task first, relative to
// with it.
func (h *Harness) BoostAblation(p int) float64 {
	var with, without float64
	for _, tr := range h.traces {
		with += sim.New(tr, h.simOpts(p)).Run().Makespan
		o := h.simOpts(p)
		o.BoostResolver = false
		without += sim.New(tr, o).Run().Makespan
	}
	return without / with
}

// Table2 aggregates simulated Skeptical lookup statistics at p
// processors over the whole suite.
func (h *Harness) Table2(p int) *symtab.Stats {
	agg := symtab.NewStats()
	for _, tr := range h.traces {
		o := h.simOpts(p)
		o.CollectStats = true
		agg.Add(sim.New(tr, o).Run().Stats)
	}
	return agg
}
