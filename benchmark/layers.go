package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"m2cc"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/impscan"
	"m2cc/internal/lexer"
	"m2cc/internal/parser"
	"m2cc/internal/sim"
	"m2cc/internal/source"
	"m2cc/internal/splitter"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
	"m2cc/internal/vm"
)

// The traced run measures each layer from outside: it calls the layer's
// public functions on the workload's own corpus, with a span around
// every call.  One cycle is one spanned pass of the workload, the same
// pass unspanned, the pass at one worker, and then every layer probe; the
// per-layer metrics are medians over the cycles that fit in the window.

// srcFile is one file the layer probes scan.
type srcFile struct {
	name string
	kind source.FileKind
	text string
}

func (f srcFile) label() string { return f.name + f.kind.Ext() }

// files lists what one cold pass reads: every implementation module and,
// once each, every interface in their closures.
func (c *corpus) files() ([]srcFile, error) {
	var out []srcFile
	for _, p := range c.progs {
		out = append(out, srcFile{p.Name, source.Impl, p.Text})
	}
	for _, name := range c.defNames() {
		text, err := c.loader.Load(name, source.Def)
		if err != nil {
			return nil, err
		}
		out = append(out, srcFile{name, source.Def, text})
	}
	return out, nil
}

// series collects one value per cycle under a metric's name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) median(name string) float64 { return median(s[name]) }

// probes holds what the layer probes of one workload share.
type probes struct {
	c       *corpus
	files   []srcFile
	workers int
	tr      *tracer
	s       series
	tl      *tally
}

// frontEnd times the layers every compilation starts with, file by
// file, and returns the scan and parse time of each file so that the
// sequential compiler's residual can be computed.
func (p *probes) frontEnd(parent, cycle int) (lexMS, parseMS map[string]float64) {
	lexMS, parseMS = map[string]float64{}, map[string]float64{}
	tokens := make([][]token.Token, len(p.files))
	total := 0
	var lexT, tokqT, splitT, impT, parseT time.Duration
	streams := 0

	for i, f := range p.files {
		file := source.NewSet().Add(f.name, f.kind, f.text)
		sp := p.tr.begin("lexer.ScanAll", parent, cycle)
		tokens[i] = lexer.ScanAll(file, &ctrace.TaskCtx{}, diag.NewBag(0))
		d := p.tr.end(sp)
		lexT += d
		lexMS[f.label()] = msOf(d)
		total += len(tokens[i])
	}
	for _, toks := range tokens {
		sp := p.tr.begin("tokq.Append+Next", parent, cycle)
		q := tokq.New(0)
		for _, t := range toks {
			q.Append(t)
		}
		q.Close()
		r := q.NewReader(nil)
		for r.Next().Kind != token.EOF {
		}
		tokqT += p.tr.end(sp)
	}
	splitTokens := 0
	for i, f := range p.files {
		if f.kind != source.Impl {
			continue
		}
		in := tokq.New(0)
		for _, t := range tokens[i] {
			in.Append(t)
		}
		in.Close()
		var procQueues []*tokq.Queue
		start := func(string, token.Pos, int32) (int32, *tokq.Queue) {
			q := tokq.New(0)
			procQueues = append(procQueues, q)
			return int32(len(procQueues)), q
		}
		sp := p.tr.begin("splitter.Run", parent, cycle)
		splitter.Run(&ctrace.TaskCtx{}, in.NewReader(nil), tokq.New(0), start, false)
		splitT += p.tr.end(sp)
		streams += 1 + len(procQueues)
		splitTokens += len(tokens[i])
	}
	for _, toks := range tokens {
		sp := p.tr.begin("impscan.Names", parent, cycle)
		impscan.Names(toks)
		impT += p.tr.end(sp)
	}
	for i, f := range p.files {
		bag := diag.NewBag(0)
		sp := p.tr.begin("parser.ParseUnit", parent, cycle)
		parser.New(parser.NewSliceSource(tokens[i]), f.label(), &ctrace.TaskCtx{}, bag).ParseUnit()
		d := p.tr.end(sp)
		parseT += d
		parseMS[f.label()] = msOf(d)
		p.tl.add(1, btoi(bag.HasErrors()), "parser reported errors in "+f.label())
	}

	mtokPerS := func(tokens int, d time.Duration) float64 { return float64(tokens) / 1e6 / d.Seconds() }
	p.s.add("lexer_tokens", float64(total))
	p.s.add("lexer_mtok_per_s", mtokPerS(total, lexT))
	p.s.add("tokq_mtok_per_s", mtokPerS(total, tokqT))
	p.s.add("split_mtok_per_s", mtokPerS(splitTokens, splitT))
	p.s.add("split_streams", float64(streams))
	p.s.add("impscan_ms", msOf(impT))
	p.s.add("parse_mtok_per_s", mtokPerS(total, parseT))
	return lexMS, parseMS
}

// sequential times the sequential compiler and the static analyzer,
// program by program, and derives what sema and codegen cost together:
// the sequential compile minus the scanning and parsing it contains.
func (p *probes) sequential(parent, cycle int, lexMS, parseMS map[string]float64) (seqMS float64) {
	front := 0.0
	var seqT, checkT time.Duration
	findings := 0
	for _, prog := range p.c.progs {
		sp := p.tr.begin("seq.Compile", parent, cycle)
		res := m2cc.CompileSequential(prog.Name, p.c.loader)
		seqT += p.tr.end(sp)
		p.tl.add(1, btoi(res.Failed()), "sequential compile of "+prog.Name+" failed")
		// With no cache the sequential compiler scans and parses the module
		// and every interface of its closure.
		front += lexMS[prog.Name+source.Impl.Ext()] + parseMS[prog.Name+source.Impl.Ext()]
		for _, d := range prog.Defs {
			front += lexMS[d+source.Def.Ext()] + parseMS[d+source.Def.Ext()]
		}
	}
	for _, prog := range p.c.progs {
		sp := p.tr.begin("check.Analyze", parent, cycle)
		findings += len(m2cc.Lint(prog.Name, p.c.loader))
		checkT += p.tr.end(sp)
	}
	p.s.add("seq_ms", msOf(seqT))
	p.s.add("semagen_ms", msOf(seqT)-front)
	p.s.add("check_ms", msOf(checkT))
	p.s.add("check_findings", float64(findings))
	return msOf(seqT)
}

// caches times cold passes with no cache, with a fresh interface cache
// and with a fresh stream cache: what each cache saves or costs a build
// that starts empty.
func (p *probes) caches(parent, cycle int, seqMS float64) {
	timed := func(name string, workers int, iface, stream bool) float64 {
		sp := p.tr.begin(name, parent, cycle)
		ms, results := coldPass(p.c, workers, iface, stream)
		p.tr.end(sp)
		p.tl.add(len(results), failedResults(results), name+": compilation failed")
		return ms
	}
	none := timed("core.Compile/no-cache", p.workers, false, false)
	iface := timed("core.Compile/iface-cache", p.workers, true, false)
	stream := timed("core.Compile/stream-cache", p.workers, false, true)
	one := timed("core.Compile/one-worker", 1, false, false)
	p.s.add("iface_saving_ms", none-iface)
	p.s.add("stream_install_ms", stream-none)
	p.s.add("conc_overhead_x", one/seqMS)
}

// machine links and runs the corpus's program when it is runnable (only
// the synthetic module is; suite programs call interfaces that have no
// implementation).  steps is the program's dynamic instruction count.
func (p *probes) machine(parent, cycle int, obj *m2cc.Object, steps int64, want string) {
	if obj == nil {
		p.s.add("vm_link_ms", 0)
		p.s.add("vm_run_ms", 0)
		p.s.add("vm_minstr_per_s", 0)
		return
	}
	sp := p.tr.begin("vm.Link", parent, cycle)
	prog, err := m2cc.Link([]*m2cc.Object{obj}, obj.Module)
	link := p.tr.end(sp)
	if err != nil {
		p.tl.add(1, 1, "link: "+err.Error())
		return
	}
	var out bytes.Buffer
	sp = p.tr.begin("vm.Execute", parent, cycle)
	err = m2cc.Execute(prog, bytes.NewReader(nil), &out)
	run := p.tr.end(sp)
	p.tl.add(1, btoi(err != nil || out.String() != want), fmt.Sprintf("program printed %q, want %q (err %v)", out.String(), want, err))
	p.s.add("vm_link_ms", msOf(link))
	p.s.add("vm_run_ms", msOf(run))
	p.s.add("vm_minstr_per_s", float64(steps)/1e6/run.Seconds())
}

// dynamicSteps returns the number of instructions the program executes.
// The machine does not publish its step counter, but it enforces a step
// budget, so the smallest budget the run fits in is the count.
func dynamicSteps(obj *m2cc.Object) (int64, error) {
	prog, err := m2cc.Link([]*m2cc.Object{obj}, obj.Module)
	if err != nil {
		return 0, err
	}
	fits := func(budget int64) bool {
		m := vm.NewMachine(prog, nil, &bytes.Buffer{})
		m.MaxSteps = budget
		return m.Run() == nil
	}
	const limit = int64(1) << 31
	if !fits(limit) {
		return 0, fmt.Errorf("%s does not finish within %d steps", obj.Module, limit)
	}
	n := int64(sort.Search(int(limit), func(b int) bool { return fits(int64(b)) }))
	return n, nil
}

// simulated replays one-worker traces of the workload's pass on the
// repository's simulator at one and at `workers` processors: the
// prediction that the measured speedup is reported beside.
func simulated(w *compileWL, workers int) (float64, error) {
	r := w.pass(1, func(o *m2cc.Options) { o.Trace = true }, nil, -1, 0)
	opts := func(p int) m2cc.SimOptions {
		return m2cc.SimOptions{
			Processors: p, Strategy: m2cc.Skeptical, Beta: sim.DefaultBeta,
			Startup: 3500, LongBeforeShort: true, BoostResolver: true,
		}
	}
	one, many := 0.0, 0.0
	for _, res := range r.results {
		if res.Trace == nil {
			return 0, fmt.Errorf("compilation returned no trace")
		}
		one += m2cc.Simulate(res.Trace, opts(1)).Makespan
		many += m2cc.Simulate(res.Trace, opts(workers)).Makespan
	}
	return one / many, nil
}

// layerMetrics are the metrics the in-process probes produce, in the
// order they are measured.
var layerMetrics = []string{
	"lexer_tokens", "lexer_mtok_per_s", "tokq_mtok_per_s", "split_mtok_per_s", "split_streams",
	"impscan_ms", "parse_mtok_per_s", "seq_ms", "semagen_ms", "check_ms", "check_findings",
	"iface_saving_ms", "stream_install_ms", "conc_overhead_x",
	"vm_link_ms", "vm_run_ms", "vm_minstr_per_s",
	"symtab_lookups", "dky_blocks", "dky_block_share",
	"sched_tasks", "sched_queue_ms", "sched_blocked_ms", "sched_occupancy",
	"iface_hits", "iface_misses", "iface_waits", "iface_hit_share",
	"stream_hits", "stream_misses", "stream_installs", "stream_hit_share",
}

// traceLayers runs probe cycles over w for the window and sets every
// in-process per-layer metric on res.
func traceLayers(w *compileWL, cfg config, window time.Duration, tr *tracer, tl *tally, res *runResult) error {
	files, err := w.c.files()
	if err != nil {
		return err
	}
	p := &probes{c: w.c, files: files, workers: cfg.workers, tr: tr, s: series{}, tl: tl}

	var runnable *m2cc.Object
	var steps int64
	var want string
	if w.name == wlSynthPar {
		runnable = w.pass(cfg.workers, nil, nil, -1, 0).results[0].Object
		if steps, err = dynamicSteps(runnable); err != nil {
			return err
		}
		want = synthExpected(synthProcCount(cfg.scale), synthReps)
	}
	simSpeedup, err := simulated(w, cfg.workers)
	if err != nil {
		return err
	}

	cycles := 0
	for start := time.Now(); cycles == 0 || time.Since(start) < window; cycles++ {
		// The spanned and the unspanned pass take turns going first, so
		// that whatever the preceding probes left behind (garbage, cold
		// caches) does not count as tracing overhead.
		spanned := func() {
			root := tr.begin("pass", -1, cycles)
			traced := w.pass(cfg.workers, nil, tr, root, cycles)
			tr.end(root)
			tl.add(len(traced.results), failedResults(traced.results), "traced pass: compilation failed")
			p.s.add("traced_ms", traced.ms)
		}
		plain := func() { p.s.add("untraced_ms", w.pass(cfg.workers, nil, nil, -1, cycles).ms) }
		if cycles%2 == 0 {
			spanned()
			plain()
		} else {
			plain()
			spanned()
		}
		p.s.add("one_worker_ms", w.pass(1, nil, nil, -1, cycles).ms)
		p.passCounters(w, cycles)

		root := tr.begin("probes", -1, cycles)
		lexMS, parseMS := p.frontEnd(root, cycles)
		seqMS := p.sequential(root, cycles, lexMS, parseMS)
		p.caches(root, cycles, seqMS)
		p.machine(root, cycles, runnable, steps, want)
		tr.end(root)
	}

	for _, m := range layerMetrics {
		res.set(m, p.s.median(m))
	}
	par := p.s.median("one_worker_ms") / p.s.median("untraced_ms")
	res.set("par_speedup_x", par)
	res.set("sim_speedup_x", simSpeedup)
	res.set("sim_error_pct", 100*(simSpeedup-par)/par)
	res.Extras["cycles"] = metricValue{float64(cycles), "count"}
	res.Extras["pass_ms"] = metricValue{p.s.median("untraced_ms"), "ms"}
	res.Extras["pass_traced_ms"] = metricValue{p.s.median("traced_ms"), "ms"}
	return nil
}

// finishTrace reports what the spans themselves say and writes them out.
func finishTrace(cfg config, tr *tracer, res *runResult) error {
	self := tr.selfTimes()
	res.Extras["spans"] = metricValue{float64(len(tr.spans)), "count"}
	res.Extras["pass_self_ms"] = metricValue{msOf(self["pass"]), "ms"}
	res.Extras["probes_self_ms"] = metricValue{msOf(self["probes"]), "ms"}
	return tr.writeChrome(spansPath(cfg, res.Workload))
}

// traceCompile is the traced run of a compile workload.
func traceCompile(name string, cfg config) (*runResult, error) {
	w, err := setupCompile(name, cfg)
	if err != nil {
		return nil, err
	}
	var tl tally
	tr := newTracer(name)
	res := newRunResult(name, true)
	if err := traceLayers(w, cfg, cfg.window(), tr, &tl, res); err != nil {
		return nil, err
	}
	res.set("trace_overhead_pct", 100*(res.Extras["pass_traced_ms"].Value/res.Extras["pass_ms"].Value-1))
	checkPredictions(name, res, &tl)
	for _, m := range serveLayerMetrics {
		res.set(m, 0) // no daemon on this workload's path
	}
	if err := finishTrace(cfg, tr, res); err != nil {
		return nil, err
	}
	res.finish(tl)
	return res, nil
}

// checkPredictions holds each workload to what it was chosen for: the
// layers it is said to bypass must show no traffic, and the layers it is
// said to exercise must show some.  A workload that stops doing so no
// longer measures what its name promises.
func checkPredictions(name string, res *runResult, tl *tally) {
	v := res.values
	expect := func(ok bool, what string) { tl.add(1, btoi(!ok), name+": "+what) }
	switch name {
	case wlSynthPar:
		expect(v["dky_blocks"] == 0, "synthetic module took DKY blocks")
		expect(v["iface_hits"]+v["iface_misses"]+v["iface_waits"] == 0, "synthetic module touched the interface cache")
		expect(v["stream_hits"]+v["stream_misses"]+v["stream_installs"] == 0, "synthetic module touched the stream cache")
	case wlEditWarm:
		expect(v["stream_hit_share"] >= 0.9, fmt.Sprintf("stream_hit_share %.3f is below 0.9", v["stream_hit_share"]))
	case wlSuiteCold:
		expect(v["stream_hit_share"] == 0, "a clean build hit the stream cache")
		expect(v["iface_hit_share"] > 0, "a clean build of 37 programs never hit the interface cache")
	}
}

// spansPath is where the traced run of a workload leaves its spans.
func spansPath(cfg config, workload string) string {
	return filepath.Join(cfg.root, buildDir, "spans-"+workload+".json")
}

// passCounters runs the workload's pass twice more with the counters
// the compiler offers switched on — lookup statistics, then the
// observer — and records what the symbol table, the scheduler and the
// two caches did during one pass.
func (p *probes) passCounters(w *compileWL, cycle int) {
	stats := w.pass(p.workers, func(o *m2cc.Options) { o.CollectStats = true }, nil, -1, cycle)
	var lookups, blocks int64
	var iface m2cc.CacheStats
	var st m2cc.StreamTally
	for _, res := range stats.results {
		if res.Stats != nil {
			lookups += res.Stats.Lookups.Load()
			blocks += res.Stats.Blocks.Load()
		}
		if t := res.StreamCache; t != nil {
			st.Probed += t.Probed
			st.Hits += t.Hits
			st.Misses += t.Misses
			st.Recorded += t.Recorded
		}
	}
	iface = stats.iface
	p.s.add("symtab_lookups", float64(lookups))
	p.s.add("dky_blocks", float64(blocks))
	p.s.add("dky_block_share", share(float64(blocks), float64(lookups)))
	p.s.add("iface_hits", float64(iface.Hits))
	p.s.add("iface_misses", float64(iface.Misses))
	p.s.add("iface_waits", float64(iface.Waits))
	p.s.add("iface_hit_share", share(float64(iface.Hits), float64(iface.Hits+iface.Misses+iface.Waits)))
	p.s.add("stream_hits", float64(st.Hits))
	p.s.add("stream_misses", float64(st.Misses))
	p.s.add("stream_installs", float64(st.Recorded))
	p.s.add("stream_hit_share", share(float64(st.Hits), float64(st.Probed)))

	var observers []*m2cc.Observer
	w.pass(p.workers, func(o *m2cc.Options) {
		o.Obs = m2cc.NewObserver()
		observers = append(observers, o.Obs)
	}, nil, -1, cycle)
	tasks := 0
	var queue, blocked time.Duration
	busy, wall := 0.0, 0.0
	for _, o := range observers {
		prof := m2cc.BuildProfile(o)
		tasks += prof.Tasks
		queue += prof.TotalQueue
		blocked += prof.TotalBlocked
		snap := o.Snapshot()
		busy += snap.SlotOccupancyMean * snap.WallMs
		wall += snap.WallMs
	}
	p.s.add("sched_tasks", float64(tasks))
	p.s.add("sched_queue_ms", msOf(queue))
	p.s.add("sched_blocked_ms", msOf(blocked))
	p.s.add("sched_occupancy", share(busy, wall))
}

// share is part/whole, 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
