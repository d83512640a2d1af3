package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"m2cc"
)

// Workload names: the contract between BENCHMARK.json, the driver and
// every later change judged with this benchmark.
const (
	wlSuiteCold = "suite.cold"
	wlSynthPar  = "synth.par"
	wlEditWarm  = "edit.warm"
	wlServeMix  = "serve.mix"
)

// Shape of the derived corpora at scale 1.
const (
	warmupPasses = 3
	setupRepeats = 3 // set-up runs per process; setup_s is their median
	// passTailPercentile is the tail reported for pass-timed workloads: a
	// run of 100+ passes leaves ten beyond p90, not beyond p99.
	passTailPercentile = 90
	// checkEvery is the seeded sampling rate of the full output check on
	// workloads whose every operation compiles a different text.
	checkEvery = 20
	// maxRetained bounds the sampled results kept for checking after the
	// window, so that keeping them does not change the heap being timed.
	maxRetained = 12
)

// config is what one run of one workload needs to know.
type config struct {
	root    string // repository root (holds BENCHMARK.json)
	seed    int64
	seconds float64
	scale   float64
	workers int // GOMAXPROCS = Workers = NumCPU
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// totalAlloc is the exact number of heap bytes allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// passResult is one pass of a compile workload.
type passResult struct {
	ms      float64 // wall clock of the compilations alone
	allocMB float64 // heap allocated by the compilations alone
	results []*m2cc.Result
	texts   []string        // edit.warm: the edited text compiled for each program
	iface   m2cc.CacheStats // interface-cache traffic of this pass
}

// compileWL is one of the three library workloads: what a pass compiles
// and which caches it meets.
type compileWL struct {
	name string
	cfg  config
	c    *corpus

	freshCaches bool // suite.cold: a new Cache and StreamCache every pass
	// edit.warm: both caches seeded once with the unedited programs and
	// shared by every pass.
	cache  *m2cc.Cache
	scache *m2cc.StreamCache
	ed     *editor
}

// setupCompile generates the corpus, seeds whatever caches the workload
// keeps, and warms the process up.
func setupCompile(name string, cfg config) (*compileWL, error) {
	w := &compileWL{name: name, cfg: cfg}
	var err error
	switch name {
	case wlSuiteCold:
		w.c, err = suiteCorpus(cfg.seed, cfg.scale)
		w.freshCaches = true
	case wlSynthPar:
		w.c, err = synthCorpus(cfg.scale)
	case wlEditWarm:
		if w.c, err = suiteCorpus(cfg.seed, cfg.scale); err == nil {
			err = w.seedCaches()
		}
	default:
		return nil, fmt.Errorf("unknown compile workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupPasses; i++ {
		if n := failedResults(w.pass(cfg.workers, nil, nil, -1, 0).results); n > 0 {
			return nil, fmt.Errorf("%s: %d compilations failed during warm-up", name, n)
		}
	}
	return w, nil
}

// seedCaches turns w into an editor-loop workload: an interface cache
// and a stream cache shared by every pass, holding the unedited
// programs, and an editor that changes one procedure per compilation.
func (w *compileWL) seedCaches() error {
	// The stream cache is capped a quarter above what the unedited
	// programs need: every pass publishes new entries, and without a cap
	// the heap — and with it every timing — would depend on how long the
	// window is.
	streams := w.c.streams()
	w.cache, w.scache = m2cc.NewCache(), m2cc.NewStreamCache(streams+streams/4)
	w.ed = newEditor(w.cfg.seed)
	for _, p := range w.c.progs {
		if len(p.Edits) == 0 {
			return fmt.Errorf("%s has no editable procedure", p.Name)
		}
		res := m2cc.Compile(p.Name, w.c.loader, m2cc.Options{
			Workers: w.cfg.workers, Cache: w.cache, StreamCache: w.scache,
		})
		if res.Failed() {
			return fmt.Errorf("seeding %s failed:\n%s", p.Name, res.Diags)
		}
	}
	return nil
}

// pass runs the workload's operation once: every program of the corpus
// compiled one after another.  tune, when non-nil, adjusts each
// compilation's options (the traced run's probes use it); tr records
// one span per compilation under parent.
func (w *compileWL) pass(workers int, tune func(*m2cc.Options), tr *tracer, parent, id int) passResult {
	r := passResult{results: make([]*m2cc.Result, len(w.c.progs))}
	cache, scache := w.cache, w.scache
	if w.freshCaches {
		cache, scache = m2cc.NewCache(), m2cc.NewStreamCache(0)
	}
	if w.ed != nil {
		r.texts = make([]string, len(w.c.progs))
		for i, p := range w.c.progs {
			r.texts[i], _ = w.ed.edit(p)
		}
	}
	var iface0 m2cc.CacheStats
	if cache != nil {
		iface0 = cache.Stats()
	}
	a0 := totalAlloc()
	t0 := time.Now()
	for i, p := range w.c.progs {
		loader := m2cc.Loader(w.c.loader)
		if r.texts != nil {
			loader = &overlay{base: w.c.loader, name: p.Name, text: r.texts[i]}
		}
		opts := m2cc.Options{Workers: workers, Cache: cache, StreamCache: scache}
		if tune != nil {
			tune(&opts)
		}
		sp := tr.begin("core.Compile", parent, id)
		r.results[i] = m2cc.Compile(p.Name, loader, opts)
		tr.end(sp)
	}
	r.ms = msOf(time.Since(t0))
	r.allocMB = float64(totalAlloc()-a0) / 1e6
	if cache != nil {
		r.iface = cache.Stats().Sub(iface0)
	}
	return r
}

// coldPass compiles the corpus with the given caches attached fresh: the
// cache layers' cost and saving are differences between such passes.
func coldPass(c *corpus, workers int, iface, stream bool) (ms float64, results []*m2cc.Result) {
	var cache *m2cc.Cache
	var scache *m2cc.StreamCache
	if iface {
		cache = m2cc.NewCache()
	}
	if stream {
		scache = m2cc.NewStreamCache(0)
	}
	results = make([]*m2cc.Result, len(c.progs))
	t0 := time.Now()
	for i, p := range c.progs {
		results[i] = m2cc.Compile(p.Name, c.loader, m2cc.Options{Workers: workers, Cache: cache, StreamCache: scache})
	}
	return msOf(time.Since(t0)), results
}

// failedResults counts compilations that did not produce a clean object
// from the concurrent compiler itself: source errors, and also faulted
// attempts that were rescued by the sequential fallback.
func failedResults(results []*m2cc.Result) int {
	n := 0
	for _, res := range results {
		if res == nil || res.Failed() || res.Faulted || res.Canceled || res.Object == nil {
			n++
		}
	}
	return n
}

// tally counts operations and the ones that failed.
type tally struct {
	attempted, failed int
	firstFailure      string
}

func (t *tally) add(attempted, failed int, what string) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && t.firstFailure == "" {
		t.firstFailure = what
	}
}

// retained is one compilation kept for the full output check that runs
// after the timed window.
type retained struct {
	module string
	text   string // "" when the corpus text was compiled unedited
	obj    *m2cc.Object
}

// runCompile measures one compile workload untraced.
func runCompile(name string, cfg config) (*runResult, error) {
	var w *compileWL
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if w, err = setupCompile(name, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	refs, err := seqReferences(w.c)
	if err != nil {
		return nil, err
	}
	wantInstrs := 0
	for _, ref := range refs {
		wantInstrs += ref.Instrs
	}

	var tl tally
	var keep []retained
	sampler := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	var times []float64
	allocMB, instrs := 0.0, 0
	var last passResult
	runtime.GC()
	for start := time.Now(); len(times) == 0 || time.Since(start) < cfg.window(); {
		r := w.pass(cfg.workers, nil, nil, -1, len(times))
		times = append(times, r.ms)
		allocMB += r.allocMB
		tl.add(len(r.results), failedResults(r.results), "compilation failed")
		// Every pass: the instruction count must equal the sequential
		// compiler's.  The full listing comparison is too slow to run on
		// every pass inside the window; it runs on the kept results below.
		instrs = 0
		for _, res := range r.results {
			if res.Object != nil {
				instrs += instrCount(res.Object)
			}
		}
		tl.add(1, btoi(instrs != wantInstrs), fmt.Sprintf("pass emitted %d instructions, sequential compiler %d", instrs, wantInstrs))
		if r.texts != nil && sampler.Intn(checkEvery) == 0 && len(keep) < maxRetained {
			i := sampler.Intn(len(r.results))
			keep = append(keep, retained{module: w.c.progs[i].Name, text: r.texts[i], obj: r.results[i].Object})
		}
		last = r
	}
	// The last pass is always checked in full: on the cold workloads every
	// pass compiles the same text, so it stands for all of them.
	for i, res := range last.results {
		k := retained{module: w.c.progs[i].Name, obj: res.Object}
		if last.texts != nil {
			k.text = last.texts[i]
		}
		keep = append(keep, k)
	}
	for _, k := range keep {
		ok, what := checkRetained(k, w.c, refs)
		tl.add(1, btoi(!ok), what)
	}
	if err := checkAgainstGolden(cfg, w.c, refs, &tl); err != nil {
		return nil, err
	}

	res := newRunResult(name, false)
	extras := res.Extras
	if name == wlSynthPar {
		runMS, out, err := runProgram(last.results[0].Object, 3)
		if err != nil {
			return nil, err
		}
		want := synthExpected(synthProcCount(cfg.scale), synthReps)
		tl.add(1, btoi(out != want), fmt.Sprintf("Synth printed %q, arithmetic evaluated in Go gives %q", out, want))
		extras["run_ms"] = metricValue{runMS, "ms"}
	}
	asc := sorted(times)
	total := 0.0
	for _, t := range times {
		total += t
	}
	passes := float64(len(times))
	res.set("setup_s", median(setups))
	res.set("compile_ms", percentile(asc, 50))
	res.set("tail_ms", percentile(asc, passTailPercentile))
	res.set("src_mb_per_s", float64(w.c.bytes())*passes/1e6/(total/1000))
	res.set("alloc_mb", allocMB/passes)
	res.set("code_instrs", float64(instrs))
	extras["passes"] = metricValue{passes, "count"}
	extras["src_kb_per_pass"] = metricValue{float64(w.c.bytes()) / 1e3, "kB"}
	extras["tail_percentile_supported"] = metricValue{highestSupported(len(times)), "%"}
	extras["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	res.finish(tl)
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkRetained compares one kept object's listing with the sequential
// compiler's listing of the same text.
func checkRetained(k retained, c *corpus, refs map[string]reference) (bool, string) {
	if k.obj == nil {
		return false, k.module + ": no object"
	}
	want := refs[k.module]
	if k.text != "" {
		var err error
		if want, err = seqReference(k.module, &overlay{base: c.loader, name: k.module, text: k.text}); err != nil {
			return false, err.Error()
		}
	}
	if got := sha256Hex(k.obj.Listing()); got != want.Hash {
		return false, fmt.Sprintf("%s: concurrent listing %s differs from sequential %s", k.module, got[:12], want.Hash[:12])
	}
	return true, ""
}

// checkAgainstGolden compares the reference listings with the committed
// hashes; only the golden seed at full scale has any.
func checkAgainstGolden(cfg config, c *corpus, refs map[string]reference, tl *tally) error {
	if cfg.seed != goldenSeed || cfg.scale != 1 {
		return nil
	}
	corpusName := "suite"
	if c.lib == nil {
		corpusName = "synth"
	}
	g, err := readGolden(cfg.root, corpusName)
	if err != nil {
		return err
	}
	checked, bad, first := checkGolden(g, refs)
	tl.add(checked, bad, "listing of "+first+" differs from golden/"+corpusName+".json")
	return nil
}

// runProgram links the object and executes it reps times; it returns
// the median link+execute time and what the program printed.
func runProgram(obj *m2cc.Object, reps int) (medianMS float64, output string, err error) {
	var times []float64
	for i := 0; i < reps; i++ {
		var out bytes.Buffer
		t0 := time.Now()
		prog, err := m2cc.Link([]*m2cc.Object{obj}, obj.Module)
		if err != nil {
			return 0, "", fmt.Errorf("link %s: %w", obj.Module, err)
		}
		if err := m2cc.Execute(prog, bytes.NewReader(nil), &out); err != nil {
			return 0, "", fmt.Errorf("execute %s: %w", obj.Module, err)
		}
		times = append(times, msOf(time.Since(t0)))
		output = out.String()
	}
	return median(times), output, nil
}
