package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"m2cc"
)

// testScale keeps every corpus small enough for the whole file to run
// in a few seconds.
const testScale = 0.1

func testConfig(t *testing.T, seconds float64) (config, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		t.Fatal(err)
	}
	return config{root: root, seed: 7, seconds: seconds, scale: testScale, workers: 2}, spec
}

func TestCorpusIsDeterministicPerSeed(t *testing.T) {
	texts := func(seed int64) string {
		c, err := suiteCorpus(seed, testScale)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, p := range c.progs {
			sb.WriteString(p.Text)
			sb.WriteString(strings.Join(p.Defs, ","))
		}
		return sb.String()
	}
	if texts(7) != texts(7) {
		t.Error("the same seed gave two different corpora")
	}
	if texts(7) == texts(8) {
		t.Error("two seeds gave the same corpus")
	}
}

// lastPrograms narrows a suite to its n largest programs, which are
// generated last and have nested procedures.
func lastPrograms(c *corpus, n int) *corpus {
	return &corpus{loader: c.loader, lib: c.lib, known: c.known, progs: c.progs[len(c.progs)-n:]}
}

// nestedIn counts the procedures declared inside the named top-level
// procedure of text.
func nestedIn(text, proc string) int {
	start := strings.Index(text, "\nPROCEDURE "+proc+"(")
	end := strings.Index(text, "\nEND "+proc+";")
	return strings.Count(text[start+1:end], "PROCEDURE ") - 1
}

func TestEditsAreLinePreservingUniqueAndLocal(t *testing.T) {
	suite, err := suiteCorpus(7, testScale)
	if err != nil {
		t.Fatal(err)
	}
	w := &compileWL{name: wlEditWarm, cfg: config{seed: 7, workers: 2}, c: lastPrograms(suite, 3)}
	if err := w.seedCaches(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for pass := 0; pass < 6; pass++ {
		for _, p := range w.c.progs {
			text, proc := w.ed.edit(p)
			if strings.Count(text, "\n") != strings.Count(p.Text, "\n") {
				t.Fatalf("edit of %s.%s changed the line count", p.Name, proc)
			}
			if text == p.Text || seen[text] {
				t.Fatalf("edit of %s.%s repeats an earlier text", p.Name, proc)
			}
			seen[text] = true
			res := m2cc.Compile(p.Name, &overlay{base: w.c.loader, name: p.Name, text: text},
				m2cc.Options{Workers: 2, Cache: w.cache, StreamCache: w.scache})
			if res.Failed() {
				t.Fatalf("edited %s does not compile:\n%s", p.Name, res.Diags)
			}
			// The edited procedure, the procedures nested in it, and the
			// module body miss; every other stream is replayed.
			want := 2 + nestedIn(p.Text, proc)
			if got := res.StreamCache.Misses; got != want {
				t.Errorf("edit of %s.%s missed %d streams, want %d", p.Name, proc, got, want)
			}
			if res.StreamCache.Hits == 0 {
				t.Errorf("edit of %s.%s hit nothing", p.Name, proc)
			}
		}
	}
}

func TestPercentilesAndTenBeyond(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if s := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
	if p := percentile(sorted(xs), 90); math.Abs(p-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", p)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {2000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0}, // overlaps the first: covered time is 10..60
		{Name: "grandchild", Start: 35, End: 38, Parent: 2},
	}}
	self := tr.selfTimes()
	if self["parent"] != 50 || self["child"] != 30+30-3 || self["grandchild"] != 3 {
		t.Errorf("self times = %v", self)
	}
}

// TestOpenLoopCountsFromDueTime stalls one response for 200 ms on the
// generator's only connection.  The requests that fell due during the
// stall were sent late; timed from when they were due they show the
// stall, timed from when they were sent they would not.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const body = `{"module":"x","ok":true}`
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(200 * time.Millisecond)
		}
		fmt.Fprint(w, body)
	}))
	defer srv.Close()

	suite, err := suiteCorpus(7, testScale)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMix(7, lastPrograms(suite, 3))
	if err != nil {
		t.Fatal(err)
	}
	g := newLoadGen(strings.TrimPrefix(srv.URL, "http://"), m, 1)
	for _, first := range g.first {
		for i := range first {
			first[i] = []byte(body)
		}
	}
	ph := g.openLoop(100, 600*time.Millisecond, 1, nil)
	if len(ph.samples) != 60 {
		t.Fatalf("sent %d requests, want 60", len(ph.samples))
	}
	delayed, sentLate := 0, 0
	for _, s := range ph.samples {
		if !s.ok {
			t.Fatalf("request failed: %s", g.firstErr())
		}
		if s.latencyMS >= 100 {
			delayed++
			if s.lateMS >= 50 {
				sentLate++
			}
		}
	}
	// Requests due every 10 ms: about ten fall due in the first half of
	// the stall and so wait 100 ms or more.
	if delayed < 5 {
		t.Errorf("%d requests show the 200 ms stall in their latency, want at least 5", delayed)
	}
	if sentLate < 4 {
		t.Errorf("%d of the delayed requests were sent late, want at least 4", sentLate)
	}
}

func TestEveryWorkloadCompletes(t *testing.T) {
	cfg, spec := testConfig(t, 1)
	for _, name := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg.seconds = 1
			if traced {
				cfg.seconds = 0.3
			}
			res, err := runWorkload(spec, name, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed: %s", name, traced, res.Failed, res.Attempted, res.Failure)
			}
			for _, m := range spec.metrics(traced) {
				v := res.Metrics[m.Name]
				if v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v %q", name, traced, m.Name, v.Value, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, m.Name, v.Value)
				}
			}
		}
	}
}

func TestSynthOracleMatchesTheGenerator(t *testing.T) {
	c, err := synthCorpus(testScale)
	if err != nil {
		t.Fatal(err)
	}
	ref := m2cc.CompileSequential("Synth", c.loader)
	_, out, err := runProgram(ref.Object, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := synthExpected(synthProcCount(testScale), synthReps); out != want {
		t.Errorf("Synth printed %q, the arithmetic evaluated in Go gives %q", out, want)
	}
}

func TestCompareVerdictsAndHostCheck(t *testing.T) {
	lower := metricSpec{Name: "compile_ms", Unit: "ms", Better: "lower", Bound: 0.07}
	higher := metricSpec{Name: "src_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.07}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m          metricSpec
		base, cand []float64
		want       string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, verdictOK},
		{lower, steady, []float64{110, 111, 109, 110, 110}, verdictRegressed},
		{lower, steady, []float64{80, 81, 79, 80, 80}, verdictOK},
		{higher, steady, []float64{90, 91, 89, 90, 90}, verdictRegressed},
		{higher, steady, []float64{110, 111, 109, 110, 110}, verdictOK},
		{lower, []float64{80, 120, 100, 90, 110}, []float64{110, 111, 109, 110, 110}, verdictUnresolved},
	} {
		if got := judgeRow(c.m, "w", c.base, c.cand).verdict; got != c.want {
			t.Errorf("%s base %v cand %v: %s, want %s", c.m.Name, c.base, c.cand, got, c.want)
		}
	}
	a := host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "aaa", Kernel: "k", Seed: 1992, Seconds: 20, Scale: 1}
	b := a
	b.Commit = "bbb"
	if !a.comparable(b) {
		t.Error("results of two commits on one host must be comparable")
	}
	b.GOMAXPROCS = 1
	if a.comparable(b) {
		t.Error("results at different GOMAXPROCS must not be comparable")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMeetsTheDriverContract checks BENCHMARK.json against the
// rules the driver applies to it.
func TestSpecMeetsTheDriverContract(t *testing.T) {
	_, spec := testConfig(t, 1)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	names := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) || names[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		names[name] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, want := range []string{wlSuiteCold, wlSynthPar, wlEditWarm, wlServeMix} {
		if !names[want] {
			t.Errorf("workload %s is missing from BENCHMARK.json", want)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}
