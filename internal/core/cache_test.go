package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/ifacecache"
	"m2cc/internal/impscan"
	"m2cc/internal/seq"
	"m2cc/internal/sim"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
)

// TestCachedMatchesSequential is the cache's differential acceptance
// check: with one interface cache shared across every worker count and
// every DKY strategy — so all but the very first compilation install
// Stacks/Sorter from cache rather than compiling them — diagnostics
// and listings stay byte-identical to the uncached sequential baseline.
func TestCachedMatchesSequential(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	mods := []string{"Main", "Stacks", "Sorter"}
	wantListing, wantDiags := seqBaseline(t, loader, mods)

	cache := ifacecache.New()
	for _, workers := range []int{1, 2, 4, 8} {
		for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
			name := fmt.Sprintf("w%d/%s", workers, strat)
			t.Run(name, func(t *testing.T) {
				for _, m := range mods {
					res := core.Compile(m, loader, core.Options{
						Workers: workers, Strategy: strat, Cache: cache,
					})
					if got := res.Diags.String(); got != wantDiags[m] {
						t.Fatalf("%s: diagnostics differ\n got: %q\nwant: %q", m, got, wantDiags[m])
					}
					if got := res.Object.Listing(); got != wantListing[m] {
						t.Fatalf("%s: listings differ\ngot:\n%s\nwant:\n%s", m, got, wantListing[m])
					}
				}
			})
		}
	}
	if s := cache.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("cache never exercised: %+v", s)
	}
}

// TestSingleFlightAcrossCompilations races eight whole compilations of
// Main against one empty cache: each of the two cacheable interfaces
// (Stacks, Sorter) must be compiled exactly once — one leader each,
// everyone else a waiter-then-hit — and every compilation's output must
// match the baseline.  Run under -race.
func TestSingleFlightAcrossCompilations(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	wantListing, wantDiags := seqBaseline(t, loader, []string{"Main"})

	cache := ifacecache.New()
	const sessions = 8
	results := make([]*core.Result, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = core.Compile("Main", loader, core.Options{
				Workers: 4, Cache: cache,
			})
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if got := res.Diags.String(); got != wantDiags["Main"] {
			t.Fatalf("session %d: diagnostics differ: %q", i, got)
		}
		if got := res.Object.Listing(); got != wantListing["Main"] {
			t.Fatalf("session %d: listing differs", i)
		}
	}
	s := cache.Stats()
	if s.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (Stacks and Sorter led exactly once): %+v", s.Misses, s)
	}
	if s.Hits != sessions*2-2 {
		t.Fatalf("hits = %d, want %d: %+v", s.Hits, sessions*2-2, s)
	}
}

// TestWarmTraceSimulates checks the trace semantics of cache hits: a
// warm compilation records the cached interface scopes as pre-fired
// events and spawns no def streams for them, and the resulting trace
// still drives the simulator.
func TestWarmTraceSimulates(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	cache := ifacecache.New()

	cold := core.Compile("Main", loader, core.Options{Workers: 1, Trace: true, Cache: cache})
	if cold.Failed() {
		t.Fatalf("cold compile failed:\n%s", cold.Diags)
	}
	warm := core.Compile("Main", loader, core.Options{Workers: 1, Trace: true, Cache: cache})
	if warm.Failed() {
		t.Fatalf("warm compile failed:\n%s", warm.Diags)
	}
	if warm.Streams >= cold.Streams {
		t.Fatalf("warm run spawned %d streams, cold %d; cache hits must not spawn def streams",
			warm.Streams, cold.Streams)
	}
	if warm.Trace.TotalCost() >= cold.Trace.TotalCost() {
		t.Fatalf("warm trace cost %.1f not below cold %.1f",
			warm.Trace.TotalCost(), cold.Trace.TotalCost())
	}
	for _, procs := range []int{1, 8} {
		res := sim.New(warm.Trace, sim.Options{
			Processors: procs, Strategy: symtab.Skeptical, LongBeforeShort: true, BoostResolver: true,
		}).Run()
		if res.Makespan <= 0 {
			t.Fatalf("simulation on %d processors produced makespan %v", procs, res.Makespan)
		}
	}
}

// TestCacheWithStatsCountsCachedScopes: Table 2 statistics must still
// see lookups that land in cache-installed scopes (they count as
// complete-table lookups, since the scope pre-exists the compilation).
func TestCacheWithStatsCountsCachedScopes(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	cache := ifacecache.New()
	core.Compile("Main", loader, core.Options{Workers: 2, Cache: cache})

	res := core.Compile("Main", loader, core.Options{
		Workers: 2, Cache: cache, CollectStats: true,
	})
	if res.Failed() {
		t.Fatalf("warm compile failed:\n%s", res.Diags)
	}
	if res.Stats == nil || res.Stats.Lookups.Load() == 0 {
		t.Fatalf("warm-cache run collected no lookup statistics: %+v", res.Stats)
	}
}

// countingLoader counts Load calls per file.
type countingLoader struct {
	source.Loader
	mu    sync.Mutex // guards: loads
	loads map[string]int
}

func (l *countingLoader) Load(name string, kind source.FileKind) (string, error) {
	l.mu.Lock()
	l.loads[name+kind.Ext()]++
	l.mu.Unlock()
	return l.Loader.Load(name, kind)
}

// TestEachInterfaceHashedOncePerCompilation pins the one import scan:
// a compilation with both caches attached, whose imports have
// overlapping closures (every interface is in several roots' closures,
// and both caches key on them), loads each file once, prologue-scans
// each once — the area prescan, whose record the closure walks read —
// and content-hashes each .def exactly once, cold, warm and after an
// edit; and the record dies with the compilation, so a .def edited
// before the next one is seen.
func TestEachInterfaceHashedOncePerCompilation(t *testing.T) {
	files := map[string]string{
		"Base.def": "DEFINITION MODULE Base;\nCONST N = 4;\nEND Base.\n",
		"A.def":    "DEFINITION MODULE A;\nIMPORT Base;\nCONST A1 = Base.N + 1;\nEND A.\n",
		"B.def":    "DEFINITION MODULE B;\nIMPORT Base, A;\nCONST B1 = A.A1 + Base.N;\nEND B.\n",
		"C.def":    "DEFINITION MODULE C;\nIMPORT B;\nCONST C1 = B.B1 * 2;\nEND C.\n",
		"Main.mod": "MODULE Main;\nIMPORT A, B, C, Base;\nVAR x: INTEGER;\n" +
			"PROCEDURE P(): INTEGER;\nBEGIN\n  RETURN A.A1 + B.B1\nEND P;\n" +
			"BEGIN\n  x := P() + C.C1 + Base.N\nEND Main.\n",
	}
	base := testLoader(files)
	loader := &countingLoader{Loader: base, loads: map[string]int{}}
	cache, scache := ifacecache.New(), streamcache.New(0)
	opts := core.Options{Workers: 2, Cache: cache, StreamCache: scache}

	var mu sync.Mutex // guards: scans, hashes (the seams run on task goroutines)
	scans, hashes := map[string]int{}, map[string]int{}
	impscan.OnScan = func(name string, kind source.FileKind) {
		mu.Lock()
		scans[name+kind.Ext()]++
		mu.Unlock()
	}
	impscan.OnHash = func(name string) {
		mu.Lock()
		hashes[name+".def"]++
		mu.Unlock()
	}
	t.Cleanup(func() { impscan.OnScan, impscan.OnHash = nil, nil })

	compile := func(step string) *core.Result {
		t.Helper()
		clear(loader.loads)
		clear(scans)
		clear(hashes)
		res := core.Compile("Main", loader, opts)
		if res.Failed() || res.Faulted {
			t.Fatalf("%s: compile failed:\n%s", step, res.Diags)
		}
		for file := range files {
			if n := loader.loads[file]; n != 1 {
				t.Errorf("%s: %s loaded %d times in one compilation", step, file, n)
			}
			if n := scans[file]; n != 1 {
				t.Errorf("%s: %s prologue-scanned %d times in one compilation", step, file, n)
			}
			if n, def := hashes[file], strings.HasSuffix(file, ".def"); def && n != 1 || !def && n != 0 {
				t.Errorf("%s: %s content-hashed %d times in one compilation", step, file, n)
			}
		}
		return res
	}

	compile("cold")
	ifaceBefore := cache.Stats()
	res := compile("warm")
	if d := cache.Stats().Sub(ifaceBefore); d.Hits == 0 || d.Misses != 0 {
		t.Errorf("warm compile's interface traffic: %+v", d)
	}
	if ta := res.StreamCache; ta.Hits != ta.Probed {
		t.Errorf("warm compile's stream tally: %+v", *ta)
	}

	// Edit the interface at the bottom of every closure.
	const distinctDefs = 4
	base.Add("Base", source.Def, "DEFINITION MODULE Base;\nCONST N = 5;\nEND Base.\n")
	ifaceBefore = cache.Stats()
	res = compile("edited")
	if d := cache.Stats().Sub(ifaceBefore); d.Misses != distinctDefs {
		t.Errorf("compile after editing Base.def: interface traffic %+v, want %d misses", d, distinctDefs)
	}
	if ta := res.StreamCache; ta.Hits != 0 {
		t.Errorf("compile after editing Base.def: stream tally %+v, want no hits", *ta)
	}
	want := seq.Compile("Main", base)
	if res.Object.Listing() != want.Object.Listing() {
		t.Errorf("compile after the edit differs from the sequential compiler")
	}
}
