package m2cc_test

import (
	"testing"

	"m2cc"
	"m2cc/internal/faultinject"
	"m2cc/internal/workload"
)

// lintCacheProgram is one module the interface-cache differential
// lints, with the loader that holds its closure.
type lintCacheProgram struct {
	module string
	loader m2cc.Loader
}

func lintCachePrograms() []lintCacheProgram {
	suite := workload.GenerateSuite(1992, 1)
	return []lintCacheProgram{
		{"LintFindings", exampleLoader()},       // unused import and export across .def files
		{"Main", chaosLoader()},                 // interfaces with implementations
		{suite.Programs[30].Name, suite.Loader}, // a layered library closure
	}
}

// TestLintIfaceCacheDifferential: a lint compilation's findings,
// diagnostics and listing do not depend on what the interface cache
// holds — no cache, an empty one, one warmed by a lint compilation
// (every interface a hit, its facts pinned) and one warmed only by
// plain compilations (whose entries a lint compilation never sees) —
// under every DKY strategy, and they match the sequential analyzer.
func TestLintIfaceCacheDifferential(t *testing.T) {
	for _, p := range lintCachePrograms() {
		want := m2cc.RenderFindings(m2cc.Lint(p.module, p.loader))
		for strat := m2cc.Avoidance; strat <= m2cc.Optimistic; strat++ {
			t.Run(p.module+"/"+strat.String(), func(t *testing.T) {
				opts := m2cc.Options{Workers: 4, Strategy: strat, Check: true}
				base := m2cc.Compile(p.module, p.loader, opts)
				if base.Failed() || base.CheckFellBack {
					t.Fatalf("uncached lint compile: fellBack=%v\n%s", base.CheckFellBack, base.Diags)
				}
				if got := m2cc.RenderFindings(base.Findings); got != want {
					t.Fatalf("uncached findings diverge from sequential analyzer\ngot:\n%s\nwant:\n%s", got, want)
				}

				warmLint, warmPlain := m2cc.NewCache(), m2cc.NewCache()
				m2cc.Compile(p.module, p.loader, m2cc.Options{Workers: 4, Strategy: strat, Check: true, Cache: warmLint})
				m2cc.Compile(p.module, p.loader, m2cc.Options{Workers: 4, Strategy: strat, Cache: warmPlain})
				for _, state := range []struct {
					name  string
					cache *m2cc.Cache
					hits  bool // every interface installs from the cache
				}{
					{"cold", m2cc.NewCache(), false},
					{"warm-lint", warmLint, true},
					{"warm-plain", warmPlain, false},
				} {
					before := state.cache.Stats()
					o := opts
					o.Cache = state.cache
					res := m2cc.Compile(p.module, p.loader, o)
					traffic := state.cache.Stats().Sub(before)
					if res.Failed() || res.CheckFellBack {
						t.Fatalf("%s: fellBack=%v\n%s", state.name, res.CheckFellBack, res.Diags)
					}
					if got := m2cc.RenderFindings(res.Findings); got != want {
						t.Errorf("%s: findings diverge\ngot:\n%s\nwant:\n%s", state.name, got, want)
					}
					if got, want := res.Diags.String(), base.Diags.String(); got != want {
						t.Errorf("%s: diagnostics diverge\ngot:\n%s\nwant:\n%s", state.name, got, want)
					}
					if got, want := res.Object.Listing(), base.Object.Listing(); got != want {
						t.Errorf("%s: listing diverges", state.name)
					}
					if state.hits != (traffic.Hits > 0) || (state.hits && traffic.Misses > 0) {
						t.Errorf("%s: cache traffic %+v, want hits only: %v", state.name, traffic, state.hits)
					}
				}
			})
		}
	}
}

// TestLintIfaceCachePanicCheck: a lint stream that panics on a warm
// lint-mode cache sends the checker to its sequential re-analysis,
// which has ASTs only for the module's own units; the interfaces' facts
// pinned from the cache must carry it to byte-identical findings.
func TestLintIfaceCachePanicCheck(t *testing.T) {
	for _, p := range lintCachePrograms() {
		want := m2cc.RenderFindings(m2cc.Lint(p.module, p.loader))
		for strat := m2cc.Avoidance; strat <= m2cc.Optimistic; strat++ {
			t.Run(p.module+"/"+strat.String(), func(t *testing.T) {
				cache := m2cc.NewCache()
				opts := m2cc.Options{Workers: 4, Strategy: strat, Check: true, Cache: cache}
				m2cc.Compile(p.module, p.loader, opts)
				plan := faultinject.New().Arm(faultinject.PanicCheck, 1)
				opts.FaultPlan = plan
				before := cache.Stats()
				res := m2cc.Compile(p.module, p.loader, opts)
				if traffic := cache.Stats().Sub(before); traffic.Hits == 0 || traffic.Misses > 0 {
					t.Fatalf("cache traffic %+v, want every interface a hit", traffic)
				}
				if res.Failed() || res.Faulted {
					t.Fatalf("lint fault poisoned the compilation:\n%s", res.Diags)
				}
				if plan.Tripped(faultinject.PanicCheck) != 1 || !res.CheckFellBack {
					t.Fatalf("PanicCheck tripped %d times, CheckFellBack=%v; want 1, true",
						plan.Tripped(faultinject.PanicCheck), res.CheckFellBack)
				}
				if got := m2cc.RenderFindings(res.Findings); got != want {
					t.Errorf("re-analysis with pinned interface facts diverges\ngot:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}
