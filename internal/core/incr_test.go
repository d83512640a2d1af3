package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/diag"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
)

// editStep is one edit-replay step: mutate the program, recompile warm,
// and check the output is byte-identical to a cold compile of the same
// text.
type editStep struct {
	name string
	// apply returns the program text for this step.
	apply func(map[string]string) map[string]string
}

func cloneProgram(p map[string]string) map[string]string {
	out := make(map[string]string, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// replaceOnce asserts the substitution actually happened, so a drifted
// fixture fails loudly instead of silently testing nothing.
func replaceOnce(t *testing.T, text, old, new string) string {
	t.Helper()
	if !strings.Contains(text, old) {
		t.Fatalf("fixture drift: %q not found", old)
	}
	return strings.Replace(text, old, new, 1)
}

// editReplaySteps is the canonical incremental scenario: no-op rebuild,
// a line-preserving one-procedure edit, a .def edit (invalidates the
// whole closure), and a revert.
func editReplaySteps(t *testing.T) []editStep {
	return []editStep{
		{"noop", func(p map[string]string) map[string]string { return p }},
		{"edit-proc", func(p map[string]string) map[string]string {
			q := cloneProgram(p)
			q["Stacks.mod"] = replaceOnce(t, q["Stacks.mod"],
				"  INC(pushes)\n", "  INC(pushes); INC(pushes)\n")
			return q
		}},
		{"edit-def", func(p map[string]string) map[string]string {
			q := cloneProgram(p)
			q["Stacks.def"] = replaceOnce(t, q["Stacks.def"],
				"CONST Cap = 16;", "CONST Cap = 8;")
			return q
		}},
		{"revert", func(p map[string]string) map[string]string { return p }},
	}
}

func compileAll(loader source.Loader, mods []string, opts core.Options) (map[string]string, map[string]string, map[string]*streamcache.Tally) {
	listings := make(map[string]string)
	diags := make(map[string]string)
	tallies := make(map[string]*streamcache.Tally)
	for _, m := range mods {
		res := core.Compile(m, loader, opts)
		listings[m] = res.Object.Listing()
		diags[m] = res.Diags.String()
		tallies[m] = res.StreamCache
	}
	return listings, diags, tallies
}

// TestIncrementalByteIdentical drives the edit-replay scenario across
// every DKY strategy, worker count and header mode: each warm rebuild
// must be byte-identical to a cold build of the same text.
func TestIncrementalByteIdentical(t *testing.T) {
	base := multiModuleProgram
	mods := []string{"Main", "Stacks", "Sorter"}
	steps := editReplaySteps(t)

	for _, workers := range []int{1, 4} {
		for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
			for _, hdr := range []core.HeaderMode{core.HeaderShared, core.HeaderReprocess} {
				name := fmt.Sprintf("w%d/%s/hdr%d", workers, strat, hdr)
				t.Run(name, func(t *testing.T) {
					cache := streamcache.New(0)
					warm := core.Options{Workers: workers, Strategy: strat, Headers: hdr, StreamCache: cache}
					cold := core.Options{Workers: workers, Strategy: strat, Headers: hdr}

					// Seed the cache with the base program.
					loader := testLoader(base)
					gotL, gotD, _ := compileAll(loader, mods, warm)
					wantL, wantD, _ := compileAll(loader, mods, cold)
					diffOutputs(t, "cold-seed", mods, gotL, gotD, wantL, wantD)

					prog := base
					for _, step := range steps {
						prog = step.apply(base)
						loader := testLoader(prog)
						gotL, gotD, tallies := compileAll(loader, mods, warm)
						wantL, wantD, _ := compileAll(loader, mods, cold)
						diffOutputs(t, step.name, mods, gotL, gotD, wantL, wantD)
						checkTallies(t, step.name, tallies)
					}
				})
			}
		}
	}
}

func diffOutputs(t *testing.T, step string, mods []string, gotL, gotD, wantL, wantD map[string]string) {
	t.Helper()
	for _, m := range mods {
		if gotD[m] != wantD[m] {
			t.Fatalf("%s/%s: diagnostics differ\n got: %q\nwant: %q", step, m, gotD[m], wantD[m])
		}
		if gotL[m] != wantL[m] {
			t.Fatalf("%s/%s: listings differ\ngot:\n%s\nwant:\n%s", step, m, gotL[m], wantL[m])
		}
	}
}

// checkTallies asserts the expected per-step cache traffic for the
// edit-replay scenario's fixture modules.
func checkTallies(t *testing.T, step string, tallies map[string]*streamcache.Tally) {
	t.Helper()
	type want struct{ probed, hits, installed, covered int }
	// Stacks.mod: New, Push, Pop, Depth + body = 5 probes.
	// Sorter.mod: Sort, Sort.QSort + body(absent) = 3 probes; a warm
	// Sort install covers QSort.
	expect := map[string]map[string]want{
		"noop": {
			"Stacks": {5, 5, 5, 0},
			"Sorter": {3, 2, 1, 1},
		},
		// A line-preserving edit inside Push misses Push and the body
		// (the body key covers the whole file); siblings stay warm.
		"edit-proc": {
			"Stacks": {5, 3, 3, 0},
			"Sorter": {3, 2, 1, 1},
		},
		// A .def edit changes the interface closure: every key misses.
		"edit-def": {
			"Stacks": {5, 0, 0, 0},
			"Sorter": {3, 2, 1, 1}, // Sorter does not import Stacks
		},
		// Reverting restores the original keys, recorded by the seed.
		"revert": {
			"Stacks": {5, 5, 5, 0},
			"Sorter": {3, 2, 1, 1},
		},
	}
	for mod, w := range expect[step] {
		ta := tallies[mod]
		if ta == nil {
			t.Fatalf("%s/%s: no stream-cache tally on result", step, mod)
		}
		if ta.Probed != w.probed || ta.Hits != w.hits || ta.Installed != w.installed || ta.Covered != w.covered {
			t.Fatalf("%s/%s: tally = %+v, want probed=%d hits=%d installed=%d covered=%d",
				step, mod, *ta, w.probed, w.hits, w.installed, w.covered)
		}
	}
}

// TestIncrementalWithCheck runs the same scenario under -check: cached
// streams replay their lint fact tables, and the merged findings must
// be byte-identical to a cold lint build.
func TestIncrementalWithCheck(t *testing.T) {
	base := cloneProgram(multiModuleProgram)
	// Give the fixture lint surface: an unused local in a procedure
	// stream and an unused import in the main module.
	base["Stacks.mod"] = replaceOnce(t, base["Stacks.mod"],
		"PROCEDURE Depth(s: Stack): INTEGER;\n",
		"PROCEDURE Depth(s: Stack): INTEGER;\nVAR unusedLocal: INTEGER;\n")
	mods := []string{"Main", "Stacks", "Sorter"}
	steps := editReplaySteps(t)

	cache := streamcache.New(0)
	warm := core.Options{Workers: 4, Check: true, StreamCache: cache}
	cold := core.Options{Workers: 4, Check: true}

	renderFindings := func(fs []diag.Diagnostic) string {
		var sb strings.Builder
		for _, f := range fs {
			fmt.Fprintf(&sb, "%s:%d:%d: %s\n", f.File, f.Pos.Line, f.Pos.Col, f.Msg)
		}
		return sb.String()
	}
	compare := func(step string, loader source.Loader) {
		t.Helper()
		for _, m := range mods {
			got := core.Compile(m, loader, warm)
			want := core.Compile(m, loader, cold)
			if g, w := renderFindings(got.Findings), renderFindings(want.Findings); g != w {
				t.Fatalf("%s/%s: findings differ\n got: %q\nwant: %q", step, m, g, w)
			}
			if g, w := got.Diags.String(), want.Diags.String(); g != w {
				t.Fatalf("%s/%s: diagnostics differ\n got: %q\nwant: %q", step, m, g, w)
			}
			// Replay is verbatim: a position, code or end span that
			// drifts fails here even when it renders the same.
			if !reflect.DeepEqual(got.Findings, want.Findings) {
				t.Fatalf("%s/%s: findings differ as values\n got: %+v\nwant: %+v", step, m, got.Findings, want.Findings)
			}
			if g, w := got.Diags.Sorted(), want.Diags.Sorted(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s/%s: diagnostics differ as values\n got: %+v\nwant: %+v", step, m, g, w)
			}
			if g, w := got.Object.Listing(), want.Object.Listing(); g != w {
				t.Fatalf("%s/%s: listings differ\ngot:\n%s\nwant:\n%s", step, m, g, w)
			}
		}
	}

	compare("cold-seed", testLoader(base))
	for _, step := range steps {
		compare(step.name, testLoader(step.apply(base)))
	}
	// The unused local lives in Depth's stream; a warm rebuild must have
	// replayed it from the cache (hits on Stacks), proving findings
	// survive without re-analysis.
	res := core.Compile("Stacks", testLoader(base), warm)
	if res.StreamCache == nil || res.StreamCache.Hits == 0 {
		t.Fatalf("expected warm hits on Stacks, tally = %+v", res.StreamCache)
	}
	found := false
	for _, f := range res.Findings {
		if strings.Contains(f.Msg, "unusedLocal") {
			found = true
		}
	}
	if !found {
		t.Fatalf("replayed findings missing unusedLocal warning: %v", res.Findings)
	}
}

// TestStreamCacheEviction: a cap-1 cache keeps working correctly while
// evicting, and reports evictions in its stats.
func TestStreamCacheEviction(t *testing.T) {
	cache := streamcache.New(1)
	loader := testLoader(multiModuleProgram)
	for _, m := range []string{"Main", "Stacks", "Sorter", "Stacks"} {
		res := core.Compile(m, loader, core.Options{Workers: 2, StreamCache: cache})
		if res.Failed() {
			t.Fatalf("compile %s failed:\n%s", m, res.Diags)
		}
	}
	st := cache.Stats()
	if st.Entries > 1 {
		t.Fatalf("cap-1 cache holds %d entries", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under cap-1")
	}
}
