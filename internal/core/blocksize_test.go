package core_test

import (
	"fmt"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
	"m2cc/internal/workload"
)

// TestBlockSizeDifferential holds the output contract where the front
// end moves token blocks rather than tokens: at one token per block
// (every lookahead crosses a boundary) and at the default 256, under
// every DKY strategy, worker count and header mode, a cold compile is
// byte-identical to the sequential compiler, and a rebuild against a
// stream cache seeded at the *other* block size finds exactly what a
// rebuild at the seeding block size finds — the keys do not depend on
// how the traffic was cut into runs — and is byte-identical again.
func TestBlockSizeDifferential(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	mods := []string{"Main", "Stacks", "Sorter"}
	// One generated program with nested procedures and a few dozen
	// interfaces, so block boundaries fall inside real headings.
	gen := source.NewMapLoader()
	lib := workload.GenerateLibrary(7, gen)
	info := workload.GenerateProgram(workload.ProgramSpec{
		Name: "Gen", Seed: 7, Procs: 12, StmtReps: 1, TargetImports: 8, TargetDepth: 3,
		NestedEvery: 3, CallsForward: true,
	}, lib, gen)

	type target struct {
		loader source.Loader
		mods   []string
	}
	for _, tg := range []target{{loader, mods}, {gen, []string{info.Name}}} {
		wantL, wantD := seqBaseline(t, tg.loader, tg.mods)
		for _, m := range tg.mods {
			if wantD[m] != "" {
				t.Fatalf("fixture %s does not compile cleanly:\n%s", m, wantD[m])
			}
		}
		for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
			for _, workers := range []int{1, 2, 8} {
				for _, hdr := range []core.HeaderMode{core.HeaderShared, core.HeaderReprocess} {
					for _, bs := range []int{1, 256} {
						name := fmt.Sprintf("%s/%s/w%d/hdr%d/block%d", tg.mods[0], strat, workers, hdr, bs)
						t.Run(name, func(t *testing.T) {
							opts := core.Options{Workers: workers, Strategy: strat, Headers: hdr}
							core.SetBlockSize(t, bs)
							gotL, gotD, _ := compileAll(tg.loader, tg.mods, opts)
							diffOutputs(t, "cold", tg.mods, gotL, gotD, wantL, wantD)

							seed := opts
							seed.StreamCache = streamcache.New(0)
							core.SetBlockSize(t, 257-bs)
							compileAll(tg.loader, tg.mods, seed)
							_, _, same := compileAll(tg.loader, tg.mods, seed)
							opts.StreamCache = seed.StreamCache
							core.SetBlockSize(t, bs)
							gotL, gotD, other := compileAll(tg.loader, tg.mods, opts)
							diffOutputs(t, "warm", tg.mods, gotL, gotD, wantL, wantD)
							for m, ta := range other {
								if *ta != *same[m] || ta.Hits == 0 || ta.Recorded != 0 {
									t.Fatalf("%s: rebuild at block size %d of a cache seeded at %d: %+v, at the seeding size %+v",
										m, bs, 257-bs, *ta, *same[m])
								}
							}
						})
					}
				}
			}
		}
	}
}
