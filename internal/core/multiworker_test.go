package core_test

import (
	"fmt"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/obs"
	"m2cc/internal/symtab"
)

// TestMultiWorkerOutputMatchesOneWorker pins the scheduler's central
// invariant: compiler output is a pure function of the program, never
// of the dispatch order.  One worker is the baseline; two and eight
// workers under both header modes must produce byte-identical listings
// and diagnostics under every DKY strategy.  The observer's dispatch
// counter double-checks that the scheduler really dispatched the work.
func TestMultiWorkerOutputMatchesOneWorker(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	mods := []string{"Main", "Stacks", "Sorter"}

	for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
		base := make(map[string][2]string, len(mods))
		for _, m := range mods {
			res := core.Compile(m, loader, core.Options{Workers: 1, Strategy: strat})
			base[m] = [2]string{res.Object.Listing(), res.Diags.String()}
		}
		for _, workers := range []int{2, 8} {
			for _, hdr := range []core.HeaderMode{core.HeaderShared, core.HeaderReprocess} {
				name := fmt.Sprintf("%s/w%d/hdr%d", strat, workers, hdr)
				t.Run(name, func(t *testing.T) {
					o := obs.New()
					for _, m := range mods {
						res := core.Compile(m, loader, core.Options{
							Workers: workers, Strategy: strat, Headers: hdr, Obs: o,
						})
						if got := res.Object.Listing(); got != base[m][0] {
							t.Fatalf("%s: listing differs from 1-worker baseline\ngot:\n%s\nwant:\n%s",
								m, got, base[m][0])
						}
						if got := res.Diags.String(); got != base[m][1] {
							t.Fatalf("%s: diagnostics differ from 1-worker baseline\n got: %q\nwant: %q",
								m, got, base[m][1])
						}
					}
					c := o.Profile().Sched
					if c.Dispatches == 0 {
						t.Fatalf("no task was dispatched from the ready queue: %+v", c)
					}
				})
			}
		}
	}
}
