package core_test

import (
	"fmt"
	"testing"

	"m2cc"
	"m2cc/internal/pool"
	"m2cc/internal/workload"
)

// TestArenaReuseDifferential hunts for a reader that holds a statement
// tree, a token block or keyer records after they went back to their
// free list: such a reader would see zeroed or foreign values and print
// a different listing or finding, or miss the stream cache.  Twelve
// suite programs compile as one batch, with static analysis and a
// stream cache shared across batches, so buffers are recycled while
// sibling compilations still run, and again by the warm recompile that
// follows.  Every listing must equal the sequential compiler's and
// every findings list the sequential analyzer's, under each DKY
// strategy with one and two workers, and again with every release
// scribbling over what it returns.  Run under -race.
func TestArenaReuseDifferential(t *testing.T) {
	suite := workload.GenerateSuite(1992, 0.2)
	var mods []string
	for _, p := range suite.Programs[:12] {
		mods = append(mods, p.Name)
	}
	wantListing := make(map[string]string, len(mods))
	wantFindings := make(map[string]string, len(mods))
	for _, m := range mods {
		sres := m2cc.CompileSequential(m, suite.Loader)
		if sres.Failed() {
			t.Fatalf("%s does not compile sequentially:\n%s", m, sres.Diags)
		}
		wantListing[m] = sres.Object.Listing()
		wantFindings[m] = m2cc.RenderFindings(m2cc.Lint(m, suite.Loader))
	}

	for _, scribble := range []string{"", "/scribble"} {
		for _, workers := range []int{1, 2} {
			for strat := m2cc.Avoidance; strat <= m2cc.Optimistic; strat++ {
				t.Run(fmt.Sprintf("w%d/%s%s", workers, strat, scribble), func(t *testing.T) {
					pool.Scribble.Store(scribble != "")
					defer pool.Scribble.Store(false)
					opts := m2cc.Options{
						Workers: workers, Strategy: strat, Check: true,
						StreamCache: m2cc.NewStreamCache(0),
					}
					for _, pass := range []string{"cold", "warm"} {
						for i, res := range m2cc.CompileBatch(mods, suite.Loader, opts) {
							m := mods[i]
							if res.Faulted || res.CheckFellBack {
								t.Fatalf("%s %s: faulted=%v checkFellBack=%v\n%s", pass, m, res.Faulted, res.CheckFellBack, res.Diags)
							}
							if got := res.Object.Listing(); got != wantListing[m] {
								t.Fatalf("%s %s: listing differs from the sequential compiler's\ngot:\n%s\nwant:\n%s", pass, m, got, wantListing[m])
							}
							if got := m2cc.RenderFindings(res.Findings); got != wantFindings[m] {
								t.Fatalf("%s %s: findings differ from the sequential analyzer's\ngot:\n%s\nwant:\n%s", pass, m, got, wantFindings[m])
							}
							if ta := res.StreamCache; pass == "warm" && ta.Hits != ta.Probed {
								t.Fatalf("warm %s: %+v, want every stream key to hit", m, *ta)
							}
						}
					}
					if s := opts.StreamCache.Stats(); s.Hits == 0 {
						t.Fatalf("warm batch never hit the stream cache: %+v", s)
					}
				})
			}
		}
	}
}
