package check_test

import (
	"os"
	"path/filepath"
	"testing"

	"m2cc/internal/check"
	"m2cc/internal/core"
	"m2cc/internal/source"
)

// FuzzConcFindings differentially fuzzes the concurrency analyzer with
// arbitrary single-module source — hostile LOCK nesting, truncated
// monitors, RAISE mid-region, mutexes with no static identity.  Three
// invariants:
//
//  1. neither analyzer panics past its recover barrier, whatever the
//     parser makes of the input (the compilation may fail; it may not
//     crash the process);
//  2. the run terminates promptly — the merge's context fixed point
//     is budgeted (concCtxBudget), so even inputs engineered to blow
//     up the powerset-of-locksets lattice freeze instead of hanging;
//  3. on input that compiles cleanly, the concurrent checker's
//     findings are byte-identical to the sequential analyzer's.
//
// Seeds come from the LOCK fixtures in examples/modules plus
// hand-written pathologies; the checked-in corpus lives in
// testdata/fuzz/FuzzConcFindings.
func FuzzConcFindings(f *testing.F) {
	for _, name := range []string{"ConcClean.mod", "ConcFindings.mod"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "modules", name))
		if err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		f.Add(string(b))
	}
	f.Add(concProgram["Conc.mod"])
	f.Add("MODULE M;\nVAR m: MUTEX;\nBEGIN\n  LOCK m DO LOCK m DO LOCK m DO END END END\nEND M.\n")
	f.Add("MODULE M;\nVAR m: MUTEX;\nPROCEDURE P;\nBEGIN\n  LOCK m DO")                                                  // truncated monitor
	f.Add("MODULE M;\nVAR a: ARRAY [0..1] OF MUTEX; i: INTEGER;\nBEGIN\n  i := 0;\n  LOCK a[i] DO i := 1 END\nEND M.\n") // opaque mutex
	f.Add("MODULE M;\nEXCEPTION E;\nVAR m: MUTEX; g: INTEGER;\nBEGIN\n  TRY LOCK m DO g := 1; RAISE E END EXCEPT E: g := 2 END\nEND M.\n")
	f.Add("LOCK DO END")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		loader := source.NewMapLoader()
		loader.Add("F", source.Impl, src)

		seq := check.Analyze("F", loader)
		res := core.Compile("F", loader, core.Options{Workers: 4, Check: true})
		if res.Failed() {
			// Hostile input may not compile; the invariant is that
			// neither path crashed or hung getting here.
			return
		}
		if res.CheckFellBack {
			t.Fatalf("checker fell back without an injected fault on:\n%s", src)
		}
		want := check.Render(seq)
		if got := check.Render(res.Findings); got != want {
			t.Fatalf("concurrent findings diverge from sequential analyzer\ngot:\n%s\nwant:\n%s\nsource:\n%s", got, want, src)
		}
	})
}
