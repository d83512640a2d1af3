package check

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"m2cc/internal/source"
	"m2cc/internal/workload"
)

// siblingProcs is a module of n procedure streams side by side, each
// reading and writing the module variable g through a local of its
// own, without the mutex the body holds when it writes g; the body
// calls every one.
func siblingProcs(n int) string {
	var b strings.Builder
	b.WriteString("MODULE M;\nVAR g: INTEGER; m: MUTEX;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "PROCEDURE P%d;\nVAR x: INTEGER;\nBEGIN x := g; g := x + %d END P%d;\n", i, i, i)
	}
	b.WriteString("BEGIN\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  P%d;\n", i)
	}
	b.WriteString("  LOCK m DO g := 0 END\nEND M.\n")
	return b.String()
}

// unusedLocals is siblingProcs with one more local in each procedure,
// declared and never used, so every procedure has a local its own
// stream does not mention.
func unusedLocals(n int) string {
	return strings.ReplaceAll(siblingProcs(n), "VAR x: INTEGER;", "VAR x, unused: INTEGER;")
}

// nestedProcs is a module of n procedure streams each declared inside
// the one before, each touching g as siblingProcs' do and calling the
// procedure it encloses.
func nestedProcs(n int) string {
	var b strings.Builder
	b.WriteString("MODULE M;\nVAR g: INTEGER; m: MUTEX;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "PROCEDURE P%d;\nVAR x: INTEGER;\n", i)
	}
	for i := n; i >= 1; i-- {
		call := ""
		if i < n {
			call = fmt.Sprintf("; P%d", i+1)
		}
		fmt.Fprintf(&b, "BEGIN x := g; g := x + %d%s END P%d;\n", i, call, i)
	}
	b.WriteString("BEGIN P1; LOCK m DO g := 0 END END M.\n")
	return b.String()
}

// moduleFacts analyzes every unit of module M in text, as the
// concurrent checker's analysis tasks would before the merge.
func moduleFacts(text string) []*Facts {
	loader := source.NewMapLoader()
	loader.Add("M", source.Impl, text)
	var fs []*Facts
	for _, u := range SourceUnits("M", loader) {
		fs = append(fs, analyzeUnit(u))
	}
	return fs
}

// mergeSample runs mergeFacts over fs reps times back to back and
// reports the bytes and wall time of one call.  The collector runs
// first and is off while the merges run, so no sample pays for
// another's garbage.
func mergeSample(fs []*Facts, reps int) (uint64, time.Duration) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for range reps {
		mergeFacts(fs)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(reps), el / time.Duration(reps)
}

// mergeReps returns how many merges over fs last at least 5 ms, so a
// sample of them moves little with the timer's resolution or one
// scheduling hiccup.
func mergeReps(fs []*Facts) int {
	for reps := 1; ; reps *= 2 {
		if _, el := mergeSample(fs, reps); el*time.Duration(reps) >= 5*time.Millisecond {
			return reps
		}
	}
}

// TestMergeLinear: the lint merge's bytes and time grow with the number
// of procedure streams, not with streams × accesses.  Each row's shape
// is compiled at n and 4n streams; from one to the other the merge may
// grow by about 5× at most (4× is linear).
func TestMergeLinear(t *testing.T) {
	const maxGrowth = 5.0
	for _, row := range []struct {
		name  string
		shape func(int) string
		n     int
	}{
		{"sibling", siblingProcs, 200},
		{"nested", nestedProcs, 40},
		{"unused", unusedLocals, 200},
	} {
		t.Run(row.name, func(t *testing.T) {
			small := moduleFacts(row.shape(row.n))
			large := moduleFacts(row.shape(4 * row.n))
			if want := 4*row.n + 1; len(large) != want {
				t.Fatalf("%d units at 4n, want %d", len(large), want)
			}
			// Every procedure's bare access to g is a finding, so the
			// lockset pass weighed each one.
			guard := 0
			for _, d := range mergeFacts(large) {
				if d.Code == CodeConcGuard {
					guard++
				}
			}
			if guard < 2*4*row.n {
				t.Fatalf("%d unguarded-access findings at 4n, want one for each of g's %d bare accesses", guard, 2*4*row.n)
			}
			// Seven rounds, each a sample at n and one at 4n, so a slow
			// phase of the host slows both; each figure is the median
			// over the rounds.
			rs, rl := mergeReps(small), mergeReps(large)
			var b1s, b4s []uint64
			var t1s, t4s []time.Duration
			var tgs []float64
			for range 7 {
				b1, t1 := mergeSample(small, rs)
				b4, t4 := mergeSample(large, rl)
				b1s, b4s, t1s, t4s = append(b1s, b1), append(b4s, b4), append(t1s, t1), append(t4s, t4)
				tgs = append(tgs, float64(t4)/float64(t1))
			}
			b1, b4, t1, t4, tg := median(b1s), median(b4s), median(t1s), median(t4s), median(tgs)
			bg := float64(b4) / float64(b1)
			t.Logf("n=%d: %d B %v; 4n=%d: %d B %v; growth %.1f× bytes, %.1f× time",
				row.n, b1, t1, 4*row.n, b4, t4, bg, tg)
			if bg > maxGrowth {
				t.Errorf("merge bytes grow %.1f× from n to 4n, want ≤ %.0f×", bg, maxGrowth)
			}
			if tg > maxGrowth {
				t.Errorf("merge time grows %.1f× from n to 4n, want ≤ %.0f×", tg, maxGrowth)
			}
		})
	}
}

func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// BenchmarkLintMerge: the LintMerge barrier alone — mergeFacts over the
// analyzed units of every suite program, one merge per program per op
// (B/op, allocs/op).
func BenchmarkLintMerge(b *testing.B) {
	suite := workload.GenerateSuite(1992, 1)
	var progs [][]*Facts
	for _, p := range suite.Programs {
		var fs []*Facts
		for _, u := range SourceUnits(p.Name, suite.Loader) {
			fs = append(fs, analyzeUnit(u))
		}
		progs = append(progs, fs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fs := range progs {
			mergeFacts(fs)
		}
	}
}
