package core

import (
	"testing"

	"m2cc/internal/ifacecache"
	"m2cc/internal/obs"
	"m2cc/internal/workload"
)

// BenchmarkObservedSuite: one clean build of the paper's suite at two
// workers, each program under its own Observer, as the benchmark's
// scheduler probe compiles it (B/op, allocs/op).  The Snapshot variant
// also renders each Observer's metrics.
func BenchmarkObservedSuite(b *testing.B) {
	suite := workload.GenerateSuite(1992, 1)
	pass := func(snapshot bool) {
		cache := ifacecache.New()
		for _, p := range suite.Programs {
			o := obs.New()
			res := Compile(p.Name, suite.Loader, Options{Workers: 2, Cache: cache, Obs: o})
			if res.Failed() {
				b.Fatalf("%s failed:\n%s", p.Name, res.Diags)
			}
			if snapshot {
				o.Snapshot()
			}
		}
	}
	for _, snapshot := range []bool{false, true} {
		name := "Compile"
		if snapshot {
			name = "Snapshot"
		}
		b.Run(name, func(b *testing.B) {
			pass(snapshot)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass(snapshot)
			}
		})
	}
}
