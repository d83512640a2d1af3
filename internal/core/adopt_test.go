package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"m2cc/internal/ifacecache"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
	"m2cc/internal/vm"
	"m2cc/internal/workload"
)

// TestObjectIndicesScheduleIndependent: procedure and area indices are
// fixed by the source, so every suite program compiled at 1, 2 and 8
// workers has the same procedures in the same Object.Procs order, the
// same areas in the same order, and identical code, operands included.
func TestObjectIndicesScheduleIndependent(t *testing.T) {
	suite := workload.GenerateSuite(1992, 0.1)
	for _, p := range suite.Programs {
		var base *vm.Object
		for _, workers := range []int{1, 2, 8} {
			res := Compile(p.Name, suite.Loader, Options{Workers: workers})
			if res.Failed() {
				t.Fatalf("%s at %d workers failed:\n%s", p.Name, workers, res.Diags)
			}
			if base == nil {
				base = res.Object
				continue
			}
			obj := res.Object
			if len(obj.Procs) != len(base.Procs) || len(obj.Areas) != len(base.Areas) {
				t.Fatalf("%s at %d workers: %d procs, %d areas; at 1 worker %d, %d",
					p.Name, workers, len(obj.Procs), len(obj.Areas), len(base.Procs), len(base.Areas))
			}
			for i, a := range obj.Areas {
				if a.Name != base.Areas[i].Name {
					t.Fatalf("%s at %d workers: area %d is %s, at 1 worker %s", p.Name, workers, i, a.Name, base.Areas[i].Name)
				}
			}
			for i, pm := range obj.Procs {
				want := base.Procs[i]
				if pm.Idx != int32(i) || pm.FullName() != want.FullName() {
					t.Fatalf("%s at %d workers: procedure %d is %s (Idx %d), at 1 worker %s",
						p.Name, workers, i, pm.FullName(), pm.Idx, want.FullName())
				}
				if !slices.Equal(pm.Code, want.Code) {
					t.Fatalf("%s at %d workers: %s's code differs from 1 worker's", p.Name, workers, pm.FullName())
				}
			}
		}
	}
}

// watchAdoptions counts, until the test ends, the cached segments the
// compilations adopt and those adopted by copy rather than by identity.
func watchAdoptions(t *testing.T) (adoptions, copies *int) {
	adoptions, copies = new(int), new(int)
	adopted = func(cached, installed []vm.Instr) {
		*adoptions++
		if len(cached) > 0 && &cached[0] != &installed[0] {
			*copies++
		}
	}
	t.Cleanup(func() { adopted = nil })
	return adoptions, copies
}

// TestWarmRebuildAdoptsWithoutCopy: a warm rebuild of unchanged suite
// text at two workers adopts every cached segment as stored — the
// installed code is the cached slice itself — under every DKY strategy
// and both header modes.
func TestWarmRebuildAdoptsWithoutCopy(t *testing.T) {
	suite := workload.GenerateSuite(1992, 0.1)
	for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
		for _, hdr := range []HeaderMode{HeaderShared, HeaderReprocess} {
			t.Run(fmt.Sprintf("%s/hdr%d", strat, hdr), func(t *testing.T) {
				opts := Options{Workers: 2, Strategy: strat, Headers: hdr,
					Cache: ifacecache.New(), StreamCache: streamcache.New(0)}
				for _, p := range suite.Programs {
					Compile(p.Name, suite.Loader, opts)
				}
				adoptions, copies := watchAdoptions(t)
				for _, p := range suite.Programs {
					if res := Compile(p.Name, suite.Loader, opts); res.Failed() {
						t.Fatalf("%s failed:\n%s", p.Name, res.Diags)
					}
				}
				if *adoptions == 0 || *copies != 0 {
					t.Fatalf("warm rebuild adopted %d segments, %d of them by copy; want some, none by copy", *adoptions, *copies)
				}
			})
		}
	}
}

// TestWarmHitAllocs: a warm recompile of an unchanged suite program,
// every stream a hit and every interface a cache install, allocates no
// more than a fixed number of bytes per stream — what the module's own
// declarations and the streams' tasks take, and nothing per key, probe
// or adopted segment.  The bound is set from a measurement: Prog30 (109
// streams) takes 4.4 kB a stream at two workers (linux/amd64, go1.24).
func TestWarmHitAllocs(t *testing.T) {
	const perStream = 5 << 10
	p, loader := warmProgram()
	opts := Options{Workers: 2, Cache: ifacecache.New(), StreamCache: streamcache.New(0)}
	var res *Result
	compile := func() { res = Compile(p, loader, opts) }
	for range 3 { // until the free lists hold what a compilation draws
		compile()
	}
	bytes := allocated(compile)
	if ta := res.StreamCache; ta.Misses != 0 || ta.Hits == 0 {
		t.Fatalf("warm recompile of %s: %+v, want every probe a hit", p, *ta)
	}
	t.Logf("%s: %d B over %d streams, %d B a stream", p, bytes, res.Streams, bytes/uint64(res.Streams))
	if bytes > perStream*uint64(res.Streams) {
		t.Fatalf("a warm recompile of %s allocates %d B, over %d B a stream for %d streams",
			p, bytes, perStream, res.Streams)
	}
}

// warmProgram is the suite program the warm-path test and benchmark
// recompile.
func warmProgram() (string, *source.MapLoader) {
	suite := workload.GenerateSuite(1992, 1)
	return suite.Programs[30].Name, suite.Loader
}

// allocated reports the bytes f allocates, the median of seven runs
// (a run now and then draws a spare item from a free list or meets a
// collection).
func allocated(f func()) uint64 {
	var runs [7]uint64
	for i := range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		runs[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(runs[:])
	return runs[len(runs)/2]
}

// BenchmarkWarmProbe: a warm recompile of one fixed generated program
// with both caches attached and every stream a hit, so what it measures
// beside the module's own declarations is the cache path — keys, the
// probe, interface installs and adopted segments (B/op, allocs/op).
func BenchmarkWarmProbe(b *testing.B) {
	p, loader := warmProgram()
	opts := Options{Workers: 2, Cache: ifacecache.New(), StreamCache: streamcache.New(0)}
	for range 3 {
		Compile(p, loader, opts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(p, loader, opts)
	}
}
