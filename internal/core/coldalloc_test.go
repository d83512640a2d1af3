package core

import (
	"testing"

	"m2cc/internal/ifacecache"
	"m2cc/internal/streamcache"
)

// TestColdCompileAllocs bounds what a cold compile of one suite program
// allocates a stream, with caches fresh on every compile (the median of
// seven compiles, after three that fill the free lists).  Symbol table
// entries and code segments are a large part of it: a 96-byte entry
// with its per-kind payload out of line, scopes that build a name index
// only when they are big, and 8-byte instructions keep it under the
// bound.  Under the race detector the bound is the looser one that held
// before the 8-byte instruction.
func TestColdCompileAllocs(t *testing.T) {
	perStream := uint64(9500)
	if raceBuild {
		perStream = 10800
	}
	p, loader := warmProgram()
	var res *Result
	compile := func() {
		res = Compile(p, loader, Options{Workers: 2, Cache: ifacecache.New(), StreamCache: streamcache.New(0)})
	}
	for range 3 {
		compile()
	}
	bytes := allocated(compile)
	if ta := res.StreamCache; ta.Hits != 0 || ta.Misses == 0 {
		t.Fatalf("cold compile of %s: %+v, want every probe a miss", p, *ta)
	}
	t.Logf("%s: %d B over %d streams, %d B a stream", p, bytes, res.Streams, bytes/uint64(res.Streams))
	if bytes > perStream*uint64(res.Streams) {
		t.Fatalf("a cold compile of %s allocates %d B, over %d B a stream for %d streams",
			p, bytes, perStream, res.Streams)
	}
}
