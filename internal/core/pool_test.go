package core_test

import (
	"testing"

	"m2cc/internal/ast"
	"m2cc/internal/codegen"
	"m2cc/internal/core"
	"m2cc/internal/pool"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/tokq"
	"m2cc/internal/workload"
)

// TestListsDecayAfterLargeCompile compiles one module of about 6 MB
// (under m2cd's 8 MiB body cap) between runs of a small one: ten small
// compilations later, every free list holds at most twice what the
// small module alone left in it.  One worker keeps the small module's
// draws equal from run to run.
func TestListsDecayAfterLargeCompile(t *testing.T) {
	small, large := source.NewMapLoader(), source.NewMapLoader()
	workload.GenerateSynth(small, 40, 2, nil)
	if info := workload.GenerateSynth(large, 3500, 8, nil); info.Bytes < 5<<20 || info.Bytes > 8<<20 {
		t.Fatalf("the large module has %d bytes, want 5 MB to 8 MiB", info.Bytes)
	}
	compile := func(loader source.Loader) {
		t.Helper()
		res := core.Compile("Synth", loader, core.Options{Workers: 1, StreamCache: streamcache.New(0)})
		if res.Failed() || res.Faulted {
			t.Fatalf("compile failed:\n%s", res.Diags)
		}
	}
	lists := map[string]func() pool.Stats{
		"tokq.Blocks": tokq.Blocks.Stats, "ast.Arenas": ast.Arenas.Stats,
		"streamcache.Chunks": streamcache.Chunks.Stats, "codegen.EmitBufs": codegen.EmitBufs.Stats,
	}
	stats := func() map[string]pool.Stats {
		out := make(map[string]pool.Stats)
		for name, f := range lists {
			out[name] = f()
		}
		return out
	}
	for i := 0; i < 64; i++ {
		compile(small) // the lists remember the draws of 64 compilations: forget earlier tests'
	}
	take := stats()
	compile(large)
	drawn := stats()
	for i := 0; i < 10; i++ {
		compile(small)
	}
	for name, s := range stats() {
		was := take[name]
		switch {
		case was.Bytes == 0:
			t.Errorf("%s: the small module left nothing in the list", name)
		case s.Bytes > 2*was.Bytes:
			t.Errorf("%s: holds %d B after the large module, want at most twice the small module's %d B", name, s.Bytes, was.Bytes)
		}
		if name == "tokq.Blocks" && drawn[name].Misses-was.Misses < 100*was.Held {
			t.Errorf("%s: the large module allocated %d blocks, want a hundred times the small module's %d", name, drawn[name].Misses-was.Misses, was.Held)
		}
	}
}

// TestRecycledChunksKeepStreamKeys compiles program A, then program B
// on A's recycled keyer chunks, then A again, with every release
// scribbling over what it returns.  The second compilation of A finds
// every stream the first one recorded, so each of its keys is the same
// bytes.
func TestRecycledChunksKeepStreamKeys(t *testing.T) {
	pool.Scribble.Store(true)
	defer pool.Scribble.Store(false)
	suite := workload.GenerateSuite(1992, 0.2)
	a, b := suite.Programs[6].Name, suite.Programs[7].Name
	cache := streamcache.New(0)
	first := core.Compile(a, suite.Loader, core.Options{Workers: 2, StreamCache: cache})
	core.Compile(b, suite.Loader, core.Options{Workers: 2, StreamCache: streamcache.New(0)})
	from := streamcache.Chunks.Stats()
	again := core.Compile(a, suite.Loader, core.Options{Workers: 2, StreamCache: cache})
	if s := streamcache.Chunks.Stats(); s.Gets-s.Misses == from.Gets-from.Misses {
		t.Fatal("the second compilation of A took no recycled chunk")
	}
	if first.Failed() || again.Failed() || first.StreamCache.Recorded == 0 {
		t.Fatalf("compiles failed or recorded nothing: %+v\n%s\n%s", first.StreamCache, first.Diags, again.Diags)
	}
	if ta := again.StreamCache; ta.Hits != ta.Probed || ta.Recorded != 0 {
		t.Fatalf("second compilation of %s: %+v, want every probe to hit", a, ta)
	}
	if again.Object.Listing() != first.Object.Listing() {
		t.Fatal("the second listing differs from the first")
	}
}
