package ifacecache_test

import (
	"fmt"
	"testing"

	"m2cc/internal/ifacecache"
	"m2cc/internal/source"
)

// chainLoader builds K defs where chain0 imports chain1 imports ... —
// a deep closure so closureKey work is measurable.
func chainLoader(k int) *source.MapLoader {
	l := source.NewMapLoader()
	for i := 0; i < k; i++ {
		var text string
		if i == k-1 {
			text = fmt.Sprintf("DEFINITION MODULE chain%d;\nCONST base = 1;\nEND chain%d.\n", i, i)
		} else {
			text = fmt.Sprintf("DEFINITION MODULE chain%d;\nFROM chain%d IMPORT base;\nEND chain%d.\n", i, i+1, i)
		}
		l.Add(fmt.Sprintf("chain%d", i), source.Def, text)
	}
	return l
}

func TestLRUEviction(t *testing.T) {
	loader := loaderWith(map[string]string{
		"A": "DEFINITION MODULE A;\nCONST a = 1;\nEND A.\n",
		"B": "DEFINITION MODULE B;\nCONST b = 1;\nEND B.\n",
		"C": "DEFINITION MODULE C;\nCONST c = 1;\nEND C.\n",
	})
	c := ifacecache.New()
	c.SetLimit(2)

	for _, name := range []string{"A", "B"} {
		ent, _, st := c.Acquire(name, loader)
		if st != ifacecache.Lead {
			t.Fatalf("acquire %s: %v, want Lead", name, st)
		}
		ent.Publish(newScope(name), name+".def", 0, nil, nil, 1)
	}
	// Touch A so B is the LRU entry.
	if _, _, st := c.Acquire("A", loader); st != ifacecache.Hit {
		t.Fatalf("warm acquire A: %v, want Hit", st)
	}

	// Inserting C must evict B (the least recently used ready entry).
	entC, _, st := c.Acquire("C", loader)
	if st != ifacecache.Lead {
		t.Fatalf("acquire C: %v, want Lead", st)
	}
	entC.Publish(newScope("C"), "C.def", 0, nil, nil, 1)

	if n := c.Len(); n != 2 {
		t.Fatalf("len after eviction: %d, want 2", n)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions: %d, want 1", ev)
	}
	if _, _, st := c.Acquire("A", loader); st != ifacecache.Hit {
		t.Fatalf("A after eviction: %v, want Hit (A was MRU)", st)
	}
	if _, _, st := c.Acquire("B", loader); st != ifacecache.Lead {
		t.Fatalf("B after eviction: %v, want Lead (B was evicted)", st)
	}
}

func TestLRUNeverEvictsLiveLeader(t *testing.T) {
	loader := loaderWith(map[string]string{
		"A": "DEFINITION MODULE A;\nCONST a = 1;\nEND A.\n",
		"B": "DEFINITION MODULE B;\nCONST b = 1;\nEND B.\n",
	})
	c := ifacecache.New()
	c.SetLimit(1)

	// A is still leading (unpublished) — it has, conceptually, live
	// waiters and must survive the cap.
	entA, _, st := c.Acquire("A", loader)
	if st != ifacecache.Lead {
		t.Fatalf("acquire A: %v, want Lead", st)
	}
	entB, _, st := c.Acquire("B", loader)
	if st != ifacecache.Lead {
		t.Fatalf("acquire B: %v, want Lead", st)
	}
	// Over cap, but nothing evictable: both entries leading.
	if n := c.Len(); n != 2 {
		t.Fatalf("len with two leaders: %d, want 2 (no eviction of leaders)", n)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("evictions with live leaders: %d, want 0", ev)
	}

	// Once published, the next insert pressure can evict.
	entA.Publish(newScope("A"), "A.def", 0, nil, nil, 1)
	entB.Publish(newScope("B"), "B.def", 0, nil, nil, 1)
	c.SetLimit(1)
	if n := c.Len(); n != 1 {
		t.Fatalf("len after publish + re-cap: %d, want 1", n)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions after publish + re-cap: %d, want 1", ev)
	}
}

func TestClosureHash(t *testing.T) {
	loader := chainLoader(3)
	c := ifacecache.New()

	h1, ok := c.ClosureHash(loader, []string{"chain0"})
	if !ok {
		t.Fatal("closure hash of loadable chain must succeed")
	}
	h2, ok := c.ClosureHash(loader, []string{"chain0"})
	if !ok || h2 != h1 {
		t.Fatalf("closure hash not stable: %x vs %x", h1, h2)
	}

	// Editing a leaf changes every root that can reach it.
	loader.Add("chain2", source.Def,
		"DEFINITION MODULE chain2;\nCONST base = 2;\nEND chain2.\n")
	h3, ok := c.ClosureHash(loader, []string{"chain0"})
	if !ok {
		t.Fatal("closure hash after edit must succeed")
	}
	if h3 == h1 {
		t.Fatal("leaf edit must change the root closure hash")
	}

	// Root order matters (the key is positional, like import order).
	ha, _ := c.ClosureHash(loader, []string{"chain1", "chain2"})
	hb, _ := c.ClosureHash(loader, []string{"chain2", "chain1"})
	if ha == hb {
		t.Fatal("closure hash must depend on root order")
	}

	// Unloadable root → uncacheable.
	if _, ok := c.ClosureHash(loader, []string{"nosuch"}); ok {
		t.Fatal("closure hash of unloadable root must fail")
	}

	// Import cycle → uncacheable.
	cyc := source.NewMapLoader()
	cyc.Add("X", source.Def, "DEFINITION MODULE X;\nFROM Y IMPORT y;\nEND X.\n")
	cyc.Add("Y", source.Def, "DEFINITION MODULE Y;\nFROM X IMPORT x;\nEND Y.\n")
	if _, ok := c.ClosureHash(cyc, []string{"X"}); ok {
		t.Fatal("closure hash of cyclic closure must fail")
	}
}

// BenchmarkClosureHashWarm measures the memoized steady state: one
// compilation's worth of re-keying against unchanged text — several
// roots whose closures overlap, through the compilation's snapshot, as
// a warm batch or the stream cache's verdict step does.  hashes/op is
// the number of .def texts content-hashed per compilation: the chain's
// 16, not the 36 the roots' closures add up to.  Compare with
// BenchmarkClosureHashCold (a fresh cache per iteration) to see the
// memoization win.
func BenchmarkClosureHashWarm(b *testing.B) {
	loader := chainLoader(16)
	roots := []string{"chain0", "chain4", "chain8"}
	c := ifacecache.New()
	if _, ok := c.ClosureHash(loader, roots); !ok {
		b.Fatal("prime failed")
	}
	before := c.Stats().Hashes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.ClosureHash(source.NewSnapshot(loader), roots); !ok {
			b.Fatal("warm closure hash failed")
		}
	}
	b.ReportMetric(float64(c.Stats().Hashes-before)/float64(b.N), "hashes/op")
}

func BenchmarkClosureHashCold(b *testing.B) {
	loader := chainLoader(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ifacecache.New()
		if _, ok := c.ClosureHash(loader, []string{"chain0"}); !ok {
			b.Fatal("cold closure hash failed")
		}
	}
}
