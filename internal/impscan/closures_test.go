package impscan

import (
	"fmt"
	"sync"
	"testing"

	"m2cc/internal/source"
)

// chainLoader builds K defs where chain0 imports chain1 imports ... —
// a deep closure so closure-hash work is measurable.
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

func TestClosureHash(t *testing.T) {
	loader := chainLoader(3)
	c := NewClosures(0)

	h1, ok := c.Hash(loader, []string{"chain0"})
	if !ok {
		t.Fatal("closure hash of loadable chain must succeed")
	}
	h2, ok := c.Hash(loader, []string{"chain0"})
	if !ok || h2 != h1 {
		t.Fatalf("closure hash not stable: %x vs %x", h1, h2)
	}

	// Editing a leaf changes every root that can reach it.
	loader.Add("chain2", source.Def,
		"DEFINITION MODULE chain2;\nCONST base = 2;\nEND chain2.\n")
	h3, ok := c.Hash(loader, []string{"chain0"})
	if !ok {
		t.Fatal("closure hash after edit must succeed")
	}
	if h3 == h1 {
		t.Fatal("leaf edit must change the root closure hash")
	}

	// Root order matters (the key is positional, like import order).
	ha, _ := c.Hash(loader, []string{"chain1", "chain2"})
	hb, _ := c.Hash(loader, []string{"chain2", "chain1"})
	if ha == hb {
		t.Fatal("closure hash must depend on root order")
	}

	// Unloadable root → uncacheable.
	if _, ok := c.Hash(loader, []string{"nosuch"}); ok {
		t.Fatal("closure hash of unloadable root must fail")
	}

	// Import cycle → uncacheable.
	cyc := source.NewMapLoader()
	cyc.Add("X", source.Def, "DEFINITION MODULE X;\nFROM Y IMPORT y;\nEND X.\n")
	cyc.Add("Y", source.Def, "DEFINITION MODULE Y;\nFROM X IMPORT x;\nEND Y.\n")
	if _, ok := c.Hash(cyc, []string{"X"}); ok {
		t.Fatal("closure hash of cyclic closure must fail")
	}
}

// TestClosureMemosBounded feeds a capped hasher 20 rounds of distinct
// interface texts (a new importer and a re-edited import each round):
// the import-scan memo, the one kept across compilations, may not grow
// past the cap, and eviction must never change a hash.
func TestClosureMemosBounded(t *testing.T) {
	capped, free := NewClosures(4), NewClosures(0)
	loader := source.NewMapLoader()
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("D%d", i%3)
		loader.Add(name, source.Def, fmt.Sprintf("DEFINITION MODULE %s;\nCONST v = %d;\nEND %s.\n", name, i, name))
		roots := []string{name, fmt.Sprintf("L%d", i)}
		loader.Add(roots[1], source.Def, fmt.Sprintf("DEFINITION MODULE %s;\nFROM %s IMPORT v;\nEND %s.\n", roots[1], name, roots[1]))
		for pass := 0; pass < 2; pass++ {
			got, gok := capped.Hash(loader, roots)
			want, wok := free.Hash(loader, roots)
			if got != want || gok != wok || !gok {
				t.Fatalf("text %d pass %d: capped hash %v/%v, uncapped %v/%v", i, pass, got, gok, want, wok)
			}
		}
		if n := capped.scans.Len(); n > 4 {
			t.Fatalf("after %d texts the capped memo holds %d scans; cap is 4", i+1, n)
		}
	}
	if n := free.scans.Len(); n < 20 {
		t.Fatalf("uncapped memo holds %d scans; want every text", n)
	}
}

// TestClosuresConcurrent shares one capped hasher between goroutines,
// as concurrent compilations share a cache's: memo eviction under
// contention must never change a hash.
func TestClosuresConcurrent(t *testing.T) {
	loader := chainLoader(8)
	roots := [][]string{{"chain0"}, {"chain3", "chain5"}, {"chain7"}, {"chain2", "chain6"}}
	want := make([]source.Hash, len(roots))
	for i, r := range roots {
		want[i], _ = NewClosures(0).Hash(loader, r)
	}
	c := NewClosures(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			snap := source.NewSnapshot(loader)
			for i := 0; i < 50; i++ {
				k := (g + i) % len(roots)
				if h, ok := c.Hash(snap, roots[k]); !ok || h != want[k] {
					t.Errorf("goroutine %d: hash of %v = %x, %v; want %x", g, roots[k], h, ok, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkClosureHashWarm measures the memoized steady state: one
// compilation's worth of re-keying against unchanged text — several
// roots whose closures overlap, through the compilation's snapshot, as
// a warm batch or the stream cache's verdict step does.  hashes/op is
// the number of .def texts content-hashed per compilation: the chain's
// 16, not the 36 the roots' closures add up to, each closure hash taken
// once.  Compare with BenchmarkClosureHashCold (a fresh hasher per
// iteration, so every prologue is scanned) to see the scan memo's win.
func BenchmarkClosureHashWarm(b *testing.B) {
	loader := chainLoader(16)
	roots := []string{"chain0", "chain4", "chain8"}
	c := NewClosures(0)
	if _, ok := c.Hash(loader, roots); !ok {
		b.Fatal("prime failed")
	}
	before := c.Hashes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Hash(source.NewSnapshot(loader), roots); !ok {
			b.Fatal("warm closure hash failed")
		}
	}
	b.ReportMetric(float64(c.Hashes()-before)/float64(b.N), "hashes/op")
}

func BenchmarkClosureHashCold(b *testing.B) {
	loader := chainLoader(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewClosures(0)
		if _, ok := c.Hash(loader, []string{"chain0"}); !ok {
			b.Fatal("cold closure hash failed")
		}
	}
}
