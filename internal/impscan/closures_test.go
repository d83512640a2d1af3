package impscan

import (
	"fmt"
	"slices"
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

// prescanned returns a fresh snapshot of loader on which the area
// prescan has recorded the import closure of roots, as on each
// compilation's.
func prescanned(loader source.Loader, roots ...string) *source.Snapshot {
	snap, names := source.NewSnapshot(loader), slices.Clone(roots)
	for i := 0; i < len(names); i++ {
		names, _ = Prescan(snap, names[i], source.Def, names)
	}
	return snap
}

func TestClosureHash(t *testing.T) {
	loader := chainLoader(3)

	h1, ok := Hash(prescanned(loader, "chain0"), []string{"chain0"})
	if !ok {
		t.Fatal("closure hash of loadable chain must succeed")
	}
	h2, ok := Hash(prescanned(loader, "chain0"), []string{"chain0"})
	if !ok || h2 != h1 {
		t.Fatalf("closure hash not stable: %x vs %x", h1, h2)
	}
	// Prescanning each file on its own, in any order, records the same.
	snap := source.NewSnapshot(loader)
	for i := 0; i < 3; i++ {
		Prescan(snap, fmt.Sprintf("chain%d", i), source.Def, nil)
	}
	if h, ok := Hash(snap, []string{"chain0"}); !ok || h != h1 {
		t.Fatalf("closure hash over the prescan's record: %x, %v; want %x", h, ok, h1)
	}

	// Editing a leaf changes every root that can reach it.
	loader.Add("chain2", source.Def,
		"DEFINITION MODULE chain2;\nCONST base = 2;\nEND chain2.\n")
	h3, ok := Hash(prescanned(loader, "chain0"), []string{"chain0"})
	if !ok {
		t.Fatal("closure hash after edit must succeed")
	}
	if h3 == h1 {
		t.Fatal("leaf edit must change the root closure hash")
	}

	// Root order matters (the key is positional, like import order).
	ha, _ := Hash(prescanned(loader, "chain1"), []string{"chain1", "chain2"})
	hb, _ := Hash(prescanned(loader, "chain1"), []string{"chain2", "chain1"})
	if ha == hb {
		t.Fatal("closure hash must depend on root order")
	}

	// Unloadable root → uncacheable.
	if _, ok := Hash(prescanned(loader, "nosuch"), []string{"nosuch"}); ok {
		t.Fatal("closure hash of unloadable root must fail")
	}

	// Import cycle → uncacheable.
	cyc := source.NewMapLoader()
	cyc.Add("X", source.Def, "DEFINITION MODULE X;\nFROM Y IMPORT y;\nEND X.\n")
	cyc.Add("Y", source.Def, "DEFINITION MODULE Y;\nFROM X IMPORT x;\nEND Y.\n")
	if _, ok := Hash(prescanned(cyc, "X"), []string{"X"}); ok {
		t.Fatal("closure hash of cyclic closure must fail")
	}
}

// TestClosuresConcurrent walks overlapping closures from goroutines
// sharing one snapshot, as a compilation's tasks do, and from
// goroutines with snapshots of their own, as concurrent compilations
// do: every walk must see the same hashes and imports.
func TestClosuresConcurrent(t *testing.T) {
	loader := chainLoader(8)
	roots := [][]string{{"chain0"}, {"chain3", "chain5"}, {"chain7"}, {"chain2", "chain6"}}
	want := make([]source.Hash, len(roots))
	for i, r := range roots {
		want[i], _ = Hash(prescanned(loader, r...), r)
	}
	shared := prescanned(loader, "chain0")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			snap := shared
			if g%2 == 1 {
				snap = prescanned(loader, "chain0")
			}
			for i := 0; i < 50; i++ {
				k := (g + i) % len(roots)
				if h, ok := Hash(snap, roots[k]); !ok || h != want[k] {
					t.Errorf("goroutine %d: hash of %v = %x, %v; want %x", g, roots[k], h, ok, want[k])
					return
				}
				if imps := Imports(snap, "chain1", source.Def); len(imps) != 1 || imps[0] != "chain2" {
					t.Errorf("goroutine %d: imports of chain1 = %v", g, imps)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// countSeams counts, while b runs, the prologue scans and the content
// hashes the closure walk makes, and reports them a op.
func countSeams(b *testing.B) {
	var scans, hashes int
	OnScan = func(string, source.FileKind) { scans++ }
	OnHash = func(string) { hashes++ }
	b.Cleanup(func() {
		OnScan, OnHash = nil, nil
		b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
		b.ReportMetric(float64(hashes)/float64(b.N), "hashes/op")
	})
}

// BenchmarkClosureHashWarm measures what one compilation of the
// concurrent compiler pays to key both caches, one snapshot an op: the
// area prescan scans and records each of the chain's 16 prologues, then
// several roots whose closures overlap are hashed over that record, as
// the interface cache's keys and the stream cache's probe are.  Each
// .def is scanned once and content-hashed once: 16 scans and 16 hashes
// an op, not the 36 the roots' closures add up to.
func BenchmarkClosureHashWarm(b *testing.B) {
	loader := chainLoader(16)
	roots := []string{"chain0", "chain4", "chain8"}
	countSeams(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap := source.NewSnapshot(loader)
		names := []string{"chain0"}
		for j := 0; j < len(names); j++ {
			names, _ = Prescan(snap, names[j], source.Def, names)
		}
		if _, ok := Hash(snap, roots); !ok {
			b.Fatal("warm closure hash failed")
		}
	}
}

// TestUnrecordedFileUnhashable: the walk reads only what the prescan
// recorded, so a file it never scanned makes every closure through it
// unhashable, and its compilation bypasses the caches.
func TestUnrecordedFileUnhashable(t *testing.T) {
	loader := chainLoader(3)
	if _, ok := Root("chain2", source.NewSnapshot(loader)); ok {
		t.Error("Root of a file no prescan recorded is hashable")
	}
	if _, ok := Hash(source.NewSnapshot(loader), []string{"chain0"}); ok {
		t.Error("Hash of a closure no prescan recorded is hashable")
	}
	snap := source.NewSnapshot(loader)
	Prescan(snap, "chain0", source.Def, nil)
	Prescan(snap, "chain1", source.Def, nil)
	if _, ok := Root("chain0", snap); ok {
		t.Error("Root of a closure with one unrecorded member is hashable")
	}
	if _, ok := Root("chain2", prescanned(loader, "chain2")); !ok {
		t.Error("Root of a recorded leaf is unhashable")
	}
}
