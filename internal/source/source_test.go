package source_test

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"m2cc/internal/source"
)

func TestMapLoaderAddLoad(t *testing.T) {
	l := source.NewMapLoader()
	l.Add("M", source.Def, "def text")
	l.Add("M", source.Impl, "impl text")
	if got, err := l.Load("M", source.Def); err != nil || got != "def text" {
		t.Fatalf("Load def = %q, %v", got, err)
	}
	if got, err := l.Load("M", source.Impl); err != nil || got != "impl text" {
		t.Fatalf("Load impl = %q, %v", got, err)
	}
	if _, err := l.Load("N", source.Def); err == nil {
		t.Fatal("missing module must error")
	}
}

func TestMapLoaderNamesSorted(t *testing.T) {
	l := source.NewMapLoader()
	l.Add("B", source.Impl, "")
	l.Add("A", source.Def, "")
	l.Add("A", source.Impl, "")
	want := []string{"A.def", "A.mod", "B.mod"}
	if got := l.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

func TestMapLoaderConcurrent(t *testing.T) {
	l := source.NewMapLoader()
	l.Add("M", source.Def, "x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if _, err := l.Load("M", source.Def); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDirLoader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "X.def"), []byte("DEF"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := &source.DirLoader{Dirs: []string{t.TempDir(), dir}}
	if got, err := l.Load("X", source.Def); err != nil || got != "DEF" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	if _, err := l.Load("X", source.Impl); err == nil {
		t.Fatal("missing .mod must error")
	}
}

func TestFileSetAdd(t *testing.T) {
	s := source.NewSet()
	a := s.Add("A", source.Def, "aaa")
	b := s.Add("B", source.Impl, "bbb")
	if a.Label() != "A.def" || a.Text != "aaa" || b.Label() != "B.mod" || b.Text != "bbb" {
		t.Fatalf("Add = %+v, %+v", a, b)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestFileKindExt(t *testing.T) {
	if source.Def.Ext() != ".def" || source.Impl.Ext() != ".mod" {
		t.Fatal("wrong extensions")
	}
	if source.Def.String() != "def" || source.Impl.String() != "mod" {
		t.Fatal("wrong kind names")
	}
}

func TestHashTextDoesNotCopy(t *testing.T) {
	text := strings.Repeat("MODULE M; END M.\n", 4096)
	if source.HashText(text) != source.Hash(sha256.Sum256([]byte(text))) {
		t.Fatal("HashText is not the SHA-256 of the text")
	}
	if source.HashText("") != source.Hash(sha256.Sum256(nil)) {
		t.Fatal("HashText of the empty text is not the SHA-256 of nothing")
	}
	var sink source.Hash
	if n := testing.AllocsPerRun(10, func() { sink = source.HashText(text) }); n != 0 {
		t.Fatalf("HashText allocates %v times per call", n)
	}
	_ = sink
}

// loadCounter counts what reaches the loader under a Snapshot.
type loadCounter struct {
	*source.MapLoader
	loads atomic.Int64
}

func (l *loadCounter) Load(name string, kind source.FileKind) (string, error) {
	l.loads.Add(1)
	return l.MapLoader.Load(name, kind)
}

// TestSnapshotLoadsAndHashesOnce: a snapshot loads each file once
// however many goroutines ask, and keeps one closure memo a file, so
// the hash a walk records under its writer's lock is taken once; the
// next snapshot loads and hashes again.
func TestSnapshotLoadsAndHashesOnce(t *testing.T) {
	base := &loadCounter{MapLoader: source.NewMapLoader()}
	base.Add("A", source.Def, "one")
	snap := source.NewSnapshot(base)

	var wg sync.WaitGroup
	var fresh atomic.Int64
	var memoMu sync.Mutex // as impscan guards the memos
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			text, err := snap.Load("A", source.Def)
			if err != nil || text != "one" {
				t.Errorf("Load = %q, %v", text, err)
			}
			memoMu.Lock()
			if m := snap.Closure("A", source.Def); m.Mark == 0 {
				m.Sum, m.Mark = source.HashText(text), 1
				fresh.Add(1)
			}
			memoMu.Unlock()
		}()
	}
	wg.Wait()
	if base.loads.Load() != 1 || fresh.Load() != 1 || snap.Closure("A", source.Def).Sum != source.HashText("one") {
		t.Fatalf("%d loads, %d fresh hashes; want one of each", base.loads.Load(), fresh.Load())
	}

	// The snapshot is a snapshot: a later edit is the next one's to see.
	base.Add("A", source.Def, "two")
	if text, _ := snap.Load("A", source.Def); text != "one" {
		t.Fatalf("snapshot changed under its compilation: %q", text)
	}
	next := source.NewSnapshot(base)
	if text, _ := next.Load("A", source.Def); text != "two" || next.Closure("A", source.Def).Mark != 0 {
		t.Fatalf("a new snapshot must reload and rehash: %q, memo %+v", text, *next.Closure("A", source.Def))
	}

	// Failures are remembered too.
	for i := 0; i < 2; i++ {
		if _, err := snap.Load("Missing", source.Def); err == nil {
			t.Fatal("missing file loaded")
		}
	}
	if base.loads.Load() != 3 {
		t.Fatalf("missing file loaded %d times in all", base.loads.Load()-2)
	}
}
