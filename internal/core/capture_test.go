package core

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"m2cc/internal/ifacecache"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/workload"
)

// editLoader serves one edited implementation module over a base.
type editLoader struct {
	source.Loader
	name, text string
}

func (l *editLoader) Load(name string, kind source.FileKind) (string, error) {
	if kind == source.Impl && name == l.name {
		return l.text, nil
	}
	return l.Loader.Load(name, kind)
}

// literalEdit returns a function making the i-th of distinct one-literal
// edits of text: each replaces the bound of one "WHILE acc > " loop, a
// literal inside a procedure body, with a value no other edit and no
// generated program uses, and adds or removes no line.  The texts are
// made one at a time, so only what a compilation keeps of one outlives
// it.
func literalEdit(t *testing.T, text string) func(i int) string {
	const marker = "WHILE acc > "
	var spans [][2]int
	for off := 0; ; {
		i := strings.Index(text[off:], marker)
		if i < 0 {
			break
		}
		s := off + i + len(marker)
		e := s
		for e < len(text) && text[e] >= '0' && text[e] <= '9' {
			e++
		}
		spans = append(spans, [2]int{s, e})
		off = e
	}
	if len(spans) == 0 {
		t.Fatal("no editable literal")
	}
	return func(i int) string {
		sp := spans[i%len(spans)]
		return text[:sp[0]] + strconv.Itoa(1000000+i) + text[sp[1]:]
	}
}

// heapAfterGC is the live heap after two collections.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEditRetainsLittle: one-literal edits of a suite program, compiled
// one after another against shared caches as a daemon compiles them,
// leave little live heap behind each: the stream-cache entries an edit
// publishes keep their own names, fixups and diagnostics, so they hold
// neither the edited source text nor anything else of the compilation
// that wrote them.  Each edit's entries are new (every literal is
// fresh) and never read.
func TestEditRetainsLittle(t *testing.T) {
	const perEdit = 4 << 10
	n := 400
	if raceBuild {
		n = 100
	}
	suite := workload.GenerateSuite(1992, 1)
	const prog = "Prog20"
	text, err := suite.Loader.Load(prog, source.Impl)
	if err != nil {
		t.Fatal(err)
	}
	edit := literalEdit(t, text)
	opts := Options{Workers: 2, Cache: ifacecache.New(), StreamCache: streamcache.New(0)}
	compile := func(text string) {
		if res := Compile(prog, &editLoader{suite.Loader, prog, text}, opts); res.Failed() || res.Faulted {
			t.Fatalf("edited %s failed:\n%s", prog, res.Diags)
		}
	}
	compile(text)
	for i := range 50 { // until the free lists hold what a compilation draws
		compile(edit(i))
	}
	before := heapAfterGC()
	for i := range n {
		compile(edit(50 + i))
	}
	after := heapAfterGC()
	grown := int64(after) - int64(before)
	t.Logf("%d edits of %s: %+d B live, %d B an edit, %d stream-cache entries",
		n, prog, grown, grown/int64(n), opts.StreamCache.Len())
	if grown > perEdit*int64(n) {
		t.Fatalf("%d edits of %s keep %d B live, %d B an edit, over %d", n, prog, grown, grown/int64(n), perEdit)
	}
}

// watchBuilds counts, until the test ends, the stream-cache entries
// built (an entry is built on its first read).
func watchBuilds(t *testing.T) *atomic.Int64 {
	n := new(atomic.Int64)
	materialized = func() { n.Add(1) }
	t.Cleanup(func() { materialized = func() {} })
	return n
}

// TestColdPassBuildsNoEntry: a cold suite pass against a fresh stream
// cache reads none of the entries it publishes, so it builds none, and
// it still publishes every stream it compiled: each program records
// exactly the streams it missed, its body included.
func TestColdPassBuildsNoEntry(t *testing.T) {
	suite := workload.GenerateSuite(1992, 0.25)
	builds := watchBuilds(t)
	opts := Options{Workers: 2, Cache: ifacecache.New(), StreamCache: streamcache.New(0)}
	for _, p := range suite.Programs {
		res := Compile(p.Name, suite.Loader, opts)
		if ta := res.StreamCache; res.Failed() || ta.Hits != 0 || ta.Misses == 0 || ta.Recorded != ta.Misses {
			t.Fatalf("cold %s: failed %v, %+v; want every stream missed and recorded", p.Name, res.Failed(), *ta)
		}
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("a cold pass built %d stream-cache entries, want 0", n)
	}
}

// TestWarmRebuildBuildsEachHitOnce: a warm rebuild of the suite builds
// each entry it installs once, on the install; a second warm rebuild
// finds them built and builds none.
func TestWarmRebuildBuildsEachHitOnce(t *testing.T) {
	suite := workload.GenerateSuite(1992, 0.25)
	opts := Options{Workers: 2, Cache: ifacecache.New(), StreamCache: streamcache.New(0)}
	pass := func() (installed int) {
		for _, p := range suite.Programs {
			res := Compile(p.Name, suite.Loader, opts)
			if res.Failed() {
				t.Fatalf("%s failed:\n%s", p.Name, res.Diags)
			}
			installed += res.StreamCache.Installed
		}
		return installed
	}
	pass()
	builds := watchBuilds(t)
	if installed := pass(); installed == 0 || builds.Load() != int64(installed) {
		t.Fatalf("the first warm rebuild installed %d entries and built %d; want each built once", installed, builds.Load())
	}
	if installed, n := pass(), builds.Load(); n != int64(installed) {
		t.Fatalf("the second warm rebuild built %d entries more, want none", n-int64(installed))
	}
}

// sharedProgram has nested procedures, a string literal and an error,
// so its entries carry a subtree, a literal pool and diagnostics.
const sharedProgram = `MODULE Shared;
VAR g: INTEGER;
PROCEDURE Outer(n: INTEGER): INTEGER;
  PROCEDURE Inner(k: INTEGER): INTEGER;
  BEGIN RETURN k * 2 + g END Inner;
BEGIN WriteString("outer"); WriteLn; RETURN Inner(n) + 1 END Outer;
PROCEDURE Bad;
BEGIN undeclared := 1 END Bad;
BEGIN g := Outer(3); WriteInt(g, 0); WriteLn END Shared.
`

// TestConcurrentFirstHitsBuildOnce: eight compilations whose first read
// of every entry races build each entry once, and each gives the cold
// compilation's listing and diagnostics byte for byte.
func TestConcurrentFirstHitsBuildOnce(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("Shared", source.Impl, sharedProgram)
	opts := Options{Workers: 2, StreamCache: streamcache.New(0)}
	cold := Compile("Shared", loader, opts)
	if cold.Diags.String() == "" || cold.StreamCache.Recorded < 3 {
		t.Fatalf("cold compile: diagnostics %q, %+v; want an error and recorded streams", cold.Diags, *cold.StreamCache)
	}
	builds := watchBuilds(t)
	const sessions = 8
	results := make([]*Result, sessions)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = Compile("Shared", loader, opts)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res.Diags.String() != cold.Diags.String() || res.Object.Listing() != cold.Object.Listing() {
			t.Fatalf("session %d differs from the cold compile\ndiagnostics:\n%s\nlisting:\n%s", i, res.Diags, res.Object.Listing())
		}
		if ta := res.StreamCache; ta.Misses != 0 || ta.Installed != results[0].StreamCache.Installed {
			t.Fatalf("session %d: %+v, want every probe a hit", i, *ta)
		}
	}
	if n, want := builds.Load(), int64(results[0].StreamCache.Installed); n != want {
		t.Fatalf("%d sessions built %d entries, want each of the %d once", sessions, n, want)
	}
}
