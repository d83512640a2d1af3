package pool

import (
	"runtime"
	"sync"
	"testing"
)

func newTestList() *List[[]byte] {
	return &List[[]byte]{
		New:  func() []byte { return make([]byte, 0, 64) },
		Size: func(b []byte) int { return cap(b) },
	}
}

// draw takes n items from l, then returns them all.
func draw(l *List[[]byte], n int) {
	items := make([][]byte, n)
	for i := range items {
		items[i] = l.Get()
	}
	for _, b := range items {
		l.Put(b)
	}
}

// TestSurvivesCollection is the property sync.Pool lacks: what a list
// holds is still there after the collector ran, so taking it again
// allocates nothing.
func TestSurvivesCollection(t *testing.T) {
	l := newTestList()
	l.Put(l.New())
	allocs := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		l.Put(l.Get())
	})
	if s := l.Stats(); allocs != 0 || s.Misses != 0 {
		t.Fatalf("take after two collections: %.0f allocations, %d misses; want none", allocs, s.Misses)
	}
}

// TestBoundForgetsOutlier draws a steady footprint, then one draw a
// hundred times larger: the list keeps the large draw, in case it
// comes again, until one more compilation ends, then falls back to 3/2
// of the steady footprint.
func TestBoundForgetsOutlier(t *testing.T) {
	l := newTestList()
	for i := 0; i < 10; i++ {
		draw(l, 10)
		Age()
	}
	draw(l, 1000)
	Age()
	if s := l.Stats(); s.Held != 1000+16 {
		t.Fatalf("right after the large draw the list holds %d, want the 1000 drawn and a reserve of 16", s.Held)
	}
	for i := 0; i < 10; i++ {
		draw(l, 10)
		Age()
		if s := l.Stats(); s.Held != 15 || s.Bytes != 15*64 {
			t.Fatalf("after %d steady draws the list holds %d items (%d B), want 15", i+1, s.Held, s.Bytes)
		}
	}
}

// TestBoundKeepsRepeatedDraw: a draw larger than any before it is
// supplied from the list the second time it comes, although it has
// not yet been seen three times, and so is one a little larger: the
// list keeps a reserve of 1/64 of a draw that ran it dry, and one item.
func TestBoundKeepsRepeatedDraw(t *testing.T) {
	l := newTestList()
	draw(l, 100)
	Age()
	made := l.Stats().Misses
	draw(l, 102)
	Age()
	if s := l.Stats(); s.Misses != made || s.Held != 102 {
		t.Fatalf("the repeated draw made %d items and left %d held, want none made and 102 held", s.Misses-made, s.Held)
	}
}

// TestSpansCountsItemsOut: two holders overlap across compilations,
// each taking its item while the other's is still out.  Each compilation
// sees one take, so a plain list keeps one item and misses again and
// again; a Spans list counts the item still out and supplies both.
func TestSpansCountsItemsOut(t *testing.T) {
	for _, spans := range []bool{false, true} {
		l := newTestList()
		l.Spans = spans
		for range 20 {
			a := l.Get()
			Age()
			b := l.Get()
			Age()
			l.Put(a, b)
		}
		before := l.Stats().Misses
		for range 100 {
			a := l.Get()
			Age()
			b := l.Get()
			Age()
			l.Put(a, b)
		}
		if missed := l.Stats().Misses - before; (missed == 0) != spans {
			t.Errorf("Spans %v: %d misses in 100 overlapping pairs", spans, missed)
		}
	}
}

// TestBoundKeepsRecentPeak sweeps draws from small to large over and
// over, as a pass over the generated suite does: after the first sweep
// every draw is supplied from the list.
func TestBoundKeepsRecentPeak(t *testing.T) {
	l := newTestList()
	sweep := func() {
		for n := 1; n <= 37; n++ {
			draw(l, n*n)
			Age()
		}
	}
	sweep()
	sweep()
	before := l.Stats().Misses
	sweep()
	if s := l.Stats(); s.Misses != before || s.Held != 37*37+37*37/64+1 {
		t.Fatalf("third sweep missed %d times and left %d held; want 0 and %d with the reserve", s.Misses-before, s.Held, 37*37+37*37/64+1)
	}
}

// TestScrub checks both modes: zeroing, and the scrambling test seam.
func TestScrub(t *testing.T) {
	s := []string{"a", "b", "c"}
	Scribble.Store(true)
	Scrub(s)
	Scribble.Store(false)
	if s[0] != "c" || s[2] != "a" {
		t.Fatalf("scribbled %q, want it reversed", s)
	}
	Scrub(s)
	for _, v := range s {
		if v != "" {
			t.Fatalf("scrubbed %q, want zeros", s)
		}
	}
}

// TestConcurrentUse shares one list between goroutines that take, fill,
// check and return items, ending compilations as they go.  Run under
// -race.
func TestConcurrentUse(t *testing.T) {
	l := newTestList()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := append(l.Get()[:0], g, g, g)
				if b[0] != g || b[2] != g {
					t.Errorf("goroutine %d read %v from its own item", g, b)
					return
				}
				l.Put(b)
				if i%50 == 0 {
					Age()
				}
			}
		}(byte(g))
	}
	wg.Wait()
	if s := l.Stats(); s.Gets != 2000 || s.Puts != 2000 {
		t.Fatalf("stats %+v, want 2000 gets and puts", s)
	}
}

var sink []byte

// BenchmarkSurvivesGC takes and returns one 8 kB buffer per iteration
// and runs the collector every 64: from the list the take allocates
// nothing (0 B/op), from a sync.Pool the buffer is allocated again once
// every two collections (64 B/op).
func BenchmarkSurvivesGC(b *testing.B) {
	const size, every = 8 << 10, 64
	b.Run("list", func(b *testing.B) {
		l := &List[[]byte]{New: func() []byte { return make([]byte, 0, size) }}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%every == 0 {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
			}
			buf := l.Get()
			sink = buf
			l.Put(buf)
		}
	})
	b.Run("sync.Pool", func(b *testing.B) {
		var p sync.Pool
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%every == 0 {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
			}
			buf, _ := p.Get().(*[]byte)
			if buf == nil {
				buf = new([]byte)
				*buf = make([]byte, 0, size)
			}
			sink = *buf
			p.Put(buf)
		}
	})
}
