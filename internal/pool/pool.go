// Package pool is the bounded free list under every buffer a
// compilation borrows; unlike a sync.Pool, it survives garbage
// collection (DESIGN.md, "Buffer ownership", derives the bound).
package pool

import (
	"slices"
	"sync"
	"sync/atomic"
)

var epoch atomic.Uint64 // compilations ended

// Scribble is a test seam, not a knob: while it is set, Scrub
// scrambles returned storage instead of zeroing it.
var Scribble atomic.Bool

// Age marks the end of one compilation.
func Age() { epoch.Add(1) }

// Stats is a list's traffic and holdings.
type Stats struct{ Gets, Misses, Puts, Held, Bytes int }

// Add sums the stats of two lists.
func (s Stats) Add(t Stats) Stats {
	return Stats{s.Gets + t.Gets, s.Misses + t.Misses, s.Puts + t.Puts, s.Held + t.Held, s.Bytes + t.Bytes}
}

// List is a LIFO free list of T: New makes an item when the list is
// empty, and Size reports the bytes one holds.
type List[T any] struct {
	New  func() T
	Size func(T) int
	// Spans marks items that outlive the compilation that took them (an
	// m2cd request's buffers): a draw is then the most items out at once,
	// those taken before the compilation began included.
	Spans bool

	mu    sync.Mutex // guards: every field below
	free  []T        // least recently returned first
	stats Stats
	// The compilation being measured (len(free) when it began, the fewest
	// since, the misses before it, the most items out since), the items
	// out now, and the draws of the last 64.
	epoch                         uint64
	start, low, misses, peak, out int
	drawn                         [64]int
}

// Get takes the most recently returned item, or a new one.
func (l *List[T]) Get() (v T) {
	l.mu.Lock()
	l.turn()
	l.stats.Gets++
	l.out++
	l.peak = max(l.peak, l.out)
	if n := len(l.free) - 1; n >= 0 {
		v, l.free[n] = l.free[n], v
		l.free, l.low = l.free[:n], min(l.low, n)
		l.mu.Unlock()
		return v
	}
	l.stats.Misses++
	l.mu.Unlock()
	return l.New()
}

// Put returns items for reuse.  The caller must not touch them again.
func (l *List[T]) Put(vs ...T) {
	l.mu.Lock()
	l.stats.Puts += len(vs)
	l.out -= len(vs)
	l.free = append(l.free, vs...)
	l.mu.Unlock()
}

// Stats reports the list's traffic and what it holds now.
func (l *List[T]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.turn()
	s := l.stats
	s.Held = len(l.free)
	for _, v := range l.free {
		s.Bytes += l.Size(v)
	}
	return s
}

// turn runs at the list's first use after compilations ended: it
// records the measured draw (the most items out at once) and keeps at
// most 3/2 of the larger of that draw and the third-largest of the last
// 64.  So a compilation run again takes nothing new, and an outlier is
// forgotten once one other compilation has ended.  A draw that ran the
// list dry leaves a reserve of 1/64 of it, and one item, because under
// concurrency the same compilation draws a few more or fewer items from
// run to run.  Caller holds l.mu.
func (l *List[T]) turn() {
	now := epoch.Load()
	if now == l.epoch {
		return
	}
	drawn := l.start - l.low + l.stats.Misses - l.misses
	if l.Spans {
		drawn = max(drawn, l.peak)
	}
	copy(l.drawn[1:], l.drawn[:])
	l.drawn[0] = drawn
	d := l.drawn
	slices.Sort(d[:])
	if n := len(l.free) - max(drawn, d[len(d)-3])*3/2; n > 0 {
		clear(l.free[copy(l.free, l.free[n:]):])
		l.free = l.free[:len(l.free)-n]
	}
	if l.stats.Misses > l.misses {
		for range drawn/64 + 1 {
			l.free = append(l.free, l.New())
		}
	}
	l.epoch, l.start, l.low, l.misses, l.peak = now, len(l.free), len(l.free), l.stats.Misses, l.out
}

// Scrub readies returned storage for reuse: it zeroes s, so a held item
// pins nothing, or scrambles it while Scribble is set.  It reports
// whether it zeroed s.
func Scrub[E any](s []E) (zeroed bool) {
	if Scribble.Load() {
		slices.Reverse(s)
		return false
	}
	clear(s)
	return true
}
