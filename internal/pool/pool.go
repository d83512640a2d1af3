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

// List is a LIFO free list of T: New makes an item when the list is
// empty, and Size reports the bytes one holds.
type List[T any] struct {
	New  func() T
	Size func(T) int

	mu    sync.Mutex // guards: every field below
	free  []T        // least recently returned first
	stats Stats
	// The compilation being measured (len(free) when it began, the fewest
	// since, the misses before it), and the draws of the last 64.
	epoch              uint64
	start, low, misses int
	drawn              [64]int
}

// Get takes the most recently returned item, or a new one.
func (l *List[T]) Get() (v T) {
	l.mu.Lock()
	l.turn()
	l.stats.Gets++
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

// Put returns an item for reuse.  The caller must not touch it again.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.stats.Puts++
	l.free = append(l.free, v)
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
// most 3/2 of the third-largest of the last 64.  Caller holds l.mu.
func (l *List[T]) turn() {
	now := epoch.Load()
	if now == l.epoch {
		return
	}
	copy(l.drawn[1:], l.drawn[:])
	l.drawn[0] = l.start - l.low + l.stats.Misses - l.misses
	d := l.drawn
	slices.Sort(d[:])
	if n := len(l.free) - d[len(d)-3]*3/2; n > 0 {
		clear(l.free[copy(l.free, l.free[n:]):])
		l.free = l.free[:len(l.free)-n]
	}
	l.epoch, l.start, l.low, l.misses = now, len(l.free), len(l.free), l.stats.Misses
}

// Scrub readies returned storage for reuse: it zeroes s, so a held item
// pins nothing, or scrambles it while Scribble is set.
func Scrub[E any](s []E) {
	if Scribble.Load() {
		slices.Reverse(s)
		return
	}
	clear(s)
}
