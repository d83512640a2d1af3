package obs

// Rolling-window aggregation for the serving path (cmd/m2cd): fixed
// bucket histograms over counters that never reset, and ring-buffered
// per-second time series that age out.  Both are designed for one
// update per request on a hot serving path:
//
//   - Histogram is entirely atomic — Observe is a binary search over
//     immutable bounds plus two atomic adds (and a CAS loop for the
//     float sum); no locks, no allocation.
//   - Rolling takes one small mutex per Add.  Updates are per-request,
//     so a mutex costs nothing measurable; the win of a lock-free ring
//     would not survive its complexity.
//
// The wall clock is read here freely: internal/obs is the measuring
// layer.  The deterministic packages (internal/sim, internal/ctrace)
// stay clock-free — the notime analyzer in internal/lint enforces it.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBucketsMS are request-latency bucket upper bounds in
// milliseconds, roughly exponential from sub-millisecond cache hits to
// the daemon's default 10 s deadline.
var DefaultLatencyBucketsMS = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// DefaultDepthBuckets are admission queue-depth / occupancy bucket
// upper bounds (requests).
var DefaultDepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}

// DefaultRatioBuckets are bucket upper bounds for ratios in [0,1]
// (e.g. a request's stream-cache hit rate).
var DefaultRatioBuckets = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// Histogram is a fixed-bucket histogram safe for concurrent Observe
// with no locking.  Bucket counts are kept per-bucket (not
// cumulative); snapshots cumulate for Prometheus-style exposition.
type Histogram struct {
	bounds []float64      // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits of the running sum
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (a final +Inf bucket is implicit).  The bounds slice is
// copied; out-of-order bounds are sorted rather than rejected.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose bound >= v; sort.SearchFloat64s finds the
	// insertion point for v, which is exactly that index when bounds
	// are treated as inclusive upper edges (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time cumulative view: Cumulative[i]
// counts observations <= Bounds[i]; the final element of Cumulative
// (the +Inf bucket) equals Count.
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"`
	Count      int64     `json:"count"`
	Sum        float64   `json:"sum"`
}

// Snapshot returns the cumulative view.  Buckets are loaded one by
// one while observations continue, so a snapshot is a consistent
// cumulative series but not necessarily a point-in-time cut; Count is
// defined as the +Inf cumulative value so the two always agree.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Cumulative: make([]int64, len(h.counts)),
	}
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		s.Cumulative[i] = run
	}
	s.Count = run // the per-bucket sum IS the count at snapshot time
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// Rolling is a ring of fixed-duration slots holding a value series
// over a sliding window — the live view behind /debug/vars and the
// SSE feed.  Slots older than slots×slotDur fall off as the ring
// advances; an idle slot is reported with zero count.
type Rolling struct {
	mu      sync.Mutex // guards: ring state (ticks, counts, sums, maxes, lastTick)
	epoch   time.Time
	slotDur time.Duration
	ticks   []int64 // slot i holds data for tick ticks[i]; -1 = never used
	counts  []int64
	sums    []float64
	maxes   []float64
}

// NewRolling returns a rolling window of slots slots, each covering
// slotDur of wall time (e.g. 60 slots × 1 s = the last minute).
func NewRolling(slots int, slotDur time.Duration) *Rolling {
	if slots < 1 {
		slots = 1
	}
	if slotDur <= 0 {
		slotDur = time.Second
	}
	r := &Rolling{
		epoch:   time.Now(),
		slotDur: slotDur,
		ticks:   make([]int64, slots),
		counts:  make([]int64, slots),
		sums:    make([]float64, slots),
		maxes:   make([]float64, slots),
	}
	for i := range r.ticks {
		r.ticks[i] = -1
	}
	return r
}

// Add folds one value into the current slot.
func (r *Rolling) Add(v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.addAtLocked(int64(time.Since(r.epoch)/r.slotDur), v)
	r.mu.Unlock()
}

func (r *Rolling) addAtLocked(tick int64, v float64) {
	i := int(tick % int64(len(r.ticks)))
	if r.ticks[i] != tick {
		r.ticks[i] = tick
		r.counts[i] = 0
		r.sums[i] = 0
		r.maxes[i] = 0
	}
	r.counts[i]++
	r.sums[i] += v
	if r.counts[i] == 1 || v > r.maxes[i] {
		r.maxes[i] = v
	}
}

// RollingPoint is one slot of a window snapshot.  AgeSlots is how many
// slots before the current one the point covers (0 = the slot still
// filling).
type RollingPoint struct {
	AgeSlots int     `json:"age_slots"`
	Count    int64   `json:"count"`
	Sum      float64 `json:"sum"`
	Mean     float64 `json:"mean"`
	Max      float64 `json:"max"`
}

// RollingSnapshot is a window snapshot, points ordered oldest first.
type RollingSnapshot struct {
	SlotMS float64        `json:"slot_ms"`
	Points []RollingPoint `json:"points"`
}

// Snapshot returns the live window, oldest slot first.  Slots that
// never saw a value inside the window are included with Count 0 so
// consumers can plot gaps honestly.
func (r *Rolling) Snapshot() RollingSnapshot {
	if r == nil {
		return RollingSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := int64(time.Since(r.epoch) / r.slotDur)
	n := len(r.ticks)
	s := RollingSnapshot{SlotMS: float64(r.slotDur) / float64(time.Millisecond)}
	for age := n - 1; age >= 0; age-- {
		tick := now - int64(age)
		if tick < 0 {
			continue
		}
		p := RollingPoint{AgeSlots: age}
		if i := int(tick % int64(n)); r.ticks[i] == tick {
			p.Count = r.counts[i]
			p.Sum = r.sums[i]
			p.Max = r.maxes[i]
			if p.Count > 0 {
				p.Mean = p.Sum / float64(p.Count)
			}
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// Rate returns the window's total count divided by the covered wall
// time in seconds — e.g. requests shed per second over the window.
func (r *Rolling) Rate() float64 {
	if r == nil {
		return 0
	}
	s := r.Snapshot()
	if len(s.Points) == 0 {
		return 0
	}
	var n int64
	for _, p := range s.Points {
		n += p.Count
	}
	secs := float64(len(s.Points)) * s.SlotMS / 1000
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}
