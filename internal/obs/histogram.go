package obs

// Fixed-bucket histograms for the serving path (cmd/m2cd), over
// counters that never reset; a windowed view is the difference of two
// scrapes.  Observe is one update per request on a hot path, entirely
// atomic: a binary search over immutable bounds plus two atomic adds
// (and a CAS loop for the float sum); no locks, no allocation.

import (
	"math"
	"sort"
	"sync/atomic"
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
