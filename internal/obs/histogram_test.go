package obs

import (
	"sync"
	"testing"
)

func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	// le=1 → {0.5, 1}; le=5 → +{3}; le=10 → +{7}; +Inf → +{100}.
	want := []int64{2, 3, 4, 5}
	if len(s.Cumulative) != len(want) {
		t.Fatalf("cumulative len %d, want %d", len(s.Cumulative), len(want))
	}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	if s.Sum != 111.5 {
		t.Fatalf("sum = %g, want 111.5", s.Sum)
	}
	// Monotone nondecreasing, +Inf equals count — the property the
	// Prometheus exposition (and its smoke check) relies on.
	for i := 1; i < len(s.Cumulative); i++ {
		if s.Cumulative[i] < s.Cumulative[i-1] {
			t.Fatalf("cumulative not monotone at %d: %v", i, s.Cumulative)
		}
	}
	if s.Cumulative[len(s.Cumulative)-1] != s.Count {
		t.Fatalf("+Inf bucket %d != count %d", s.Cumulative[len(s.Cumulative)-1], s.Count)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultLatencyBucketsMS)
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i % 50))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*each {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*each)
	}
}

func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot count = %d", s.Count)
	}
}
