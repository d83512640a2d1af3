package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is the one place a serving metric is declared: an ordered
// list of families, each with a name, help text and cell.  Both
// renderings iterate it in order — WritePrometheus (text exposition
// 0.0.4) and MarshalJSON (one object keyed by family name) — so a
// family declared once shows up in every export.  Build it before it
// is shared; cells may then be updated and rendered concurrently.
type Registry []Family

// Family is one declared metric; the constructors below make one per
// kind of cell.
type Family struct {
	Name  string
	Kind  string // Prometheus type: counter, gauge or histogram
	help  string
	label string // the label key of a labelled counter
	// value reads the cell: an int64, a float64, a map[string]int64
	// keyed by label value, or a HistogramSnapshot.
	value func() any
}

// CounterOf declares a counter whose cell the caller owns and
// increments.
func CounterOf(name, help string, c *atomic.Int64) Family {
	return Family{name, "counter", help, "", func() any { return c.Load() }}
}

// CounterFunc declares a counter kept elsewhere (a cache's own Stats),
// read at render time.
func CounterFunc(name, help string, read func() int64) Family {
	return Family{name, "counter", help, "", func() any { return read() }}
}

// GaugeFunc declares a gauge read at render time.
func GaugeFunc(name, help string, read func() float64) Family {
	return Family{name, "gauge", help, "", func() any { return read() }}
}

// LabeledOf declares a counter split by the values of one label.
func LabeledOf(name, help, label string, c *LabeledCounter) Family {
	return Family{name, "counter", help, label, func() any { return c.snapshot() }}
}

// HistogramOf declares a histogram.
func HistogramOf(name, help string, h *Histogram) Family {
	return Family{name, "histogram", help, "", func() any { return h.Snapshot() }}
}

// WritePrometheus renders every family in the Prometheus text format
// (version 0.0.4).  HELP and TYPE are written even for a labelled
// family with no samples yet, so the family list is stable; label
// values are sorted and histogram buckets cumulative (le="+Inf" equals
// _count by construction), so the exposition is deterministic.
func (r Registry) WritePrometheus(w io.Writer) {
	for _, f := range r {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.help, f.Name, f.Kind)
		switch v := f.value().(type) {
		case int64:
			fmt.Fprintf(w, "%s %d\n", f.Name, v)
		case float64:
			fmt.Fprintf(w, "%s %s\n", f.Name, promFloat(v))
		case map[string]int64:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", f.Name, f.label, k, v[k])
			}
		case HistogramSnapshot:
			for i, b := range v.Bounds {
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.Name, promFloat(b), v.Cumulative[i])
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				f.Name, v.Count, f.Name, promFloat(v.Sum), f.Name, v.Count)
		}
	}
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// MarshalJSON renders every family as one JSON object keyed by its
// Prometheus name, in order: counters and gauges as numbers, labelled
// counters as {label value: count}, histograms as HistogramSnapshot.
func (r Registry) MarshalJSON() ([]byte, error) {
	b := bytes.NewBufferString("{")
	for i, f := range r {
		v, err := json.Marshal(f.value())
		if err != nil {
			return nil, fmt.Errorf("obs: metric %s: %w", f.Name, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%q:%s", f.Name, v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// LabeledCounter is a counter split by the values of one label
// (responses by status code, lint findings by family).  The zero value
// is ready to use.
type LabeledCounter struct {
	mu sync.Mutex // guards: m
	m  map[string]int64
}

// Add adds n to the count for label value v.
func (c *LabeledCounter) Add(v string, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]int64{}
	}
	c.m[v] += n
	c.mu.Unlock()
}

// snapshot returns a copy of the per-value counts.
func (c *LabeledCounter) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	maps.Copy(out, c.m)
	return out
}
