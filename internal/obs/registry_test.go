package obs_test

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"m2cc/internal/obs"
)

// TestRegistryRenderings declares one family of each kind and checks
// both renderings list them in declaration order with their values.
func TestRegistryRenderings(t *testing.T) {
	var c atomic.Int64
	var l obs.LabeledCounter
	h := obs.NewHistogram([]float64{1, 10})
	r := obs.Registry{
		obs.CounterOf("t_requests_total", "Requests.", &c),
		obs.GaugeFunc("t_ratio", "A ratio.", func() float64 { return 0.5 }),
		obs.CounterFunc("t_kept_total", "Kept elsewhere.", func() int64 { return 7 }),
		obs.LabeledOf("t_responses_total", "By code.", "code", &l),
		obs.HistogramOf("t_latency_ms", "Latency.", h),
	}
	c.Add(3)
	l.Add("500", 1)
	l.Add("200", 2)
	h.Observe(5)

	var prom strings.Builder
	r.WritePrometheus(&prom)
	want := `# HELP t_requests_total Requests.
# TYPE t_requests_total counter
t_requests_total 3
# HELP t_ratio A ratio.
# TYPE t_ratio gauge
t_ratio 0.5
# HELP t_kept_total Kept elsewhere.
# TYPE t_kept_total counter
t_kept_total 7
# HELP t_responses_total By code.
# TYPE t_responses_total counter
t_responses_total{code="200"} 2
t_responses_total{code="500"} 1
# HELP t_latency_ms Latency.
# TYPE t_latency_ms histogram
t_latency_ms_bucket{le="1"} 0
t_latency_ms_bucket{le="10"} 1
t_latency_ms_bucket{le="+Inf"} 1
t_latency_ms_sum 5
t_latency_ms_count 1
`
	if prom.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", prom.String(), want)
	}

	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	wantJS := `{"t_requests_total":3,"t_ratio":0.5,"t_kept_total":7,` +
		`"t_responses_total":{"200":2,"500":1},` +
		`"t_latency_ms":{"bounds":[1,10],"cumulative":[0,1,1],"count":1,"sum":5}}`
	if string(js) != wantJS {
		t.Fatalf("JSON:\n%s\nwant:\n%s", js, wantJS)
	}
	if js, err := json.Marshal(obs.Registry(nil)); err != nil || string(js) != "{}" {
		t.Fatalf("empty registry JSON = %s (%v), want {}", js, err)
	}
}
