package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..1000 ms
	}
	sum := summarize(samples)
	if sum.P50 != 500 || sum.P90 != 900 || sum.P99 != 990 || sum.P999 != 999 || sum.Max != 1000 {
		t.Fatalf("percentiles off: %+v", sum)
	}
	if sum.Mean != 500.5 {
		t.Fatalf("mean = %v, want 500.5", sum.Mean)
	}
	if got := summarize(nil); got != (latencySummary{}) {
		t.Fatalf("empty summary not zero: %+v", got)
	}
	one := summarize([]float64{42})
	if one.P50 != 42 || one.P999 != 42 || one.Max != 42 {
		t.Fatalf("single-sample summary off: %+v", one)
	}
}

// TestClosedLoopAgainstStub drives the closed loop at a canned server
// mixing 200s and 429s and checks the report classifies and counts
// every response.
func TestClosedLoopAgainstStub(t *testing.T) {
	var hits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%3 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded"}`))
			return
		}
		w.Write([]byte(`{"module":"Demo","ok":true}`))
	}))
	defer stub.Close()

	g := &generator{
		url:      stub.URL + "/compile",
		body:     []byte(`{}`),
		clients:  2,
		identic:  true,
		byStatus: make(map[int]int64),
		client:   stub.Client(),
	}
	g.closedLoop(30, 10*time.Second, 4)
	rep := g.report("stub", 0, 4, 100*time.Millisecond)
	if rep.Sent != 30 {
		t.Fatalf("sent = %d, want 30", rep.Sent)
	}
	if rep.OK+rep.Shed != 30 || rep.OK == 0 || rep.Shed == 0 {
		t.Fatalf("classification off: ok=%d shed=%d", rep.OK, rep.Shed)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("identical bodies reported as mismatches: %d", rep.Mismatches)
	}
	if rep.Mode != "closed" || rep.ThroughputPS <= 0 {
		t.Fatalf("report metadata off: %+v", rep)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.Max < rep.Latency.P50 {
		t.Fatalf("latency summary off: %+v", rep.Latency)
	}
}

// TestMismatchDetection feeds two different 200 bodies and expects the
// byte-identity check to flag it.
func TestMismatchDetection(t *testing.T) {
	var hits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%2 == 0 {
			w.Write([]byte(`{"ok":true,"v":1}`))
			return
		}
		w.Write([]byte(`{"ok":true,"v":2}`))
	}))
	defer stub.Close()
	g := &generator{
		url: stub.URL, body: []byte(`{}`), clients: 1, identic: true,
		byStatus: make(map[int]int64), client: stub.Client(),
	}
	g.closedLoop(10, 10*time.Second, 1)
	rep := g.report("stub", 0, 1, time.Second)
	if rep.Mismatches == 0 {
		t.Fatal("differing bodies not detected")
	}
}

// TestReportJSONSchema checks the report field names the
// smoke script greps for.
func TestReportJSONSchema(t *testing.T) {
	rep := report{ByStatus: map[string]int64{"200": 1}}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"target"`, `"mode"`, `"sent"`, `"ok"`, `"shed"`, `"throughput_rps"`,
		`"latency_ms"`, `"p50"`, `"p99"`, `"p999"`, `"by_status"`,
	} {
		if !strings.Contains(string(buf), field) {
			t.Errorf("report JSON missing %s: %s", field, buf)
		}
	}
}

func TestLoadSources(t *testing.T) {
	sources, err := loadSources("../../examples/modules")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, s := range sources {
		kinds[s.Kind]++
		if s.Name == "" || s.Text == "" {
			t.Fatalf("degenerate source %+v", s)
		}
		if strings.ContainsAny(s.Name, ".") {
			t.Fatalf("source name %q kept its extension", s.Name)
		}
	}
	if kinds["def"] == 0 || kinds["mod"] == 0 {
		t.Fatalf("expected both kinds, got %v", kinds)
	}
	if _, err := loadSources("no-such-dir"); err == nil {
		t.Fatal("missing dir accepted")
	}
}
