package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"m2cc/internal/faultinject"
	"m2cc/internal/obs"
)

// chromeTrace is the subset of the trace-event schema the endpoint
// tests read; the exporter itself refuses, with a 500, a trace that
// breaks the cross-reference rules (ctrace.Trace.Validate).
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := copyAll(&buf, resp); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, []byte(buf.String())
}

func copyAll(dst *strings.Builder, resp *http.Response) (int64, error) {
	var n int64
	buf := make([]byte, 4096)
	for {
		k, err := resp.Body.Read(buf)
		dst.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestTraceLifecycleUnderLoad drives concurrent traced requests with a
// keep cap smaller than the concurrency: every response still carries
// a trace ID, every fetched trace is well-formed JSON, and the store
// settles at the cap once the burst finishes (eviction never broke an
// in-flight request — run under -race this also proves no observer was
// torn down while recording).
func TestTraceLifecycleUnderLoad(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceAll
	cfg.traceKeep = 2
	cfg.traceSample = 1
	cfg.queueDepth = 16
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "lifecycle"}
	const n = 10
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts, "/compile", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			ids[i] = resp.Header.Get("X-M2cd-Trace")
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			t.Fatalf("request %d completed without a trace ID", i)
		}
	}
	if held := s.traces.Held(); held != cfg.traceKeep {
		t.Fatalf("store holds %d traces after the burst, want the cap %d", held, cfg.traceKeep)
	}
	// The most recent summaries must be finished, and fetchable as
	// parseable trace JSON with at least one complete span.
	sums := s.traces.Summaries()
	if len(sums) != cfg.traceKeep {
		t.Fatalf("summaries = %d, want %d", len(sums), cfg.traceKeep)
	}
	for _, sum := range sums {
		if !sum.Done || sum.Status != http.StatusOK {
			t.Fatalf("retained trace not finished cleanly: %+v", sum)
		}
		resp, body := get(t, ts, "/debug/trace/"+sum.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET trace %s: status %d", sum.ID, resp.StatusCode)
		}
		var tr chromeTrace
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("trace %s is not valid JSON: %v", sum.ID, err)
		}
		spans := 0
		for _, ev := range tr.TraceEvents {
			if ev.Ph == "X" {
				spans++
			}
		}
		if spans == 0 {
			t.Fatalf("trace %s has no complete spans", sum.ID)
		}
	}
}

// TestSampledDeterministicEndToEnd pins sampling to the admission
// sequence through the HTTP surface: with 1-in-3, the 1st, 4th and 7th
// serial requests are retrievable, the rest 404.
func TestSampledDeterministicEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceSampled
	cfg.traceKeep = 16
	cfg.traceSample = 3
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "sampled"}
	var ids []string
	for i := 0; i < 7; i++ {
		resp, body := post(t, ts, "/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		ids = append(ids, resp.Header.Get("X-M2cd-Trace"))
	}
	for i, id := range ids {
		resp, _ := get(t, ts, "/debug/trace/"+id)
		wantTraced := i%3 == 0 // admissions 1, 4, 7 (0-based 0, 3, 6)
		if wantTraced && resp.StatusCode != http.StatusOK {
			t.Fatalf("admission %d should be sampled; GET %s = %d", i+1, id, resp.StatusCode)
		}
		if !wantTraced && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("admission %d should not be sampled; GET %s = %d", i+1, id, resp.StatusCode)
		}
	}
}

// TestClientChosenTraceID round-trips an X-M2cd-Trace request header
// into the store and back out through /debug/trace.
func TestClientChosenTraceID(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceAll
	cfg.traceKeep = 4
	cfg.traceSample = 1
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	buf, _ := json.Marshal(compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "chosen"})
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(string(buf)))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-M2cd-Trace", "my-run.42")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-M2cd-Trace"); got != "my-run.42" {
		t.Fatalf("clean client trace ID not echoed: %q", got)
	}
	if tr, _ := get(t, ts, "/debug/trace/my-run.42"); tr.StatusCode != http.StatusOK {
		t.Fatalf("client-chosen ID not retrievable: %d", tr.StatusCode)
	}
}

// TestTraceProfileBlameSums fetches a sampled request's blame report
// and pins the PR 4 invariant through the endpoint: per-event blame
// sums to the request's total measured blocked time.
func TestTraceProfileBlameSums(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceAll
	cfg.traceKeep = 4
	cfg.traceSample = 1
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, body := post(t, ts, "/compile", compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "blame"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-M2cd-Trace")

	presp, pbody := get(t, ts, "/debug/trace/"+id+"/profile?format=json")
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d: %s", presp.StatusCode, pbody)
	}
	var prof struct {
		TotalBlockedMs float64 `json:"total_blocked_ms"`
		Events         []struct {
			BlockedMs float64 `json:"blocked_ms"`
			QueueMs   float64 `json:"queue_ms"`
		} `json:"events"`
	}
	if err := json.Unmarshal(pbody, &prof); err != nil {
		t.Fatalf("profile JSON: %v\n%s", err, pbody)
	}
	// Each wait edge splits at its event's fire: dependency stall
	// (blocked) before, queue delay after.  The PR 4 invariant is over
	// the sum of both shares.
	var blamed float64
	for _, e := range prof.Events {
		blamed += e.BlockedMs + e.QueueMs
	}
	// Blame rows are rounded to µs precision independently; allow that
	// much slack per rounded field.
	tol := 0.002*float64(len(prof.Events)) + 0.001
	if diff := blamed - prof.TotalBlockedMs; diff > tol || diff < -tol {
		t.Fatalf("blame sums to %.3f ms, total blocked %.3f ms (tol %.3f)",
			blamed, prof.TotalBlockedMs, tol)
	}

	// The text rendering serves too.
	tresp, tbody := get(t, ts, "/debug/trace/"+id+"/profile")
	if tresp.StatusCode != http.StatusOK || len(tbody) == 0 {
		t.Fatalf("text profile: status %d, %d bytes", tresp.StatusCode, len(tbody))
	}
}

// TestCanceledTraceWellFormed cancels a traced request via its
// deadline and checks the trace is finished, marked 503, and still
// parses — a canceled request must not leave a pinned, half-open
// entry behind.
func TestCanceledTraceWellFormed(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceAll
	cfg.traceKeep = 4
	cfg.traceSample = 1
	cfg.plan = faultinject.New().Arm(faultinject.SlowRequest, 1)
	cfg.slowDelay = 300 * time.Millisecond
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "cancel", DeadlineMS: 50}
	resp, body := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-M2cd-Trace")
	if id == "" {
		t.Fatal("canceled request has no trace ID")
	}
	var sum obs.TraceSummary
	for _, c := range s.traces.Summaries() {
		if c.ID == id {
			sum = c
		}
	}
	if !sum.Done || sum.Status != http.StatusServiceUnavailable {
		t.Fatalf("canceled trace not finished as 503: %+v", sum)
	}
	tresp, tbody := get(t, ts, "/debug/trace/"+id)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("canceled trace not retrievable: %d: %s", tresp.StatusCode, tbody)
	}
	var tr chromeTrace
	if err := json.Unmarshal(tbody, &tr); err != nil {
		t.Fatalf("canceled trace is not valid JSON: %v", err)
	}
}

// TestPanickedTraceFinished crashes a traced handler and checks the
// instrumented middleware still finished the entry as a 500 — a panic
// must not pin the trace (and its observer) in the LRU ring forever.
func TestPanickedTraceFinished(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceAll
	cfg.traceKeep = 4
	cfg.traceSample = 1
	cfg.plan = faultinject.New().Arm(faultinject.PanicHandler, 1)
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, _ := post(t, ts, "/compile", compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "boom"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	id := resp.Header.Get("X-M2cd-Trace")
	if id == "" {
		t.Fatal("panicked request has no trace ID")
	}
	for _, sum := range s.traces.Summaries() {
		if sum.ID == id {
			if !sum.Done || sum.Status != http.StatusInternalServerError {
				t.Fatalf("panicked trace not finished as 500: %+v", sum)
			}
			tresp, tbody := get(t, ts, "/debug/trace/"+id)
			if tresp.StatusCode != http.StatusOK {
				t.Fatalf("panicked trace not retrievable: %d: %s", tresp.StatusCode, tbody)
			}
			var tr chromeTrace
			if err := json.Unmarshal(tbody, &tr); err != nil {
				t.Fatalf("panicked trace is not valid JSON: %v", err)
			}
			return
		}
	}
	t.Fatalf("panicked trace %s missing from the store", id)
}

// TestBodyIdenticalTracingOnOff pins the acceptance criterion: for
// every DKY strategy, the 200 body is byte-identical whether the
// daemon traces the request or not.
func TestBodyIdenticalTracingOnOff(t *testing.T) {
	for _, strategy := range []string{"avoidance", "pessimistic", "skeptical", "optimistic"} {
		t.Run(strategy, func(t *testing.T) {
			bodies := make([][]byte, 2)
			for i, mode := range []obs.TraceMode{obs.TraceOff, obs.TraceAll} {
				cfg := testConfig()
				cfg.traceMode = mode
				cfg.traceKeep = 4
				cfg.traceSample = 1
				s := newServer(cfg)
				ts := httptest.NewServer(s.handler())
				req := compileRequest{
					Module: "Demo", Sources: exampleSources(t),
					Client: "identical", Strategy: strategy,
				}
				resp, body := post(t, ts, "/compile", req)
				ts.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("mode %v: status %d: %s", mode, resp.StatusCode, body)
				}
				bodies[i] = body
			}
			if string(bodies[0]) != string(bodies[1]) {
				t.Fatalf("200 body differs between trace=off and trace=all:\n%s\n----\n%s",
					bodies[0], bodies[1])
			}
		})
	}
}

// TestPrometheusExposition is the golden test for the text format: the
// family set and order are pinned exactly, histogram buckets must be
// monotone with le="+Inf" equal to the count, and the counters must
// reflect the one request served.
func TestPrometheusExposition(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceSampled
	cfg.traceKeep = 4
	cfg.traceSample = 1
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if resp, body := post(t, ts, "/compile", compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "prom"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, body)
	}
	resp, body := get(t, ts, "/metrics?format=prometheus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not the text exposition format", ct)
	}
	text := string(body)

	// Golden family list, in exposition order.
	wantFamilies := []string{
		"m2cd_uptime_seconds gauge",
		"m2cd_draining gauge",
		"m2cd_waiting gauge",
		"m2cd_inflight gauge",
		"m2cd_service_ewma_ms gauge",
		"m2cd_admitted_total counter",
		"m2cd_completed_total counter",
		"m2cd_shed_queue_full_total counter",
		"m2cd_rate_limited_total counter",
		"m2cd_rejected_draining_total counter",
		"m2cd_deadline_canceled_total counter",
		"m2cd_handler_panics_total counter",
		"m2cd_compile_faults_total counter",
		"m2cd_sequential_served_total counter",
		"m2cd_breaker_opens_total counter",
		"m2cd_responses_total counter",
		"m2cd_lint_findings_total counter",
		"m2cd_iface_cache_hits_total counter",
		"m2cd_iface_cache_misses_total counter",
		"m2cd_iface_cache_waits_total counter",
		"m2cd_iface_cache_bypasses_total counter",
		"m2cd_iface_cache_abandoned_total counter",
		"m2cd_iface_cache_evictions_total counter",
		"m2cd_stream_cache_hits_total counter",
		"m2cd_stream_cache_misses_total counter",
		"m2cd_stream_cache_evictions_total counter",
		"m2cd_stream_cache_entries gauge",
		"m2cd_traces_held gauge",
		"m2cd_trace_admitted_total counter",
		"m2cd_request_duration_ms histogram",
		"m2cd_queue_depth histogram",
		"m2cd_worker_occupancy histogram",
		"m2cd_stream_hit_ratio histogram",
	}
	var gotFamilies []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			gotFamilies = append(gotFamilies, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	if fmt.Sprint(gotFamilies) != fmt.Sprint(wantFamilies) {
		t.Fatalf("family set/order drifted:\ngot  %v\nwant %v", gotFamilies, wantFamilies)
	}

	for _, want := range []string{
		"m2cd_admitted_total 1",
		"m2cd_completed_total 1",
		`m2cd_responses_total{code="200"} 1`,
		"m2cd_trace_admitted_total 1",
		"m2cd_traces_held 1",
		"m2cd_request_duration_ms_count 1",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}

	checkHistogram(t, text, "m2cd_request_duration_ms")
	checkHistogram(t, text, "m2cd_queue_depth")
	checkHistogram(t, text, "m2cd_worker_occupancy")
	checkHistogram(t, text, "m2cd_stream_hit_ratio")
}

// checkHistogram asserts bucket monotonicity and the +Inf == _count
// identity for one family in the exposition text.
func checkHistogram(t *testing.T, text, name string) {
	t.Helper()
	bucketRe := regexp.MustCompile(`^` + name + `_bucket\{le="([^"]+)"\} (\d+)$`)
	var last int64 = -1
	var inf int64 = -1
	buckets := 0
	for _, line := range strings.Split(text, "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				t.Fatalf("%s: bad bucket value %q", name, m[2])
			}
			if v < last {
				t.Fatalf("%s: bucket le=%s count %d below previous %d (not cumulative)", name, m[1], v, last)
			}
			last = v
			buckets++
			if m[1] == "+Inf" {
				inf = v
			}
		}
		if strings.HasPrefix(line, name+"_count ") {
			count, _ := strconv.ParseInt(strings.TrimPrefix(line, name+"_count "), 10, 64)
			if inf != count {
				t.Fatalf("%s: le=\"+Inf\" bucket %d != count %d", name, inf, count)
			}
		}
	}
	if buckets < 2 || inf < 0 {
		t.Fatalf("%s: exposition incomplete (%d buckets, inf=%d)", name, buckets, inf)
	}
}

// scrape decodes the /metrics JSON rendering into v.
func scrape(t *testing.T, ts *httptest.Server, v any) {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
}

// TestEveryFamilyRendered walks the daemon's registry: each declared
// family appears exactly once in the Prometheus text (as its TYPE
// line) and once as a key of the /metrics JSON, and neither rendering
// has a family the registry does not declare.
func TestEveryFamilyRendered(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	post(t, ts, "/compile", compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "walk"})

	_, prom := get(t, ts, "/metrics?format=prometheus")
	_, body := get(t, ts, "/metrics")
	keys := map[string]int{}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("metrics JSON is not an object: %v %v", tok, err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("metrics JSON: %v", err)
		}
		keys[tok.(string)]++
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("metrics JSON value of %v: %v", tok, err)
		}
	}
	for _, f := range s.reg {
		if n := strings.Count(string(prom), "\n# TYPE "+f.Name+" "+f.Kind+"\n"); n != 1 {
			t.Errorf("%s: %d TYPE lines in the exposition, want 1", f.Name, n)
		}
		if keys[f.Name] != 1 {
			t.Errorf("%s: %d keys in the JSON, want 1", f.Name, keys[f.Name])
		}
	}
	if n := strings.Count(string(prom), "# TYPE "); n != len(s.reg) || len(keys) != len(s.reg) {
		t.Fatalf("renderings hold %d TYPE lines and %d JSON keys, registry declares %d families", n, len(keys), len(s.reg))
	}
}

// TestRateLimit exhausts one client's token bucket and checks the 429
// carries Retry-After, counters move, and other clients are untouched.
func TestRateLimit(t *testing.T) {
	cfg := testConfig()
	cfg.rateLimit = 0.001 // no refill within the test
	cfg.rateBurst = 2
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "greedy"}
	for i := 0; i < 2; i++ {
		if resp, body := post(t, ts, "/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limit 429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterMS <= 0 {
		t.Fatalf("429 body lacks retry_after_ms: %s", body)
	}

	// An unrelated client still gets through.
	other := req
	other.Client = "patient"
	if resp, body := post(t, ts, "/compile", other); resp.StatusCode != http.StatusOK {
		t.Fatalf("other client: status %d: %s", resp.StatusCode, body)
	}

	if n := s.rateLimited.Load(); n != 1 {
		t.Fatalf("m2cd_rate_limited_total = %d, want 1", n)
	}
}

func TestLimiterRefill(t *testing.T) {
	l := newLimiterSet(10, 1) // 10 tokens/sec, burst 1
	base := time.Unix(1000, 0)
	if ok, _ := l.allow("c", base); !ok {
		t.Fatal("first request must pass on a full bucket")
	}
	ok, retry := l.allow("c", base)
	if ok {
		t.Fatal("empty bucket allowed a request")
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Fatalf("retry = %v, want ~100ms", retry)
	}
	if ok, _ := l.allow("c", base.Add(150*time.Millisecond)); !ok {
		t.Fatal("bucket did not refill after the advertised wait")
	}
	var nilSet *limiterSet
	if ok, _ := nilSet.allow("c", base); !ok {
		t.Fatal("nil limiter must be a no-op allow")
	}
}

// TestRequestLog checks that each structured log line joins status,
// client, trace ID, serving path and stream tally, and that these equal
// the response's X-M2cd-* headers and the request's /debug/trace row:
// for a faulted concurrent request that fell back, the breaker-routed
// sequential request after it, and another client's concurrent one.
func TestRequestLog(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceAll
	cfg.traceKeep = 4
	cfg.traceSample = 1
	cfg.breakerTrips = 1
	cfg.plan = faultinject.New().Arm(faultinject.PanicLookup, 1)
	s := newServer(cfg)
	var logBuf syncBuffer
	s.logw = &logBuf
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	var resps []*http.Response
	for _, client := range []string{"brk", "brk", "logged"} {
		resp, body := post(t, ts, "/compile", compileRequest{Module: "Demo", Sources: exampleSources(t), Client: client})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", client, resp.StatusCode, body)
		}
		resps = append(resps, resp)
	}
	_, body := get(t, ts, "/debug/trace")
	var index struct {
		Mode     string
		Admitted uint64
		Traces   []obs.TraceSummary
	}
	if err := json.Unmarshal(body, &index); err != nil || index.Mode != "all" || index.Admitted != 3 {
		t.Fatalf("trace index: %v\n%s", err, body)
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != len(resps) {
		t.Fatalf("%d log lines for %d requests:\n%s", len(lines), len(resps), logBuf.String())
	}
	for i, resp := range resps {
		var entry requestLog
		if err := json.Unmarshal([]byte(lines[i]), &entry); err != nil {
			t.Fatalf("log line is not JSON: %v (%q)", err, lines[i])
		}
		hdr := func(key string) int {
			n, _ := strconv.Atoi(resp.Header.Get(key))
			return n
		}
		if entry.Status != http.StatusOK || entry.Path != "/compile" || entry.DurMS <= 0 ||
			entry.Trace == "" || entry.Trace != resp.Header.Get("X-M2cd-Trace") ||
			entry.Serve != resp.Header.Get("X-M2cd-Path") || entry.Streams != hdr("X-M2cd-Streams") ||
			entry.Hits != hdr("X-M2cd-Stream-Hits") || entry.Misses != hdr("X-M2cd-Stream-Misses") ||
			entry.Fellback != (resp.Header.Get("X-M2cd-Fellback") == "1") {
			t.Fatalf("request %d: log entry %+v does not match the response headers %v", i, entry, resp.Header)
		}
		var row obs.TraceSummary
		for _, r := range index.Traces {
			if r.ID == entry.Trace {
				row = r
			}
		}
		if !row.Done || row.Client != entry.Client || row.Endpoint != entry.Path || row.Path != entry.Serve ||
			row.Status != entry.Status || row.DurMS != entry.DurMS {
			t.Fatalf("request %d: trace row %+v does not match the log entry %+v", i, row, entry)
		}
	}
	if got := resps[0].Header.Get("X-M2cd-Fellback") + " " + resps[1].Header.Get("X-M2cd-Path") + " " +
		resps[2].Header.Get("X-M2cd-Path"); got != "1 sequential concurrent" {
		t.Fatalf("serving paths %q, want a fallback, a sequential request and a concurrent one", got)
	}
	if h := resps[2].Header; h.Get("X-M2cd-Streams") == "" || h.Get("X-M2cd-Stream-Hits") == "" {
		t.Fatalf("concurrent response lacks its stream headers: %v", h)
	}
}

// TestReusedTraceIDFinishesOwnEntry: when a newer request reuses a
// client-chosen trace ID, the older request finishes its own
// superseded entry, and the newer request's entry stays in flight,
// pinned, until the newer request finishes it.  Meanwhile m2cd_inflight
// counts the held slots.
func TestReusedTraceIDFinishesOwnEntry(t *testing.T) {
	cfg := testConfig()
	cfg.traceMode = obs.TraceAll
	cfg.traceKeep = 4
	cfg.traceSample = 1
	plan := faultinject.New().Arm(faultinject.SlowRequest, 1).Arm(faultinject.StallLeader, 1)
	cfg.plan = plan
	cfg.slowDelay = 300 * time.Millisecond
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer plan.Release() // before Close, which waits for the stalled request

	send := func(client, module string, files ...string) <-chan int {
		done := make(chan int, 1)
		buf, _ := json.Marshal(compileRequest{Module: module, Sources: exampleFiles(t, files...), Client: client})
		go func() {
			hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(string(buf)))
			hreq.Header.Set("X-M2cd-Trace", "dup")
			resp, err := ts.Client().Do(hreq)
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		return done
	}
	row := func() obs.TraceSummary {
		for _, r := range s.traces.Summaries() {
			if r.ID == "dup" {
				return r
			}
		}
		t.Fatal("trace dup not held")
		return obs.TraceSummary{}
	}

	a := send("a", "ConcClean", "ConcClean.mod") // slowed 300 ms after admission
	time.Sleep(100 * time.Millisecond)
	b := send("b", "Demo", "Demo.mod", "Fib.def", "Fib.mod") // leads Fib's cache entry, stalls
	select {
	case <-plan.Stalled():
	case <-time.After(5 * time.Second):
		t.Fatal("the second request never stalled")
	}
	var met struct {
		Inflight float64 `json:"m2cd_inflight"`
	}
	scrape(t, ts, &met)
	if met.Inflight < 1 {
		t.Fatalf("m2cd_inflight = %g while requests hold slots, want >= 1", met.Inflight)
	}
	if code := <-a; code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	if r := row(); r.Seq != 2 || r.Done || r.Client != "" {
		t.Fatalf("the first request finished the second one's entry: %+v", r)
	}
	plan.Release()
	if code := <-b; code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if r := row(); r.Seq != 2 || !r.Done || r.Client != "b" || r.Status != http.StatusOK {
		t.Fatalf("the second request's entry not finished as its own: %+v", r)
	}
}

// syncBuffer is a mutex-guarded string buffer for capturing log lines.
type syncBuffer struct {
	mu sync.Mutex // guards: b
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
