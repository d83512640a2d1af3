package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m2cc"
	"m2cc/internal/faultinject"
)

// compileResponse is the /compile and /lint response schema, and the
// shape the daemon marshalled before it appended responses by hand:
// json.Marshal of it, findings indented and then trimmed, plus "\n" is
// the reference body.
type compileResponse struct {
	Module   string          `json:"module"`
	OK       bool            `json:"ok"`
	Listing  string          `json:"listing,omitempty"`
	Diags    string          `json:"diags,omitempty"`
	Findings json.RawMessage `json:"findings,omitempty"`
	Trace    json.RawMessage `json:"trace,omitempty"`
}

// loaderFrom mirrors the daemon's request-to-loader translation for
// local baseline compiles.
func loaderFrom(t *testing.T, sources []srcFile) m2cc.Loader {
	t.Helper()
	loader := m2cc.NewMapLoader()
	for _, f := range sources {
		kind := m2cc.Impl
		if f.Kind == "def" {
			kind = m2cc.Def
		}
		loader.Add(f.Name, kind, string(f.Text))
	}
	return loader
}

// mustListing compiles Demo sequentially and returns its listing.
func mustListing(t *testing.T, loader m2cc.Loader) string {
	t.Helper()
	res := m2cc.CompileSequential("Demo", loader)
	if res.Failed() {
		t.Fatalf("baseline sequential compile failed:\n%s", res.Diags)
	}
	return res.Object.Listing()
}

// exampleSources builds a compile request's sources from the repo's
// examples/modules tree (Demo imports Fib).
func exampleSources(t *testing.T) []srcFile {
	t.Helper()
	return exampleFiles(t, "Demo.mod", "Fib.def", "Fib.mod")
}

// exampleFiles reads the named files of examples/modules as sources.
func exampleFiles(t *testing.T, names ...string) []srcFile {
	t.Helper()
	var out []srcFile
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "modules", name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, srcFile{Name: strings.TrimSuffix(filepath.Base(name), filepath.Ext(name)), Kind: filepath.Ext(name)[1:], Text: jsonText(b)})
	}
	return out
}

// testConfig returns a small, fast daemon configuration.
func testConfig() config {
	return config{
		workers:         4,
		maxInflight:     2,
		queueDepth:      2,
		defaultDeadline: 10 * time.Second,
		maxDeadline:     30 * time.Second,
		drainTimeout:    5 * time.Second,
		stallTimeout:    500 * time.Millisecond,
		breakerTrips:    3,
		breakerCooldown: time.Hour,
	}
}

// post sends req to path on ts and returns the response with its body
// fully read.
func post(t *testing.T, ts *httptest.Server, path string, req compileRequest) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

func TestCompileEndToEnd(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "e2e"}
	resp, body := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-M2cd-Path"); got != "concurrent" {
		t.Fatalf("X-M2cd-Path = %q, want concurrent", got)
	}
	var cr compileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if !cr.OK || cr.Listing == "" {
		t.Fatalf("expected clean compile with a listing, got ok=%v diags=%q", cr.OK, cr.Diags)
	}
	// The daemon's listing must match the local compiler byte for byte.
	loader := loaderFrom(t, req.Sources)
	want := mustListing(t, loader)
	if cr.Listing != want {
		t.Fatalf("daemon listing differs from local compile\ngot:\n%s\nwant:\n%s", cr.Listing, want)
	}
	// A second, cache-warm request returns the identical body, served
	// largely from the process-wide stream cache.
	resp2, body2 := post(t, ts, "/compile", req)
	if !bytes.Equal(body, body2) {
		t.Fatalf("cache-warm response differs from cold response\ncold: %s\nwarm: %s", body, body2)
	}
	if hits := resp2.Header.Get("X-M2cd-Stream-Hits"); hits == "" || hits == "0" {
		t.Fatalf("warm request reported no stream-cache hits (X-M2cd-Stream-Hits=%q)", hits)
	}
	var met struct {
		Hits    int64   `json:"m2cd_stream_cache_hits_total"`
		Entries float64 `json:"m2cd_stream_cache_entries"`
	}
	scrape(t, ts, &met)
	if met.Hits == 0 || met.Entries == 0 {
		t.Fatalf("warm stream-cache traffic missing from /metrics: %+v", met)
	}
}

func TestLintEndpoint(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "lint"}
	resp, body := post(t, ts, "/lint", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr compileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if cr.Findings == nil {
		t.Fatal("lint response missing findings")
	}
	if cr.Listing != "" {
		t.Fatal("lint response must not carry a listing")
	}
}

// TestLintFindingsTelemetry: a findings-bearing lint request reports
// per-family counts in the X-M2cd-Findings header and accumulates them
// into the m2cd_lint_findings_total family of both renderings.
func TestLintFindingsTelemetry(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "modules", "ConcFindings.mod"))
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	req := compileRequest{
		Module:  "ConcFindings",
		Sources: []srcFile{{Name: "ConcFindings", Kind: "mod", Text: jsonText(b)}},
		Client:  "lint-telemetry",
	}
	resp, body := post(t, ts, "/lint", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	const wantHdr = "conc-deadlock=1,conc-double-lock=1,conc-guard=2"
	if got := resp.Header.Get("X-M2cd-Findings"); got != wantHdr {
		t.Fatalf("X-M2cd-Findings = %q, want %q", got, wantHdr)
	}

	var met struct {
		LintFindings map[string]int64 `json:"m2cd_lint_findings_total"`
	}
	scrape(t, ts, &met)
	if met.LintFindings["conc-guard"] != 2 || met.LintFindings["conc-deadlock"] != 1 || met.LintFindings["conc-double-lock"] != 1 {
		t.Fatalf("m2cd_lint_findings_total = %v", met.LintFindings)
	}

	_, prom := get(t, ts, "/metrics?format=prometheus")
	if !strings.Contains(string(prom), `m2cd_lint_findings_total{family="conc-guard"} 2`) {
		t.Fatalf("prometheus exposition missing conc-guard counter:\n%s", prom)
	}
}

func TestBadRequests(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  compileRequest
	}{
		{"no module", compileRequest{Sources: exampleSources(t)}},
		{"no sources", compileRequest{Module: "Demo"}},
		{"bad kind", compileRequest{Module: "Demo", Sources: []srcFile{{Name: "Demo", Kind: "imp", Text: "x"}}}},
		{"bad strategy", compileRequest{Module: "Demo", Sources: exampleSources(t), Strategy: "psychic"}},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, "/compile", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: malformed error body %s", tc.name, body)
		}
	}
	// Raw bodies: bytes after the request object answer 400
	// (json.Unmarshal's rule), a body over the cap answers 413 with the
	// reader's diagnostic, and a decode error is the first bad field's,
	// as encoding/json reports it for plain string fields: a text's type
	// error neither pre-empts an earlier field's nor yields to a later one.
	for _, tc := range []struct {
		name, body string
		status     int
		msg        string
	}{
		{"trailing data", `{"module":"Demo","sources":[{"name":"Demo","kind":"mod","text":"x"}]} {}`,
			http.StatusBadRequest, "bad request: invalid character '{' after top-level value"},
		{"over the cap", `{"module":"` + strings.Repeat("M", maxBody) + `"}`,
			http.StatusRequestEntityTooLarge, "bad request: http: request body too large"},
		{"module before text", `{"module":5,"sources":[{"name":"D","kind":"mod","text":5}]}`, http.StatusBadRequest,
			"bad request: json: cannot unmarshal number into Go struct field compileRequest.module of type string"},
		{"text before module", `{"sources":[{"name":"D","kind":"mod","text":[]}],"module":5}`, http.StatusBadRequest,
			"bad request: json: cannot unmarshal array into Go struct field srcFile.sources.text of type string"},
	} {
		rec := httptest.NewRecorder()
		s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(tc.body)))
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != tc.status || err != nil || er.Error != tc.msg {
			t.Errorf("%s: status %d, want %d with %q: %s", tc.name, rec.Code, tc.status, tc.msg, rec.Body)
		}
	}
	// A source text answers as it did when encoding/json decoded it, body
	// for body: a non-string is a 400 naming the field, null is an empty
	// text, a bad escape or a cut literal is a syntax error, and a lone
	// surrogate or an invalid UTF-8 byte decodes as U+FFFD.
	const fffd = `{"module":"Demo","ok":true,"listing":"OBJECT Demo\nAREA Demo.mod 0\nBODY Demo..body (level=0 args=0 frame=0 ret=false)\n    0  PUSHS     \"�\"\n    1  WRTEXT\n    2  RETP\n"}` + "\n"
	for _, tc := range []struct {
		name, text string
		status     int
		body       string
	}{
		{"text a number", `5`, http.StatusBadRequest,
			`{"error":"bad request: json: cannot unmarshal number into Go struct field srcFile.sources.text of type string"}` + "\n"},
		{"text an object", `{"a":1}`, http.StatusBadRequest,
			`{"error":"bad request: json: cannot unmarshal object into Go struct field srcFile.sources.text of type string"}` + "\n"},
		{"text null", `null`, http.StatusOK,
			`{"module":"Demo","ok":false,"diags":"Demo.mod:1:1: error: expected ., found end of file\nDemo.mod:1:1: error: expected ;, found end of file\nDemo.mod:1:1: error: expected DEFINITION, IMPLEMENTATION or MODULE, found end of file\nDemo.mod:1:1: error: expected END, found end of file\nDemo.mod:1:1: error: expected identifier, found end of file\nDemo.mod:1:1: error: module name ? does not match file Demo.mod\n"}` + "\n"},
		{"text an invalid escape", `"MODULE Demo;\qEND Demo."`, http.StatusBadRequest,
			`{"error":"bad request: invalid character 'q' in string escape code"}` + "\n"},
		{"text a lone surrogate", `"MODULE Demo;\nBEGIN\n  WriteString('\ud800')\nEND Demo.\n"`, http.StatusOK, fffd},
		{"text invalid UTF-8", "\"MODULE Demo;\\nBEGIN\\n  WriteString('\xff')\\nEND Demo.\\n\"", http.StatusOK, fffd},
		{"text truncated", `"MODULE Demo;`, http.StatusBadRequest,
			`{"error":"bad request: unexpected end of JSON input"}` + "\n"},
	} {
		body := `{"module":"Demo","sources":[{"name":"Demo","kind":"mod","text":` + tc.text
		if tc.name != "text truncated" {
			body += "}]}"
		}
		rec := httptest.NewRecorder()
		s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(body)))
		if rec.Code != tc.status || rec.Body.String() != tc.body {
			t.Errorf("%s: status %d, want %d\n got: %q\nwant: %q", tc.name, rec.Code, tc.status, rec.Body, tc.body)
		}
	}
	// A negative deadline is rejected outright, not silently treated as
	// "no deadline" — the client asked for a bound the daemon cannot
	// honor.
	neg := compileRequest{Module: "Demo", Sources: exampleSources(t), DeadlineMS: -1}
	resp0, body0 := post(t, ts, "/compile", neg)
	if resp0.StatusCode != http.StatusBadRequest {
		t.Fatalf("deadline_ms=-1: status %d, want 400 (%s)", resp0.StatusCode, body0)
	}
	var er0 errorResponse
	if err := json.Unmarshal(body0, &er0); err != nil || !strings.Contains(er0.Error, "deadline_ms must not be negative") {
		t.Fatalf("deadline_ms=-1: unclear error body %s", body0)
	}
	// Non-POST methods are rejected.
	resp, err := ts.Client().Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status %d, want 405", resp.StatusCode)
	}
}

// TestDeeplyNestedRequestIsServed: a request nested past the parser's
// bound gets the ordinary compile-error answer on /compile and /lint
// (200, ok false, the positioned diagnostic), and the next request is
// served.  Nested deep enough, such a request used to overflow the
// stack and take the daemon down with every request in flight.
func TestDeeplyNestedRequestIsServed(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	text := "MODULE Deep;\nVAR x: INTEGER;\nBEGIN\n  x := " + strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000) + "\nEND Deep.\n"
	deep := compileRequest{Module: "Deep", Sources: []srcFile{{Name: "Deep", Kind: "mod", Text: jsonText(text)}}, Client: "deep"}
	for _, path := range []string{"/compile", "/lint"} {
		resp, body := post(t, ts, path, deep)
		var cr compileResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &cr) != nil || cr.OK ||
			!strings.Contains(cr.Diags, "Deep.mod:4:1007: error: nesting deeper than 1000 levels") {
			t.Fatalf("%s: status %d, want 200 with the nesting diagnostic: %.500s", path, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts, "/compile", compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "next"})
	var cr compileResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &cr) != nil || !cr.OK || cr.Listing == "" {
		t.Fatalf("next request: status %d, want a clean compile: %.500s", resp.StatusCode, body)
	}
}

// TestShedQueueFull wedges the single admission slot with an injected
// slow request and verifies the next request is shed with 429 and a
// Retry-After hint instead of queueing.
func TestShedQueueFull(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.queueDepth = 0
	cfg.plan = faultinject.New().Arm(faultinject.SlowRequest, 1)
	cfg.slowDelay = 2 * time.Second
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "shed"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := post(t, ts, "/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slow request: status %d, want 200", resp.StatusCode)
		}
	}()
	// Wait for the slow request to hold the only slot.
	for i := 0; s.waiting.Load() == 0; i++ {
		if i > 2000 {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let it pass the capacity check into the slot

	resp, body := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterMS <= 0 {
		t.Fatalf("malformed shed body: %s", body)
	}
	<-done
	if n := s.shedQueueFull.Load(); n != 1 {
		t.Fatalf("m2cd_shed_queue_full_total = %d, want 1", n)
	}
}

// TestDeadlineExceeded injects service latency past the request's
// deadline: the daemon must answer 503 promptly, having canceled the
// compilation rather than completing it late.
func TestDeadlineExceeded(t *testing.T) {
	cfg := testConfig()
	cfg.plan = faultinject.New().Arm(faultinject.SlowRequest, 1)
	cfg.slowDelay = time.Second
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), DeadlineMS: 50, Client: "dl"}
	began := time.Now()
	resp, body := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(began); elapsed > 800*time.Millisecond {
		t.Fatalf("deadline response took %v; the injected delay was not cut short", elapsed)
	}
	if n := s.deadlineCanceled.Load(); n != 1 {
		t.Fatalf("m2cd_deadline_canceled_total = %d, want 1", n)
	}
	// The daemon is unharmed: the same request without a deadline
	// completes cleanly.
	req.DeadlineMS = 0
	resp, _ = post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d, want 200", resp.StatusCode)
	}
}

// TestPanicHandlerRecovery arms the PanicHandler point: the crashed
// handler must yield a well-formed 500 and release its admission slot.
func TestPanicHandlerRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.plan = faultinject.New().Arm(faultinject.PanicHandler, 1)
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "panic"}
	resp, body := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "panic") {
		t.Fatalf("malformed panic body: %s", body)
	}
	// The slot was released by the unwinding defer: with maxInflight=1
	// a leaked slot would wedge this follow-up forever.
	resp, _ = post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status %d, want 200 (admission slot leaked?)", resp.StatusCode)
	}
	if n := s.handlerPanics.Load(); n != 1 {
		t.Fatalf("m2cd_handler_panics_total = %d, want 1", n)
	}
}

// TestBreakerRoutesSequential faults one client's compile and checks
// the breaker re-routes the client to the sequential compiler with a
// byte-identical response body, and that the re-routed compile leaves
// the shared interface cache untouched, as the fault fallback does.
func TestBreakerRoutesSequential(t *testing.T) {
	cfg := testConfig()
	cfg.breakerTrips = 1
	cfg.plan = faultinject.New().Arm(faultinject.PanicLookup, 1)
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "brk"}
	resp, body1 := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted request: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-M2cd-Fellback") != "1" {
		t.Fatal("faulted compile should report the sequential fallback")
	}
	before := s.cache.Stats()
	resp, body2 := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("breaker-open request: status %d", resp.StatusCode)
	}
	if after := s.cache.Stats(); after != before {
		t.Fatalf("breaker-routed compile touched the interface cache: %+v before, %+v after", before, after)
	}
	if got := resp.Header.Get("X-M2cd-Path"); got != "sequential" {
		t.Fatalf("X-M2cd-Path = %q, want sequential (breaker open)", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("sequential body differs from concurrent body\n%s\nvs\n%s", body1, body2)
	}
	// Another client is unaffected.
	other := req
	other.Client = "other"
	resp, _ = post(t, ts, "/compile", other)
	if got := resp.Header.Get("X-M2cd-Path"); got != "concurrent" {
		t.Fatalf("other client's path = %q, want concurrent", got)
	}
	// The one armed PanicLookup faulted exactly one compilation.
	if opens, seq, faults := s.breakerOpens.Load(), s.sequentialServed.Load(), s.compileFaults.Load(); opens != 1 || seq != 1 || faults != 1 {
		t.Fatalf("breaker counters: opens=%d seq=%d faults=%d, want 1/1/1", opens, seq, faults)
	}
}

// TestBreakerSequentialBoundsStall: a breaker-tripped client is served
// by the sequential compiler without the shared interface cache, so a
// wedged leader of an interface it imports does not hold it at all: it
// gets a 200 well inside the stall timeout, and no cache wait is
// abandoned.
func TestBreakerSequentialBoundsStall(t *testing.T) {
	cfg := testConfig()
	cfg.breakerTrips = 1
	cfg.stallTimeout = 3 * time.Second
	plan := faultinject.New().Arm(faultinject.PanicLookup, 1)
	cfg.plan = plan
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer plan.Release() // before Close, which waits for the wedged request

	trip := compileRequest{Module: "ConcClean", Sources: exampleFiles(t, "ConcClean.mod"), Client: "brk"}
	if resp, _ := post(t, ts, "/compile", trip); resp.Header.Get("X-M2cd-Fellback") != "1" {
		t.Fatal("the faulted compile did not fall back, so the breaker is closed")
	}

	// Another client's compilation leads Fib's entry and wedges before
	// it publishes.
	plan.Arm(faultinject.StallLeader, plan.Count(faultinject.StallLeader)+1)
	demo := compileRequest{Module: "Demo", Sources: exampleFiles(t, "Demo.mod", "Fib.def", "Fib.mod"), Client: "lead"}
	buf, _ := json.Marshal(demo)
	go func() {
		if resp, err := ts.Client().Post(ts.URL+"/compile", "application/json", bytes.NewReader(buf)); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-plan.Stalled():
	case <-time.After(5 * time.Second):
		t.Fatal("the leading request never stalled")
	}

	demo.Client = "brk"
	type answer struct {
		path string
		code int
	}
	done := make(chan answer, 1)
	start := time.Now()
	go func() {
		buf, _ := json.Marshal(demo)
		resp, err := ts.Client().Post(ts.URL+"/compile", "application/json", bytes.NewReader(buf))
		if err != nil {
			done <- answer{}
			return
		}
		resp.Body.Close()
		done <- answer{resp.Header.Get("X-M2cd-Path"), resp.StatusCode}
	}()
	select {
	case a := <-done:
		if a.code != http.StatusOK || a.path != "sequential" {
			t.Fatalf("breaker-tripped request: status %d on path %q, want 200 on sequential", a.code, a.path)
		}
	case <-time.After(cfg.stallTimeout):
		t.Fatalf("breaker-tripped request still waiting on the wedged leader after the %v stall timeout", cfg.stallTimeout)
	}
	t.Logf("answered in %v against a %v stall timeout", time.Since(start), cfg.stallTimeout)
	if n := s.cache.Stats().Abandoned; n != 0 {
		t.Fatalf("%d abandoned cache waits, want 0", n)
	}
}

// TestBreakerHalfOpenRecovers verifies a cooled-down breaker lets a
// clean probe close it again.
func TestBreakerHalfOpenRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.breakerTrips = 1
	cfg.breakerCooldown = time.Millisecond
	cfg.plan = faultinject.New().Arm(faultinject.PanicLookup, 1)
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "half"}
	post(t, ts, "/compile", req) // faults; breaker opens
	time.Sleep(5 * time.Millisecond)
	resp, _ := post(t, ts, "/compile", req) // half-open probe, clean
	if got := resp.Header.Get("X-M2cd-Path"); got != "concurrent" {
		t.Fatalf("post-cooldown path = %q, want concurrent probe", got)
	}
	resp, _ = post(t, ts, "/compile", req)
	if got := resp.Header.Get("X-M2cd-Path"); got != "concurrent" {
		t.Fatalf("post-probe path = %q, want concurrent (breaker closed)", got)
	}
}

// TestDrainFlow checks the drain state machine: healthz stays 200 but
// reports draining, readyz flips to 503, and admission answers 503.
func TestDrainFlow(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz before drain: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("readyz before drain: %d %q", code, body)
	}

	s.startDrain()
	s.startDrain() // idempotent

	if code, body := get("/healthz"); code != 200 || body != "draining\n" {
		t.Fatalf("healthz during drain: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("readyz during drain: %d %q", code, body)
	}
	resp, body := post(t, ts, "/compile", compileRequest{Module: "Demo", Sources: exampleSources(t)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compile during drain: status %d, want 503: %s", resp.StatusCode, body)
	}
	if !s.draining.Load() || s.rejectedDraining.Load() != 1 {
		t.Fatalf("drain counters: draining=%v rejected=%d", s.draining.Load(), s.rejectedDraining.Load())
	}
}

// TestChaosUnderLoad is the satellite chaos drill: overload the daemon
// (more concurrent requests than capacity) while injection points
// crash a handler, slow a request, and wound a compilation, and some
// clients send names over the 256-byte bound — and mid-run, start a
// drain.  Every response must be well-formed JSON, every over-long name
// refused with 400, every 200 body byte-identical to the fault-free
// baseline, every 429 carrying Retry-After, and zero requests dropped
// without an answer.
func TestChaosUnderLoad(t *testing.T) {
	sources := exampleSources(t)
	compileReq := compileRequest{Module: "Demo", Sources: sources}
	lintReq := compileRequest{Module: "Demo", Sources: sources}

	// Fault-free baselines, one per endpoint.
	base := newServer(testConfig())
	bts := httptest.NewServer(base.handler())
	resp, compileBase := post(t, bts, "/compile", compileReq)
	if resp.StatusCode != 200 {
		t.Fatalf("baseline compile failed: %d", resp.StatusCode)
	}
	resp, lintBase := post(t, bts, "/lint", lintReq)
	if resp.StatusCode != 200 {
		t.Fatalf("baseline lint failed: %d", resp.StatusCode)
	}
	bts.Close()

	cfg := testConfig()
	cfg.maxInflight = 2
	cfg.queueDepth = 2
	cfg.breakerTrips = 2
	cfg.slowDelay = 50 * time.Millisecond
	cfg.plan = faultinject.New().
		Arm(faultinject.PanicHandler, 3).
		Arm(faultinject.SlowRequest, 5).
		Arm(faultinject.PanicLookup, 2).
		Arm(faultinject.PanicCheck, 1)
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	const (
		preDrain  = 30 // fired before the mid-run drain
		postDrain = 10 // fired after; must all observe 503 (or 400)
		total     = preDrain + postDrain
		serial    = 3 // fired one after another first (see below)
	)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards: statuses, malformed
	statuses := map[int]int{}
	var malformed []string
	var early atomic.Int64
	record := func(f string, args ...any) {
		mu.Lock()
		malformed = append(malformed, fmt.Sprintf(f, args...))
		mu.Unlock()
	}
	fire := func(i int) {
		defer wg.Done()
		lint := i%5 == 4
		path, want := "/compile", compileBase
		req := compileReq
		if lint {
			path, want = "/lint", lintBase
			req = lintReq
		}
		req.Client = fmt.Sprintf("chaos-%d", i%3)
		longName := i >= serial && i%7 == 6
		if longName {
			req.Client = strings.Repeat("n", 257)
		}
		resp, body := post(t, ts, path, req)
		mu.Lock()
		statuses[resp.StatusCode]++
		mu.Unlock()
		if longName != (resp.StatusCode == http.StatusBadRequest) {
			record("request %d: status %d for a %d-byte client name", i, resp.StatusCode, len(req.Client))
		}
		switch resp.StatusCode {
		case http.StatusOK:
			if !bytes.Equal(body, want) {
				record("request %d (%s): 200 body differs from baseline:\n%s", i, path, body)
			}
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				record("request %d: 429 without Retry-After", i)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				record("request %d: malformed 429 body %s", i, body)
			}
		case http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusInternalServerError:
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				record("request %d: malformed %d body %s", i, resp.StatusCode, body)
			}
		default:
			record("request %d: unexpected status %d: %s", i, resp.StatusCode, body)
		}
		early.Add(1)
	}
	// The first requests are served one after another, so the admission
	// PanicHandler is armed on (the third) happens before the overload
	// wave and the drain, however the wave is scheduled.
	for i := 0; i < serial; i++ {
		wg.Add(1)
		fire(i)
	}
	for i := serial; i < preDrain; i++ {
		wg.Add(1)
		go fire(i)
	}
	// Mid-run drain: wait (on observed traffic, not wall clock) until
	// the overload is demonstrably in progress, then pull the plug.
	// In-flight admitted requests must still complete correctly; the
	// post-drain wave must observe 503.
	for i := 0; early.Load() < preDrain/2; i++ {
		if i > 10000 {
			t.Fatal("chaos load never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	s.startDrain()
	for i := preDrain; i < total; i++ {
		wg.Add(1)
		go fire(i)
	}
	wg.Wait()

	if len(malformed) > 0 {
		t.Fatalf("%d malformed responses under chaos:\n%s", len(malformed), strings.Join(malformed, "\n"))
	}
	var answered int
	for _, n := range statuses {
		answered += n
	}
	if answered != total {
		t.Fatalf("answered %d of %d requests; the rest were dropped", answered, total)
	}
	t.Logf("chaos statuses: %v", statuses)
	if statuses[http.StatusOK] == 0 {
		t.Fatal("chaos run served zero successful responses; the drill proved nothing")
	}

	// The final counters are internally consistent.
	if n := s.handlerPanics.Load(); n != 1 {
		t.Fatalf("m2cd_handler_panics_total = %d, want exactly the one injected", n)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := testConfig()
	if err := ok.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := ok
	bad.stallTimeout = -time.Second
	if err := bad.validate(); err == nil || !strings.Contains(err.Error(), "stall-timeout") {
		t.Fatalf("negative stall timeout not rejected clearly: %v", err)
	}
	for name, mutate := range map[string]func(*config){
		"workers":       func(c *config) { c.workers = 0 },
		"inflight":      func(c *config) { c.maxInflight = 0 },
		"queue":         func(c *config) { c.queueDepth = -1 },
		"deadline":      func(c *config) { c.defaultDeadline = 0 },
		"deadline>max":  func(c *config) { c.defaultDeadline = 2 * c.maxDeadline },
		"drain":         func(c *config) { c.drainTimeout = 0 },
		"breaker-trips": func(c *config) { c.breakerTrips = 0 },
		"iface-cap":     func(c *config) { c.ifaceCap = -1 },
		"stream-cap":    func(c *config) { c.streamCap = -1 },
	} {
		c := ok
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestParseInject(t *testing.T) {
	plan, err := parseInject("")
	if err != nil || plan != nil {
		t.Fatalf("empty spec: plan=%v err=%v", plan, err)
	}
	plan, err = parseInject("panic-handler:3, slow-request:1")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Trigger(faultinject.PanicHandler) != 3 || plan.Trigger(faultinject.SlowRequest) != 1 {
		t.Fatal("parsed plan misarmed")
	}
	for _, bad := range []string{"panic-handler", "nosuch:1", "panic-handler:0", "panic-handler:x"} {
		if _, err := parseInject(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
