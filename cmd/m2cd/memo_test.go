package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"m2cc/internal/faultinject"
)

// TestMemoNeverStores sends each request the memo must not store three
// times: none is a hit, and the memo holds not even a marker.  (The
// breaker's sequential route is TestResponseBodiesUnchanged's.)
func TestMemoNeverStores(t *testing.T) {
	demo := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "never"}
	traced, slow, bad := demo, demo, demo
	traced.Trace = true
	slow.DeadlineMS = 50
	bad.DeadlineMS = -1
	cases := []struct {
		name, path string
		req        compileRequest
		status     int
		arm        []faultinject.Point // each armed to trip at every send
	}{
		{"fault fallback", "/compile", demo, http.StatusOK, []faultinject.Point{faultinject.PanicLookup}},
		{"lint fault", "/lint", demo, http.StatusOK, []faultinject.Point{faultinject.PanicCheck}},
		{"deadline", "/compile", slow, http.StatusServiceUnavailable, []faultinject.Point{faultinject.SlowRequest}},
		{"inline trace", "/compile", traced, http.StatusOK, nil},
		{"bad request", "/compile", bad, http.StatusBadRequest, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.plan = faultinject.New()
			cfg.slowDelay = 300 * time.Millisecond
			s := newServer(cfg)
			ts := httptest.NewServer(s.handler())
			defer ts.Close()
			for i := 0; i < 3; i++ {
				for _, pt := range c.arm {
					cfg.plan.Arm(pt, cfg.plan.Count(pt)+1)
				}
				resp, body := post(t, ts, c.path, c.req)
				if resp.StatusCode != c.status || resp.Header.Get("X-M2cd-Path") == "memo" {
					t.Fatalf("send %d: status %d on path %q, want %d not from the memo: %.200s",
						i+1, resp.StatusCode, resp.Header.Get("X-M2cd-Path"), c.status, body)
				}
			}
			for _, pt := range c.arm {
				if n := cfg.plan.Tripped(pt); n != 3 {
					t.Fatalf("%v tripped %d times, want 3", pt, n)
				}
			}
			if hits, size := s.memoHits.Load(), s.memo.size(); hits != 0 || size != 0 {
				t.Fatalf("%d memo hits, %d bytes held; want none", hits, size)
			}
		})
	}
}

// TestMemoHitGates: a hit takes no admission slot, but is still refused
// over its client's rate limit and while the daemon drains; the request
// log names each hit's serving path.
func TestMemoHitGates(t *testing.T) {
	cfg := testConfig()
	cfg.rateLimit = 0.001 // no refill within the test
	cfg.rateBurst = 3
	s := newServer(cfg)
	var logBuf syncBuffer
	s.logw = &logBuf
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "gated"}
	for i, want := range []string{"concurrent", "concurrent", "memo"} {
		if resp, body := post(t, ts, "/compile", req); resp.StatusCode != http.StatusOK || resp.Header.Get("X-M2cd-Path") != want {
			t.Fatalf("send %d: status %d on path %q, want 200 on %s: %.200s", i+1, resp.StatusCode, resp.Header.Get("X-M2cd-Path"), want, body)
		}
	}
	if n := s.admitted.Load(); n != 2 {
		t.Fatalf("m2cd_admitted_total = %d, want 2: a hit takes no slot", n)
	}
	if resp, body := post(t, ts, "/compile", req); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("a hit over the rate limit: status %d, want 429 with Retry-After: %s", resp.StatusCode, body)
	}
	s.startDrain()
	if resp, body := post(t, ts, "/compile", req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("a hit while draining: status %d, want 503: %s", resp.StatusCode, body)
	}
	if limited, draining, hits := s.rateLimited.Load(), s.rejectedDraining.Load(), s.memoHits.Load(); limited != 1 || draining != 1 || hits != 1 {
		t.Fatalf("rate limited %d, rejected draining %d, memo hits %d; want 1, 1, 1", limited, draining, hits)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry requestLog
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %v (%q)", err, line)
		}
		got = append(got, fmt.Sprintf("%d %s %s", entry.Status, entry.Serve, entry.Client))
	}
	if want := "[200 concurrent gated 200 concurrent gated 200 memo gated 429  gated 503  gated]"; fmt.Sprint(got) != want {
		t.Fatalf("request log %v, want %s", got, want)
	}
}

// TestMemoBudget overfills a memo: it holds no more than its budget,
// keeps the most recently stored bodies, and never stores a body above
// its share of the budget.
func TestMemoBudget(t *testing.T) {
	const budget = 64 << 10
	m := newMemo(budget)
	key := func(i int) memoKey { return memoKey{sum: [32]byte{byte(i), byte(i >> 8)}} }
	body := bytes.Repeat([]byte("x"), 1000)
	for i := 0; i < 1000; i++ {
		m.record(key(i), body, "c", "")
		m.record(key(i), body, "c", "")
		if m.size() > budget {
			t.Fatalf("after %d bodies the memo holds %d B, over its %d B budget", i+1, m.size(), budget)
		}
	}
	if _, ok := m.lookup(key(999)); !ok {
		t.Fatal("the last body stored was evicted")
	}
	if _, ok := m.lookup(key(0)); ok {
		t.Fatal("the first body stored survived 1 000 more")
	}
	big := bytes.Repeat([]byte("x"), budget/8+1)
	m.record(key(1000), big, "c", "")
	m.record(key(1000), big, "c", "")
	if _, ok := m.lookup(key(1000)); ok {
		t.Fatalf("a %d B body was stored, over an eighth of the %d B budget", len(big), budget)
	}
}

// TestMemoConcurrentRepeats: eight identical requests at once, while
// the memo has no entry and again once it has, are all answered with
// the same body; the second wave is served from the memo.
func TestMemoConcurrentRepeats(t *testing.T) {
	cfg := testConfig()
	cfg.queueDepth = 8
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "Demo", Sources: exampleSources(t), Client: "burst"}
	_, want := post(t, ts, "/compile", req)
	for wave := 0; wave < 2; wave++ {
		hits := s.memoHits.Load()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				path, body, err := postBody(ts, "/compile", req)
				if err != nil || !bytes.Equal(body, want) {
					t.Errorf("wave %d: %v on path %q: body differs: %.200s", wave, err, path, body)
				}
			}()
		}
		wg.Wait()
		if got := s.memoHits.Load() - hits; wave == 1 && got != 8 {
			t.Fatalf("%d of the second wave's 8 requests were memo hits", got)
		}
	}
}

// TestMemoLintHit: a /lint hit answers the stored X-M2cd-Findings and
// adds its per-family counts to m2cd_lint_findings_total, as the two
// compiled answers before it did.
func TestMemoLintHit(t *testing.T) {
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := compileRequest{Module: "ConcFindings", Sources: exampleFiles(t, "ConcFindings.mod"), Client: "lint-memo"}
	const wantHdr = "conc-deadlock=1,conc-double-lock=1,conc-guard=2"
	for i, want := range []string{"concurrent", "concurrent", "memo"} {
		resp, body := post(t, ts, "/lint", req)
		if path, hdr := resp.Header.Get("X-M2cd-Path"), resp.Header.Get("X-M2cd-Findings"); resp.StatusCode != http.StatusOK || path != want || hdr != wantHdr {
			t.Fatalf("send %d: status %d on path %q with findings %q, want 200 on %s with %q: %.200s",
				i+1, resp.StatusCode, path, hdr, want, wantHdr, body)
		}
	}
	var met struct {
		LintFindings map[string]int64 `json:"m2cd_lint_findings_total"`
	}
	scrape(t, ts, &met)
	if want := map[string]int64{"conc-deadlock": 3, "conc-double-lock": 3, "conc-guard": 6}; fmt.Sprint(met.LintFindings) != fmt.Sprint(want) {
		t.Fatalf("m2cd_lint_findings_total = %v, want %v", met.LintFindings, want)
	}
}
