package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// heapAfterGC is the live heap after two collections.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestClientStateBounded: the state a client's name keys stays bounded
// however many names clients choose.  20 000 clean requests from
// distinct names leave no breaker state and at most maxLimiterClients
// rate-limit buckets, and a name over 256 bytes is refused with 400
// before the limiter, the breaker or the request log see it.  The memo
// is shrunk to 64 KiB first: it keeps a marker per distinct body within
// its own byte budget, and this test weighs what the names keep.
func TestClientStateBounded(t *testing.T) {
	cfg := testConfig()
	cfg.rateLimit, cfg.rateBurst = 1e9, 1 // a bucket refills at once, so the limiter may prune it
	s := newServer(cfg)
	s.memo = newMemo(64 << 10)
	h := s.handler()
	serve := func(client string) (int, []byte) {
		body, err := json.Marshal(compileRequest{Module: "M", Client: client,
			Sources: []srcFile{{Name: "M", Kind: "mod", Text: "MODULE M; BEGIN END M.\n"}}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	for i := range 100 { // until the daemon's pools hold what a request draws
		serve("warm-" + strconv.Itoa(i))
	}

	const names = 20000
	pad := strings.Repeat("c", 200)
	before := heapAfterGC()
	for i := range names {
		if code, body := serve(pad + strconv.Itoa(i)); code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, code, body)
		}
	}
	grown := heapAfterGC() - before
	s.breakers.mu.Lock()
	breakers := len(s.breakers.m)
	s.breakers.mu.Unlock()
	s.limits.mu.Lock()
	buckets := len(s.limits.m)
	s.limits.mu.Unlock()
	t.Logf("%d clean requests from distinct %d-byte names: %d breaker states, %d buckets, %+d B live",
		names, len(pad)+5, breakers, buckets, grown)
	if breakers != 0 || buckets > maxLimiterClients {
		t.Fatalf("%d breaker states (want 0) and %d buckets (want at most %d)", breakers, buckets, maxLimiterClients)
	}
	// At most a full bucket map of such names, and no more.
	if limit := int64(maxLimiterClients) * 512; grown > limit {
		t.Fatalf("%d names keep %d B live, over %d", names, grown, limit)
	}

	huge := strings.Repeat("h", 1<<20)
	before = heapAfterGC()
	for i := range 64 {
		code, body := serve(huge + strconv.Itoa(i))
		var er errorResponse
		if code != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Error == "" {
			t.Fatalf("1 MiB client name %d: status %d: %.200s", i, code, body)
		}
	}
	if grown := heapAfterGC() - before; grown > 1<<20 {
		t.Fatalf("64 refused 1 MiB names keep %d B live", grown)
	}
}
