package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"m2cc"
	"m2cc/internal/pool"
	"m2cc/internal/workload"
)

// recordingLoader notes which definition modules a compilation loads.
type recordingLoader struct {
	base m2cc.Loader
	defs map[string]bool
}

func (l *recordingLoader) Load(name string, kind m2cc.FileKind) (string, error) {
	if kind == m2cc.Def {
		l.defs[name] = true
	}
	return l.base.Load(name, kind)
}

// suiteRequests returns one /compile request per suite program (seed
// 1992, scale 0.3), each carrying its module and the definition modules
// it imports, directly or not.
func suiteRequests(t testing.TB) []compileRequest {
	t.Helper()
	suite := workload.GenerateSuite(1992, 0.3)
	reqs := make([]compileRequest, 0, len(suite.Programs))
	for _, p := range suite.Programs {
		rec := &recordingLoader{base: suite.Loader, defs: map[string]bool{}}
		if res := m2cc.CompileSequential(p.Name, rec); res.Failed() {
			t.Fatalf("%s: %s", p.Name, res.Diags)
		}
		text, _ := suite.Loader.Load(p.Name, m2cc.Impl)
		req := compileRequest{Module: p.Name, Sources: []srcFile{{Name: p.Name, Kind: "mod", Text: jsonText(text)}}}
		defs := make([]string, 0, len(rec.defs))
		for name := range rec.defs {
			defs = append(defs, name)
		}
		sort.Strings(defs)
		for _, name := range defs {
			text, _ := suite.Loader.Load(name, m2cc.Def)
			req.Sources = append(req.Sources, srcFile{Name: name, Kind: "def", Text: jsonText(text)})
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// referenceBody is the body the daemon sent before it appended responses
// by hand: json.Marshal of compileResponse, findings indented by
// WriteFindingsJSON and trimmed, plus "\n".  It is computed from the
// sequential compiler and analyzer, which both serve paths must equal.
func referenceBody(t *testing.T, req compileRequest, lint bool) []byte {
	t.Helper()
	loader := loaderFrom(t, req.Sources)
	res := m2cc.CompileSequential(req.Module, loader)
	resp := compileResponse{Module: req.Module, OK: !res.Failed(), Diags: res.Diags.String()}
	if lint {
		var buf bytes.Buffer
		if err := m2cc.WriteFindingsJSON(&buf, m2cc.Lint(req.Module, loader)); err != nil {
			t.Fatal(err)
		}
		resp.Findings = bytes.TrimSpace(buf.Bytes())
	} else if resp.OK {
		resp.Listing = res.Object.Listing()
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestResponseBodiesUnchanged: every suite program's /compile and /lint
// body, served concurrently and by the breaker-tripped sequential path,
// equals the reference encoding byte for byte, three times over.  The
// third concurrent request is a memo hit, and the sequential route's
// responses are never stored.  Two clients run at once on different
// programs, so a pooled buffer handed back before its write finished
// would show as a wrong body (and, under -race, as a race).
func TestResponseBodiesUnchanged(t *testing.T) {
	reqs := suiteRequests(t)
	// Beside the suite: findings, and text the encoder must escape (<,
	// &, quotes, U+2028, a tab) in a listing and in diagnostics.
	escapes := "MODULE Esc;\nBEGIN\n  WriteString('<a href=\"x\">&amp;\u2028\t</a>')\nEND Esc.\n"
	reqs = append(reqs,
		compileRequest{Module: "Esc", Sources: []srcFile{{Name: "Esc", Kind: "mod", Text: jsonText(escapes)}}},
		compileRequest{Module: "Esc", Sources: []srcFile{{Name: "Esc", Kind: "mod", Text: jsonText(escapes + "<&>\u2028")}}},
		compileRequest{Module: "ConcFindings", Sources: exampleFiles(t, "ConcFindings.mod")},
		compileRequest{Module: "LintFindings", Sources: exampleFiles(t, "LintFindings.mod", "Fib.def", "Shapes.def")})
	paths := [...]string{"/compile", "/lint"}
	want := make([][len(paths)][]byte, len(reqs))
	for i := range reqs {
		for p, path := range paths {
			want[i][p] = referenceBody(t, reqs[i], path == "/lint")
		}
	}
	s := newServer(testConfig())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	const clients = 2
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		routes := [...]struct{ client, path, third string }{
			{fmt.Sprintf("conc-%d", c), "concurrent", "memo"}, {fmt.Sprintf("seq-%d", c), "sequential", "sequential"}}
		s.breakers.mu.Lock()
		s.breakers.m[routes[1].client] = &breakerState{openUntil: time.Now().Add(time.Hour)}
		s.breakers.mu.Unlock()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += clients {
				for p, path := range paths {
					for _, route := range routes {
						req := reqs[i]
						req.Client = route.client
						for _, wantPath := range [...]string{route.path, route.path, route.third} {
							got, body, err := postBody(ts, path, req)
							if err != nil || got != wantPath || !bytes.Equal(body, want[i][p]) {
								t.Errorf("%s %s (want %s, X-M2cd-Path %q, %v): body differs from the reference\n got: %.300s\nwant: %.300s",
									path, req.Module, wantPath, got, err, body, want[i][p])
							}
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// postBody is post for a goroutine other than the test's: it reports
// failure as an error, and returns the X-M2cd-Path header and the body.
func postBody(ts *httptest.Server, path string, req compileRequest) (string, []byte, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return "", nil, err
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.Header.Get("X-M2cd-Path"), body, err
}

// FuzzAppendJSONString: appendJSONString encodes exactly as json.Marshal
// encodes a string, from a string or from bytes, after what dst holds.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "MODULE M;", "<a href=\"x\">&amp;</a>", "line para end",
		"\x00\x01\b\t\n\f\r\x1f\x7f\"\\", "\xff", "a\xe2\x80", "\xe2\x80\xa8\xe2\x80", "é€𝄞�", "\xed\xa0\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("{"), s); string(got) != "{"+string(want) {
			t.Fatalf("string %q: got %s, want %s", s, got, want)
		}
		if got := appendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("bytes %q: got %s, want %s", s, got, want)
		}
	})
}

// FuzzDecodeText: jsonText decodes any JSON value as encoding/json
// decodes it into a string, to the same string or the same error
// message; and it gives back a valid UTF-8 string that json.Marshal or
// appendJSONString encoded (an invalid byte comes back as U+FFFD, as
// encoding/json gives it).
func FuzzDecodeText(f *testing.F) {
	for _, s := range []string{`""`, `"MODULE M;\n"`, `"\u003c\u0026\u003e\u2028"`, `"\ud83d\ude00"`, `"\ud800"`,
		`"\ud800\u0041\udc00\ud800"`, "\"\xff\xe2\x80\"", `"\"\\\/\b\f\n\r\t"`, `null`, `5`, `{"a":1}`, `[]`, `true`, `"\q"`, `"a`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got jsonText
		var want string
		errGot, errWant := json.Unmarshal([]byte(s), &got), json.Unmarshal([]byte(s), &want)
		if string(got) != want || fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("%q: decoded %q (%v), encoding/json %q (%v)", s, got, errGot, want, errWant)
		}
		marshaled, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range [][]byte{marshaled, appendJSONString(nil, s)} {
			var got jsonText
			var want string
			errGot, errWant := json.Unmarshal(enc, &got), json.Unmarshal(enc, &want)
			if errGot != nil || errWant != nil || string(got) != want || utf8.ValidString(s) && want != s {
				t.Fatalf("%q encoded as %s decodes to %q (%v), encoding/json to %q (%v)", s, enc, got, errGot, want, errWant)
			}
		}
	})
}

// TestDecodedTextsOwnTheirBytes: no decoded text shares a byte with the
// request body, escaped or not, so the daemon may reuse the pooled body
// as soon as the request is decoded.
func TestDecodedTextsOwnTheirBytes(t *testing.T) {
	texts := []string{"MODULE Plain; END Plain.", "MODULE Esc;\n\t'<&>' \u2028 \xff END Esc."}
	req := compileRequest{Module: "M"}
	for _, text := range texts {
		req.Sources = append(req.Sources, srcFile{Name: "M", Kind: "mod", Text: jsonText(text)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got compileRequest
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'x'
	}
	for i, text := range texts {
		if want := strings.ToValidUTF8(text, "\ufffd"); string(got.Sources[i].Text) != want {
			t.Errorf("text %d reads %q after the body was overwritten, want %q", i, got.Sources[i].Text, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its headers.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// repeatRequest serves one suite program's /compile or /lint (path)
// through s.handler() into a discardWriter.  repeat sends the same bytes
// each time, so the memo answers from its third call on; fresh sends the
// request behind one more leading space each time (up to 32), bytes the
// memo has never seen, so each call compiles.
func repeatRequest(t testing.TB, s *server, path string) (repeat, fresh func(), req compileRequest) {
	const maxFresh = 32
	req = suiteRequests(t)[13]
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	padded := append(bytes.Repeat([]byte(" "), maxFresh), body...)
	h, rd := s.handler(), bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, path, io.NopCloser(rd))
	w := &discardWriter{h: http.Header{}}
	serve := func(b []byte) {
		rd.Reset(b)
		h.ServeHTTP(w, r)
	}
	spaces := 0
	return func() { serve(body) }, func() {
		if spaces++; spaces > maxFresh {
			t.Fatalf("more than %d fresh requests", maxFresh)
		}
		serve(padded[maxFresh-spaces:])
	}, req
}

// checkMemoHit serves repeat until the memo holds its response, then
// checks that a hit allocates at most 2 KiB and draws no new buffer, nor
// any response buffer, from the daemon's lists.
func checkMemoHit(t *testing.T, s *server, repeat func()) {
	t.Helper()
	repeat() // a marker
	repeat() // the stored body
	hits, body, resp := s.memoHits.Load(), bodyBufs.Stats(), respBufs.Stats()
	hit := allocated(repeat)
	if s.memoHits.Load() != hits+7 {
		t.Fatalf("%d of 7 repeats were memo hits", s.memoHits.Load()-hits)
	}
	if b, r := bodyBufs.Stats(), respBufs.Stats(); b.Misses != body.Misses || r.Gets != resp.Gets {
		t.Fatalf("memo hits took %d new body buffers and %d response buffers", b.Misses-body.Misses, r.Gets-resp.Gets)
	}
	t.Logf("a memo hit allocates %d B", hit)
	if hit > 2<<10 {
		t.Fatalf("a memo hit allocates %d B, more than 2 KiB", hit)
	}
}

// allocated reports the bytes f allocates, the median of seven runs
// (a run now and then draws a spare item from a free list or meets a
// collection).
func allocated(f func()) uint64 {
	var runs [7]uint64
	for i := range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		runs[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(runs[:])
	return runs[len(runs)/2]
}

// TestRepeatRequestAllocs: a warm /compile the memo cannot answer
// allocates what its compilation does, one copy of its source texts
// (each decoded straight into its string), and at most a fixed slack
// beside them (its loader, context, headers and memo marker); its body
// and response come from the daemon's lists, which need no new buffer
// after the first request.  A byte-identical repeat is a memo hit.
func TestRepeatRequestAllocs(t *testing.T) {
	const slack = 16 << 10
	s := newServer(testConfig())
	repeat, serve, req := repeatRequest(t, s, "/compile")
	lists := func() (misses int) {
		for _, l := range []*pool.List[[]byte]{bodyBufs, respBufs} {
			misses += l.Stats().Misses
		}
		return misses
	}
	serve()
	before := lists()
	if serve(); lists() != before {
		t.Fatalf("the second request took %d new buffers from the daemon's lists", lists()-before)
	}
	served := allocated(serve)

	loader := loaderFrom(t, req.Sources)
	opts := m2cc.Options{Workers: s.cfg.workers, Strategy: s.cfg.strategy, Cache: s.cache, StreamCache: s.scache,
		StallTimeout: s.cfg.stallTimeout, Cancel: make(chan struct{})}
	compiled := allocated(func() { m2cc.Compile(req.Module, loader, opts) })
	texts := 0
	for _, f := range req.Sources {
		texts += len(f.Text)
	}
	t.Logf("%s: served %d B, compiled alone %d B, source texts %d B", req.Module, served, compiled, texts)
	if served > compiled+uint64(texts)+slack {
		t.Fatalf("a warm repeat /compile allocates %d B, more than its compilation (%d B), its texts (%d B) and %d B",
			served, compiled, texts, slack)
	}
	checkMemoHit(t, s, repeat)
}

// BenchmarkServeRepeat: one warm repeated /compile of a suite program
// through the handler, B/op and allocs/op included.
func BenchmarkServeRepeat(b *testing.B) {
	s := newServer(testConfig())
	serve, _, _ := repeatRequest(b, s, "/compile")
	for range 3 { // until the free lists hold what a request draws
		serve()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// TestServeLintAllocs: a warm /lint the memo cannot answer installs
// every interface from the cache with its lint facts, compiling none,
// and allocates what its lint compilation does plus the slack a
// /compile may take.  A byte-identical repeat is a memo hit.
func TestServeLintAllocs(t *testing.T) {
	const slack = 64 << 10
	s := newServer(testConfig())
	repeat, serve, req := repeatRequest(t, s, "/lint")
	for range 3 { // until the free lists hold what a request draws
		serve()
	}
	before := s.cache.Stats()
	serve()
	if tr := s.cache.Stats().Sub(before); tr.Hits == 0 || tr.Misses != 0 || tr.Waits != 0 {
		t.Fatalf("a warm /lint's interface traffic is %+v, want hits and no compiles", tr)
	}
	served := allocated(serve)

	loader := loaderFrom(t, req.Sources)
	opts := m2cc.Options{Workers: s.cfg.workers, Strategy: s.cfg.strategy, Cache: s.cache, StreamCache: s.scache,
		StallTimeout: s.cfg.stallTimeout, Cancel: make(chan struct{}), Check: true}
	linted := allocated(func() { m2cc.Compile(req.Module, loader, opts) })
	t.Logf("%s: served %d B, linted alone %d B", req.Module, served, linted)
	if served > linted+slack {
		t.Fatalf("a warm repeat /lint allocates %d B, more than its lint compilation (%d B) plus %d B", served, linted, slack)
	}
	checkMemoHit(t, s, repeat)
}

// BenchmarkServeLint: one warm repeated /lint of a suite program
// through the handler, B/op and allocs/op included.
func BenchmarkServeLint(b *testing.B) {
	s := newServer(testConfig())
	serve, _, _ := repeatRequest(b, s, "/lint")
	for range 3 {
		serve()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
