package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"m2cc"
	"m2cc/internal/source"
	"m2cc/internal/workload"
)

// serve.mix drives cmd/m2cd, built and started as a subprocess, with
// the benchmark's own load generator: an open loop at a fixed rate (the
// latency metrics) and then a closed loop (the throughput metric), over
// at most `workers` keep-alive connections.

const (
	openLoopRate   = 100.0 // requests per second in the open-loop phase
	latencyLimitMS = 100.0 // the limit p99 is held against
	// serveTailPercentile is the tail that carries a bound.  At 100
	// requests/s a run has ten beyond p99 too, but p99 moved 11 % between
	// ten runs of one commit and p95 5 %: p99 is printed, p95 is judged.
	serveTailPercentile = 95
	// failedLatencyMS is what a failed request counts as: far beyond the
	// limit, so that failures show in the tail and not only in `failed`.
	failedLatencyMS = 10000.0
	warmupRequests  = 60
	daemonQueue     = 8
	startTimeout    = 20 * time.Second
	requestTimeout  = 30 * time.Second
)

// blockKinds is the request mix: every block of 20 consecutive requests
// holds exactly these kinds, in an order drawn from the seed.
var blockKinds = [20]reqKind{
	// 60 % unchanged program, /compile
	kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat,
	kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat,
	// 25 % one-procedure edit, /compile
	kindEdit, kindEdit, kindEdit, kindEdit, kindEdit,
	// 10 % unchanged program, /lint
	kindLint, kindLint,
	// 5 % a module the daemon has never seen
	kindFresh,
}

type reqKind int

const (
	kindRepeat reqKind = iota
	kindEdit
	kindLint
	kindFresh
)

var kindNames = [...]string{"repeat", "edit", "lint", "fresh"}

// daemon is a running m2cd subprocess.
type daemon struct {
	cmd       *exec.Cmd
	addr      string        // serving address
	debugAddr string        // pprof listener, the only place the daemon's heap counters show
	done      chan struct{} // closed once the process has ended
	waitErr   error         // cmd.Wait's result, valid after done is closed
}

// buildDaemon compiles cmd/m2cd into the build directory.
func buildDaemon(cfg config) (string, error) {
	bin := filepath.Join(cfg.root, buildDir, "m2cd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/m2cd")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/m2cd: %w\n%s", err, out)
	}
	return bin, nil
}

// startDaemon starts m2cd on free ports and waits until it serves.
func startDaemon(cfg config, bin string, streamCap int) (*daemon, error) {
	dir := filepath.Join(cfg.root, buildDir)
	ready := filepath.Join(dir, "m2cd.ready")
	logPath := filepath.Join(dir, "m2cd.log")
	if err := os.Remove(ready); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	n := strconv.Itoa(cfg.workers)
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-ready-file", ready,
		"-workers", n, "-max-inflight", n, "-queue", strconv.Itoa(daemonQueue),
		"-stream-cap", strconv.Itoa(streamCap), "-trace", "off", "-quiet")
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start m2cd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()

	deadline := time.Now().Add(startTimeout)
	for {
		if buf, err := os.ReadFile(ready); err == nil && bytes.HasSuffix(buf, []byte("\n")) {
			d.addr = strings.TrimSpace(string(buf))
			break
		}
		select {
		case <-d.done:
			log, _ := os.ReadFile(logPath) // best effort: the exit status is the error
			return nil, fmt.Errorf("m2cd exited before serving: %v\n%s", d.waitErr, log)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("m2cd did not write %s within %v", ready, startTimeout)
		}
	}
	// The daemon logs the pprof address before it writes the ready file.
	log, err := os.ReadFile(logPath)
	if err != nil {
		d.stop()
		return nil, err
	}
	const marker = "pprof on "
	i := bytes.Index(log, []byte(marker))
	if i < 0 {
		d.stop()
		return nil, fmt.Errorf("m2cd did not log its pprof address:\n%s", log)
	}
	d.debugAddr = strings.Fields(string(log[i+len(marker):]))[0]
	return d, nil
}

// stop asks the daemon to drain and waits until the process has ended;
// a daemon that ignores the request is killed.  Stopping twice is
// harmless.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // as above
		<-d.done
	}
}

// stopOnSignal stops whichever daemon was last sent on current when the
// benchmark itself is told to stop, so that no daemon outlives it.
func stopOnSignal(current <-chan *daemon) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	var d *daemon
	for {
		select {
		case next, ok := <-current:
			if !ok {
				return
			}
			d = next
		case <-sig:
			if d != nil {
				d.stop()
			}
			os.Exit(1)
		}
	}
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// metrics scrapes the daemon's Prometheus exposition into a map from
// sample name (labels included) to value.
func (d *daemon) metrics() (map[string]float64, error) {
	body, err := httpGet("http://" + d.addr + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// totalAllocMB reads the daemon's cumulative heap allocation from the
// MemStats dump at the end of its pprof heap profile.
func (d *daemon) totalAllocMB() (float64, error) {
	body, err := httpGet("http://" + d.debugAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	const key = "# TotalAlloc = "
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("pprof heap profile has no TotalAlloc line")
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(string(rest)), 64)
	return n / 1e6, err
}

func (d *daemon) peakRSSMB() float64 {
	return procStatusMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), "VmHWM:")
}

// wireSource and wireRequest are m2cd's request schema.
type wireSource struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Text string `json:"text"`
}

type wireRequest struct {
	Module  string       `json:"module"`
	Sources []wireSource `json:"sources"`
}

// wireResponse is the part of m2cd's response the checks read.
type wireResponse struct {
	Listing  string          `json:"listing"`
	Findings json.RawMessage `json:"findings"`
}

// request is one planned request.
type request struct {
	kind   reqKind
	path   string // /compile or /lint
	module string
	text   string // the implementation module sent
	prog   int    // index of the suite program, -1 for a never-seen module
	body   []byte
	// sampled marks the seeded one in checkEvery of the edit and
	// never-seen requests whose response is compared in full afterwards.
	sampled bool
}

// mix builds requests from the seed: request i of a phase is the same
// on every run with that seed, whichever connection sends it.
type mix struct {
	seed int64
	c    *corpus // the suite
	// Per program: the request body split around the module text, so an
	// edit re-encodes one string and not the whole interface closure.
	head, tail [][]byte
	repeat     [][]byte              // unchanged /compile and /lint body of each program
	perm       [len(kindNames)][]int // per kind: the order its requests visit the programs in
}

func newMix(seed int64, suite *corpus) (*mix, error) {
	m := &mix{seed: seed, c: suite}
	for k := range m.perm {
		m.perm[k] = rand.New(rand.NewSource(seed*17 + int64(k))).Perm(len(suite.progs))
	}
	for _, p := range suite.progs {
		var tail bytes.Buffer
		tail.WriteString("}")
		for _, name := range p.Defs {
			text, err := suite.loader.Load(name, source.Def)
			if err != nil {
				return nil, err
			}
			enc, err := json.Marshal(wireSource{name, "def", text})
			if err != nil {
				return nil, err
			}
			tail.WriteByte(',')
			tail.Write(enc)
		}
		tail.WriteString("]}")
		head := fmt.Sprintf(`{"module":%q,"sources":[{"name":%q,"kind":"mod","text":`, p.Name, p.Name)
		m.head = append(m.head, []byte(head))
		m.tail = append(m.tail, tail.Bytes())
		m.repeat = append(m.repeat, m.encode(len(m.head)-1, p.Text))
	}
	return m, nil
}

// encode returns the request body for program i with the given text.
func (m *mix) encode(i int, text string) []byte {
	enc, err := json.Marshal(text)
	if err != nil {
		panic(err) // a string always marshals
	}
	body := make([]byte, 0, len(m.head[i])+len(enc)+len(m.tail[i]))
	body = append(body, m.head[i]...)
	body = append(body, enc...)
	return append(body, m.tail[i]...)
}

// plan decides the kind of request id and which program it is about.
// The mix is stratified, not drawn request by request: every block of
// 20 requests has the same kinds, and the requests of one kind walk
// through a seeded permutation of the programs.  Which sizes are
// requested how often is then the same for every seed and every run, so
// that a percentile of the latencies measures the daemon and not the
// luck of the draw; the seed still decides every order.
func (m *mix) plan(id int) (kind reqKind, prog int) {
	block, pos := id/len(blockKinds), id%len(blockKinds)
	order := rand.New(rand.NewSource(m.seed*31 + int64(block))).Perm(len(blockKinds))
	kind = blockKinds[order[pos]]
	perBlock, earlier := 0, 0
	for i, o := range order {
		if blockKinds[o] == kind {
			perBlock++
			if i < pos {
				earlier++
			}
		}
	}
	nth := block*perBlock + earlier // this is the nth request of its kind
	return kind, m.perm[kind][nth%len(m.c.progs)]
}

// build makes request number id (unique across the phases of a run).
func (m *mix) build(id int) (request, error) {
	r := rand.New(rand.NewSource(m.seed*1000003 + int64(id)))
	kind, prog := m.plan(id)
	p := m.c.progs[prog]
	req := request{kind: kind, path: "/compile", module: p.Name, text: p.Text, prog: prog}
	switch kind {
	case kindRepeat:
		req.body = m.repeat[prog]
	case kindEdit:
		pt := p.Edits[r.Intn(len(p.Edits))]
		req.text = p.Text[:pt.Start] + strconv.Itoa(firstFreshLiteral+id) + p.Text[pt.End:]
		req.body = m.encode(prog, req.text)
	case kindLint:
		req.path, req.body = "/lint", m.repeat[prog]
	case kindFresh:
		// A module of the suite's median shape (Table 1: 16 procedures,
		// 17 interfaces, depth 5) that no earlier request has sent.
		req.prog = -1
		req.module = fmt.Sprintf("Fresh%07d", id)
		scratch := m2cc.NewMapLoader()
		workload.GenerateProgram(workload.ProgramSpec{
			Name: req.module, Seed: m.seed*7919 + int64(id), Procs: 16, StmtReps: 1,
			TargetImports: 17, TargetDepth: 5, NestedEvery: 6, CallsForward: true,
		}, m.c.lib, scratch)
		var err error
		if req.text, err = scratch.Load(req.module, source.Impl); err != nil {
			return req, err
		}
		defs, err := m.c.known.closure(req.text, m.c.loader)
		if err != nil {
			return req, err
		}
		wire := wireRequest{Module: req.module, Sources: []wireSource{{req.module, "mod", req.text}}}
		for _, name := range defs {
			text, err := m.c.loader.Load(name, source.Def)
			if err != nil {
				return req, err
			}
			wire.Sources = append(wire.Sources, wireSource{name, "def", text})
		}
		if req.body, err = json.Marshal(wire); err != nil {
			return req, err
		}
	}
	req.sampled = (kind == kindEdit || kind == kindFresh) && r.Intn(checkEvery) == 0
	return req, nil
}

// sample is one completed request.
type sample struct {
	ok        bool
	latencyMS float64 // from the due time in an open loop, from the send in a closed one
	lateMS    float64 // open loop: how long after its due time the request was sent
	srcBytes  int
}

// checked is a response kept for the full comparison after the window.
type checked struct {
	req  request
	body []byte
}

// loadGen sends planned requests and judges the responses.
type loadGen struct {
	url    string
	client *http.Client
	mix    *mix
	nextID atomic.Int64 // request ids, unique across phases
	// first[path][prog]: the first 200 body of each unchanged program;
	// every repeat must be byte-identical to it.
	first map[string][][]byte

	mu           sync.Mutex // guards: samples, keep, firstFailure
	samples      []sample
	keep         []checked
	firstFailure string
}

func newLoadGen(addr string, m *mix, conns int) *loadGen {
	return &loadGen{
		url: "http://" + addr,
		client: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		},
		mix: m,
		first: map[string][][]byte{
			"/compile": make([][]byte, len(m.c.progs)),
			"/lint":    make([][]byte, len(m.c.progs)),
		},
	}
}

// post sends one request and returns the status and body.
func (g *loadGen) post(req request) (int, []byte, error) {
	resp, err := g.client.Post(g.url+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// judge decides whether a response counts as served correctly.  Repeats
// are compared byte for byte with the first response for that program;
// the others must report success, and the sampled ones are kept for the
// full comparison after the window.
func (g *loadGen) judge(req request, status int, body []byte, err error) bool {
	what := ""
	switch {
	case err != nil:
		what = err.Error()
	case status != http.StatusOK:
		what = fmt.Sprintf("status %d: %.120s", status, body)
	case !bytes.Contains(body[:min(len(body), 96)], []byte(`"ok":true`)):
		what = fmt.Sprintf("compilation reported failure: %.160s", body)
	case req.kind == kindRepeat || req.kind == kindLint:
		if want := g.first[req.path][req.prog]; !bytes.Equal(body, want) {
			what = "response differs from the first response for the same request"
		}
	}
	if what != "" {
		g.failed(fmt.Sprintf("%s %s %s: %s", kindNames[req.kind], req.path, req.module, what))
		return false
	}
	if req.sampled {
		g.mu.Lock()
		if len(g.keep) < maxRetained {
			g.keep = append(g.keep, checked{req, body})
		}
		g.mu.Unlock()
	}
	return true
}

// seed sends every program once to each endpoint, records the bodies
// repeats are compared with, and keeps them for the full check.
func (g *loadGen) seed() error {
	for prog, p := range g.mix.c.progs {
		for _, path := range []string{"/compile", "/lint"} {
			kind := kindRepeat
			if path == "/lint" {
				kind = kindLint
			}
			req := request{kind: kind, path: path, module: p.Name, text: p.Text, prog: prog, body: g.mix.repeat[prog]}
			status, body, err := g.post(req)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("seeding %s %s: status %d, %v: %.200s", path, p.Name, status, err, body)
			}
			g.first[path][prog] = body
			g.keep = append(g.keep, checked{req, body})
		}
	}
	return nil
}

// one builds, optionally delays, sends and records request id.
func (g *loadGen) one(due time.Time, tr *tracer, lane int) {
	id := int(g.nextID.Add(1))
	req, err := g.mix.build(id)
	if err != nil {
		g.failed("building request: " + err.Error())
		g.mu.Lock()
		g.samples = append(g.samples, sample{latencyMS: failedLatencyMS})
		g.mu.Unlock()
		return
	}
	open := !due.IsZero()
	if open {
		time.Sleep(time.Until(due))
	}
	sent := time.Now()
	if !open {
		due = sent
	}
	sp := tr.begin("m2cd"+req.path+"/"+kindNames[req.kind], -1, id)
	tr.setLane(sp, lane)
	status, body, err := g.post(req)
	tr.end(sp)
	s := sample{srcBytes: len(req.text), lateMS: msOf(sent.Sub(due)), latencyMS: msOf(time.Since(due))}
	if s.ok = g.judge(req, status, body, err); !s.ok {
		s.latencyMS = failedLatencyMS
	}
	g.mu.Lock()
	g.samples = append(g.samples, s)
	g.mu.Unlock()
}

// failed remembers the first failure for the report.
func (g *loadGen) failed(what string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.firstFailure == "" {
		g.firstFailure = what
	}
}

// firstErr is the first failure the generator saw, "" when none.
func (g *loadGen) firstErr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.firstFailure
}

// phase is what one load phase produced.
type phase struct {
	samples []sample
	elapsed time.Duration
}

func (g *loadGen) takeSamples() []sample {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.samples
	g.samples = nil
	return out
}

// openLoop sends rate requests per second for d, each due at a fixed
// instant whatever happened to the ones before it.  With every
// connection busy a request goes out late, and its latency still
// counts from the instant it was due.
func (g *loadGen) openLoop(rate float64, d time.Duration, conns int, tr *tracer) phase {
	n := int64(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				g.one(due, tr, lane)
			}
		}(c)
	}
	wg.Wait()
	return phase{g.takeSamples(), time.Since(start)}
}

// closedLoop keeps conns requests in flight for d (or, when count > 0,
// until count requests are done): each connection sends its next
// request when the previous one completes.
func (g *loadGen) closedLoop(d time.Duration, count int64, conns int, tr *tracer) phase {
	var sent atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				if count > 0 {
					if sent.Add(1) > count {
						return
					}
				} else if time.Since(start) >= d {
					return
				}
				g.one(time.Time{}, tr, lane)
			}
		}(c)
	}
	wg.Wait()
	return phase{g.takeSamples(), time.Since(start)}
}

// verifyKept compares every kept response with what the sequential
// compiler or analyzer makes of the same text, with no cache.
func (g *loadGen) verifyKept(tl *tally) {
	for _, k := range g.keep {
		loader := &overlay{base: g.mix.c.loader, name: k.req.module, text: k.req.text}
		var resp wireResponse
		if err := json.Unmarshal(k.body, &resp); err != nil {
			tl.add(1, 1, "response is not JSON: "+err.Error())
			continue
		}
		what := ""
		if k.req.path == "/lint" {
			// The daemon embeds the findings in its response, which strips
			// their indentation; compare both sides compacted.
			var raw, want, got bytes.Buffer
			err := m2cc.WriteFindingsJSON(&raw, m2cc.Lint(k.req.module, loader))
			if err == nil {
				err = json.Compact(&want, raw.Bytes())
			}
			if err == nil {
				err = json.Compact(&got, resp.Findings)
			}
			if err != nil {
				what = err.Error()
			} else if !bytes.Equal(want.Bytes(), got.Bytes()) {
				what = "served findings differ from the sequential analyzer's"
			}
		} else {
			ref, err := seqReference(k.req.module, loader)
			if err != nil {
				what = err.Error()
			} else if sha256Hex(resp.Listing) != ref.Hash {
				what = "served listing differs from the sequential compiler's"
			}
		}
		tl.add(1, btoi(what != ""), fmt.Sprintf("%s %s: %s", k.req.path, k.req.module, what))
	}
}

// listingInstrs counts the instructions of a served listing: every line
// that is not an OBJECT, AREA, PROC or BODY heading.
func listingInstrs(listing string) int {
	n := 0
	for _, line := range strings.Split(listing, "\n") {
		if line != "" && (line[0] < 'A' || line[0] > 'Z') {
			n++
		}
	}
	return n
}

// served is a daemon with its corpus seeded and its load generator
// ready: the state serve.mix measures.
type served struct {
	d     *daemon
	gen   *loadGen
	suite *corpus
}

// setupServe generates the corpus, builds and starts the daemon, seeds
// its caches with every program and warms it up with mixed traffic.
func setupServe(cfg config) (*served, error) {
	suite, err := suiteCorpus(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	m, err := newMix(cfg.seed, suite)
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon(cfg)
	if err != nil {
		return nil, err
	}
	// Twice the suite's streams: room for them and for a few seconds of
	// edits, so the daemon's heap stops growing early in the window
	// instead of depending on its length.
	d, err := startDaemon(cfg, bin, 2*suite.streams())
	if err != nil {
		return nil, err
	}
	s := &served{d: d, gen: newLoadGen(d.addr, m, cfg.workers), suite: suite}
	if err := s.gen.seed(); err != nil {
		d.stop()
		return nil, err
	}
	warm := s.gen.closedLoop(0, warmupRequests, cfg.workers, nil)
	for _, smp := range warm.samples {
		if !smp.ok {
			d.stop()
			return nil, fmt.Errorf("warm-up request failed: %s", s.gen.firstErr())
		}
	}
	return s, nil
}

// latencies returns the samples' latencies in ascending order.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latencyMS
	}
	return sorted(out)
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += btoi(!s.ok)
	}
	return n
}

// runServe measures serve.mix: untraced for the end-to-end metrics,
// traced for the per-layer ones.
func runServe(cfg config, traced bool) (*runResult, error) {
	current := make(chan *daemon)
	defer close(current)
	go stopOnSignal(current)

	repeats := setupRepeats
	if traced {
		repeats = 1 // the traced run reports no set-up time
	}
	var s *served
	var setups []float64
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.d.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = setupServe(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		current <- s.d
	}
	defer s.d.stop()
	if traced {
		return traceServe(cfg, s)
	}

	var tl tally
	instrs := 0
	for _, body := range s.gen.first["/compile"] {
		var resp wireResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		instrs += listingInstrs(resp.Listing)
	}

	alloc0, err := s.d.totalAllocMB()
	if err != nil {
		return nil, err
	}
	open := s.gen.openLoop(openLoopRate, cfg.window()*2/3, cfg.workers, nil)
	alloc1, err := s.d.totalAllocMB()
	if err != nil {
		return nil, err
	}
	closed := s.gen.closedLoop(cfg.window()/3, 0, cfg.workers, nil)

	tl.add(len(open.samples), countFailed(open.samples), "open loop: "+s.gen.firstErr())
	tl.add(len(closed.samples), countFailed(closed.samples), "closed loop: "+s.gen.firstErr())
	s.gen.verifyKept(&tl)
	refs, err := seqReferences(s.suite)
	if err != nil {
		return nil, err
	}
	if err := checkAgainstGolden(cfg, s.suite, refs, &tl); err != nil {
		return nil, err
	}

	lat := latencies(open.samples)
	okBytes, okCount := 0, 0
	for _, smp := range closed.samples {
		if smp.ok {
			okBytes += smp.srcBytes
			okCount++
		}
	}
	var late []float64
	for _, smp := range open.samples {
		late = append(late, smp.lateMS)
	}
	late = sorted(late)

	res := newRunResult(wlServeMix, false)
	p50, p95, p99 := percentile(lat, 50), percentile(lat, serveTailPercentile), percentile(lat, 99)
	res.set("setup_s", median(setups))
	res.set("compile_ms", p50)
	res.set("tail_ms", p95)
	res.set("src_mb_per_s", float64(okBytes)/1e6/closed.elapsed.Seconds())
	res.set("alloc_mb", (alloc1-alloc0)/float64(len(open.samples)))
	res.set("code_instrs", float64(instrs))
	ex := res.Extras
	ex["serve_p50_ms"] = metricValue{p50, "ms"}
	ex["serve_p95_ms"] = metricValue{p95, "ms"}
	ex["serve_p99_ms"] = metricValue{p99, "ms"}
	ex["serve_p99_within_limit"] = metricValue{float64(btoi(p99 <= latencyLimitMS)), "bool"}
	ex["serve_rps"] = metricValue{float64(okCount) / closed.elapsed.Seconds(), "1/s"}
	ex["open_loop_rate"] = metricValue{openLoopRate, "1/s"}
	ex["open_loop_requests"] = metricValue{float64(len(open.samples)), "count"}
	ex["closed_loop_requests"] = metricValue{float64(len(closed.samples)), "count"}
	ex["gen_late_p99_ms"] = metricValue{percentile(late, 99), "ms"}
	ex["gen_late_max_ms"] = metricValue{late[len(late)-1], "ms"}
	ex["tail_percentile_supported"] = metricValue{highestSupported(len(lat)), "%"}
	ex["daemon_peak_rss_mb"] = metricValue{s.d.peakRSSMB(), "MB"}
	res.finish(tl)
	return res, nil
}

// serveLayerMetrics are the per-layer metrics only the daemon produces.
var serveLayerMetrics = []string{
	"m2cd_admitted", "m2cd_shed", "m2cd_service_ms", "serve_queue_ms",
	"m2cd_stream_hit_share", "m2cd_iface_hit_share", "m2cd_occupancy",
	"serve_rps", "gen_late_p99_ms", "gen_late_max_ms",
}

// traceServe is the traced run of serve.mix: a quarter of the window of
// traced open-loop traffic for the daemon's own counters, two short
// closed-loop phases with and without spans for the tracing overhead,
// and half the window of in-process layer probes on the same programs,
// compiled the way the daemon compiles them — shared warm caches, one
// procedure edited per compilation.
func traceServe(cfg config, s *served) (*runResult, error) {
	var tl tally
	tr := newTracer(wlServeMix)
	res := newRunResult(wlServeMix, true)
	window := cfg.window()

	m0, err := s.d.metrics()
	if err != nil {
		return nil, err
	}
	open := s.gen.openLoop(openLoopRate, window/4, cfg.workers, tr)
	m1, err := s.d.metrics()
	if err != nil {
		return nil, err
	}
	plain := s.gen.closedLoop(window/8, 0, cfg.workers, nil)
	spanned := s.gen.closedLoop(window/8, 0, cfg.workers, tr)
	for _, ph := range []phase{open, plain, spanned} {
		tl.add(len(ph.samples), countFailed(ph.samples), s.gen.firstErr())
	}
	s.gen.verifyKept(&tl)
	s.d.stop() // the probes below get the machine to themselves

	delta := func(name string) float64 { return m1[name] - m0[name] }
	lat := latencies(open.samples)
	clientMean := 0.0
	var late []float64
	for _, smp := range open.samples {
		clientMean += smp.latencyMS / float64(len(open.samples))
		late = append(late, smp.lateMS)
	}
	late = sorted(late)
	serviceMS := share(delta("m2cd_request_duration_ms_sum"), delta("m2cd_request_duration_ms_count"))
	streamHits, streamMisses := delta("m2cd_stream_cache_hits_total"), delta("m2cd_stream_cache_misses_total")
	ifaceHits := delta("m2cd_iface_cache_hits_total")
	ifaceAll := ifaceHits + delta("m2cd_iface_cache_misses_total") + delta("m2cd_iface_cache_waits_total")
	res.set("m2cd_admitted", delta("m2cd_admitted_total"))
	res.set("m2cd_shed", delta("m2cd_shed_queue_full_total"))
	res.set("m2cd_service_ms", serviceMS)
	res.set("serve_queue_ms", clientMean-serviceMS)
	res.set("m2cd_stream_hit_share", share(streamHits, streamHits+streamMisses))
	res.set("m2cd_iface_hit_share", share(ifaceHits, ifaceAll))
	res.set("m2cd_occupancy", share(delta("m2cd_worker_occupancy_sum"), delta("m2cd_worker_occupancy_count")))
	res.set("serve_rps", float64(len(plain.samples)-countFailed(plain.samples))/plain.elapsed.Seconds())
	res.set("gen_late_p99_ms", percentile(late, 99))
	res.set("gen_late_max_ms", late[len(late)-1])
	res.set("trace_overhead_pct", 100*(percentile(latencies(spanned.samples), 50)/percentile(latencies(plain.samples), 50)-1))
	res.Extras["serve_p50_ms"] = metricValue{percentile(lat, 50), "ms"}
	res.Extras["serve_p99_ms"] = metricValue{percentile(lat, 99), "ms"}
	res.Extras["open_loop_requests"] = metricValue{float64(len(open.samples)), "count"}

	w := &compileWL{name: wlServeMix, cfg: cfg, c: s.suite}
	if err := w.seedCaches(); err != nil {
		return nil, err
	}
	if err := traceLayers(w, cfg, window/2, tr, &tl, res); err != nil {
		return nil, err
	}
	if err := finishTrace(cfg, tr, res); err != nil {
		return nil, err
	}
	res.finish(tl)
	return res, nil
}
