// m2cd's server: admission control, deadlines, per-client circuit
// breakers, and the HTTP surface.
//
// The daemon multiplexes many concurrent compile/lint requests onto
// one process-wide interface cache and a bounded pool of in-flight
// compilations.  Robustness is the organising principle:
//
//   - Admission control: at most maxInflight compilations run at once
//     (a semaphore), at most queueDepth more may wait for a slot.
//     Beyond that the daemon sheds load with 429 + Retry-After derived
//     from the observed service time, instead of queueing unboundedly.
//   - Deadlines: every request carries a deadline (defaulted and
//     capped by the server).  Its context's Done channel is passed to
//     the compiler as Options.Cancel, so an expired request releases
//     its Supervisor slots and cache leaderships promptly instead of
//     finishing work nobody will read.
//   - Circuit breaker: a client whose requests keep faulting the
//     concurrent pipeline is routed to the sequential compiler
//     (slower, byte-identical output) until a cooldown passes, keeping
//     one pathological workload from thrashing the shared pool.
//   - Graceful drain: SIGTERM stops admission (readyz flips to 503),
//     in-flight requests finish under the drain deadline, and the
//     final metrics snapshot is flushed before exit.
//
// Response bodies are a pure function of the request: routing
// metadata (concurrent vs sequential, stream counts, fallback) rides
// in X-M2cd-* headers so that the body of any two successful responses
// to the same request is byte-identical — across fault injection,
// breaker state, and scheduling. The chaos tests rely on this.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"m2cc"
	"m2cc/internal/check"
	"m2cc/internal/faultinject"
	"m2cc/internal/obs"
	"m2cc/internal/pool"
)

// config carries the daemon's tunables; main fills it from flags.
type config struct {
	addr            string
	workers         int
	strategy        m2cc.Strategy
	maxInflight     int
	queueDepth      int
	defaultDeadline time.Duration
	maxDeadline     time.Duration
	drainTimeout    time.Duration
	stallTimeout    time.Duration
	breakerTrips    int
	breakerCooldown time.Duration
	slowDelay       time.Duration // latency injected by an armed SlowRequest point
	ifaceCap        int           // interface-cache entry cap (0 = unbounded)
	streamCap       int           // stream-cache entry cap (0 = unbounded)
	plan            *faultinject.Plan
	metricsOut      string
	readyFile       string

	traceMode   obs.TraceMode // which admissions get a recording observer
	traceKeep   int           // LRU cap on held traces
	traceSample int           // 1-in-N sampling in sampled mode
	rateLimit   float64       // per-client tokens/sec; 0 disables
	rateBurst   int           // per-client token-bucket burst
}

// validate rejects nonsensical knob settings with a clear error
// before the daemon binds a socket.
func (c *config) validate() error {
	if c.workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", c.workers)
	}
	if c.maxInflight < 1 {
		return fmt.Errorf("-max-inflight must be >= 1 (got %d)", c.maxInflight)
	}
	if c.queueDepth < 0 {
		return fmt.Errorf("-queue must be >= 0 (got %d)", c.queueDepth)
	}
	if c.stallTimeout < 0 {
		return fmt.Errorf("-stall-timeout must be >= 0 (got %v); the daemon never waits forever on a foreign cache leader", c.stallTimeout)
	}
	if c.defaultDeadline <= 0 || c.maxDeadline <= 0 {
		return fmt.Errorf("-deadline and -max-deadline must be positive")
	}
	if c.defaultDeadline > c.maxDeadline {
		return fmt.Errorf("-deadline (%v) must not exceed -max-deadline (%v)", c.defaultDeadline, c.maxDeadline)
	}
	if c.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive")
	}
	if c.breakerTrips < 1 {
		return fmt.Errorf("-breaker-trips must be >= 1 (got %d)", c.breakerTrips)
	}
	if c.ifaceCap < 0 {
		return fmt.Errorf("-iface-cap must be >= 0 (got %d); 0 means unbounded", c.ifaceCap)
	}
	if c.streamCap < 0 {
		return fmt.Errorf("-stream-cap must be >= 0 (got %d); 0 means unbounded", c.streamCap)
	}
	if c.traceMode != obs.TraceOff {
		// The knobs only bind when tracing is on; a zero-value config
		// (tracing off) stays valid.
		if c.traceKeep < 1 {
			return fmt.Errorf("-trace-keep must be >= 1 (got %d)", c.traceKeep)
		}
		if c.traceSample < 1 {
			return fmt.Errorf("-trace-sample must be >= 1 (got %d); 1 traces every admission", c.traceSample)
		}
	}
	if c.rateLimit < 0 {
		return fmt.Errorf("-rate-limit must be >= 0 (got %g); 0 disables the limiter", c.rateLimit)
	}
	if c.rateLimit > 0 && c.rateBurst < 1 {
		return fmt.Errorf("-rate-burst must be >= 1 (got %d)", c.rateBurst)
	}
	return nil
}

// server is the daemon's shared state: one interface cache, one
// admission semaphore, one breaker registry, one metric registry.
type server struct {
	cfg    config
	cache  *m2cc.Cache
	scache *m2cc.StreamCache // process-wide incremental stream cache
	start  time.Time

	sem     chan struct{} // guards: in-flight capacity — holds maxInflight tokens; a compile runs only while holding one
	drainCh chan struct{} // guards: admission shutdown — closed by startDrain; selects racing on sem abort here

	waiting  atomic.Int64 // requests admitted past the capacity check, not yet holding a slot (includes running)
	draining atomic.Bool
	drainOne sync.Once

	breakers breakerSet
	ewmaMu   sync.Mutex // guards: ewmaMS
	ewmaMS   float64    // exponentially weighted service time, the base of Retry-After

	// reg lists every metric family, declared once in newServer; /metrics
	// (JSON and Prometheus) and the drain-time flush render it.  These
	// are its owned cells.
	reg                                               obs.Registry
	admitted, completed, shedQueueFull, rateLimited   atomic.Int64
	rejectedDraining, deadlineCanceled, handlerPanics atomic.Int64
	compileFaults, sequentialServed, breakerOpens     atomic.Int64
	responses, lintFindings                           obs.LabeledCounter // by status code, by finding family
	latency, depth, occupancy, hitRatio               *obs.Histogram     // the histogram families' cells

	traces *obs.TraceStore // per-request trace plane (/debug/trace)
	limits *limiterSet     // per-client token buckets

	logw  io.Writer  // structured request-log sink; nil disables logging
	logMu sync.Mutex // guards: interleaving of request-log lines on logw
}

func newServer(cfg config) *server {
	s := &server{
		cfg:     cfg,
		cache:   m2cc.NewCache(),
		scache:  m2cc.NewStreamCache(cfg.streamCap),
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.maxInflight),
		drainCh: make(chan struct{}),

		latency:   obs.NewHistogram(obs.DefaultLatencyBucketsMS),
		depth:     obs.NewHistogram(obs.DefaultDepthBuckets),
		occupancy: obs.NewHistogram(obs.DefaultDepthBuckets),
		hitRatio:  obs.NewHistogram(obs.DefaultRatioBuckets),
	}
	s.cache.SetLimit(cfg.ifaceCap)
	s.breakers.trips = cfg.breakerTrips
	s.breakers.cooldown = cfg.breakerCooldown
	s.breakers.m = make(map[string]*breakerState)
	s.traces = obs.NewTraceStore(cfg.traceMode, cfg.traceSample, cfg.traceKeep)
	s.limits = newLimiterSet(cfg.rateLimit, cfg.rateBurst)
	s.reg = obs.Registry{ // exposition order
		obs.GaugeFunc("m2cd_uptime_seconds", "Seconds since the daemon started.", func() float64 { return time.Since(s.start).Seconds() }),
		obs.GaugeFunc("m2cd_draining", "1 while the daemon is draining, else 0.", func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		}),
		obs.GaugeFunc("m2cd_waiting", "Requests admitted past the capacity check (queued or running).", func() float64 { return float64(s.waiting.Load()) }),
		obs.GaugeFunc("m2cd_inflight", "Inflight slots held (running compilations).", func() float64 { return float64(len(s.sem)) }),
		obs.GaugeFunc("m2cd_service_ewma_ms", "Exponentially weighted service time in milliseconds.", s.serviceEWMA),
		obs.CounterOf("m2cd_admitted_total", "Requests that acquired an inflight slot.", &s.admitted),
		obs.CounterOf("m2cd_completed_total", "Requests served to completion.", &s.completed),
		obs.CounterOf("m2cd_shed_queue_full_total", "Requests shed with 429 because the admission queue was full.", &s.shedQueueFull),
		obs.CounterOf("m2cd_rate_limited_total", "Requests shed with 429 by the per-client rate limiter.", &s.rateLimited),
		obs.CounterOf("m2cd_rejected_draining_total", "Requests rejected because the daemon was draining.", &s.rejectedDraining),
		obs.CounterOf("m2cd_deadline_canceled_total", "Requests canceled by their deadline.", &s.deadlineCanceled),
		obs.CounterOf("m2cd_handler_panics_total", "Handler panics converted to 500s.", &s.handlerPanics),
		obs.CounterOf("m2cd_compile_faults_total", "Concurrent compilations that faulted.", &s.compileFaults),
		obs.CounterOf("m2cd_sequential_served_total", "Requests served by the sequential path.", &s.sequentialServed),
		obs.CounterOf("m2cd_breaker_opens_total", "Per-client circuit breakers opened.", &s.breakerOpens),
		obs.LabeledOf("m2cd_responses_total", "Responses by HTTP status code.", "code", &s.responses),
		obs.LabeledOf("m2cd_lint_findings_total", "Lint findings reported, by finding-family code.", "family", &s.lintFindings),
		obs.CounterFunc("m2cd_iface_cache_hits_total", "Interface-cache hits.", func() int64 { return s.cache.Stats().Hits }),
		obs.CounterFunc("m2cd_iface_cache_misses_total", "Interface-cache misses (leader compilations).", func() int64 { return s.cache.Stats().Misses }),
		obs.CounterFunc("m2cd_iface_cache_waits_total", "Interface-cache waits behind a leader.", func() int64 { return s.cache.Stats().Waits }),
		obs.CounterFunc("m2cd_iface_cache_bypasses_total", "Interface-cache bypasses (uncacheable requests).", func() int64 { return s.cache.Stats().Bypasses }),
		obs.CounterFunc("m2cd_iface_cache_abandoned_total", "Interface-cache waits abandoned at the stall timeout.", func() int64 { return s.cache.Stats().Abandoned }),
		obs.CounterFunc("m2cd_iface_cache_evictions_total", "Interface-cache LRU evictions.", func() int64 { return s.cache.Stats().Evictions }),
		obs.CounterFunc("m2cd_stream_cache_hits_total", "Stream-cache hits.", func() int64 { return s.scache.Stats().Hits }),
		obs.CounterFunc("m2cd_stream_cache_misses_total", "Stream-cache misses.", func() int64 { return s.scache.Stats().Misses }),
		obs.CounterFunc("m2cd_stream_cache_evictions_total", "Stream-cache LRU evictions.", func() int64 { return s.scache.Stats().Evictions }),
		obs.GaugeFunc("m2cd_stream_cache_entries", "Stream-cache resident entries.", func() float64 { return float64(s.scache.Stats().Entries) }),
		obs.GaugeFunc("m2cd_traces_held", "Request traces held in the LRU ring.", func() float64 { return float64(s.traces.Held()) }),
		obs.CounterFunc("m2cd_trace_admitted_total", "Requests through the trace store's sampling domain.", func() int64 { return int64(s.traces.Admitted()) }),
		obs.HistogramOf("m2cd_request_duration_ms", "Request service time in milliseconds.", s.latency),
		obs.HistogramOf("m2cd_queue_depth", "Queued requests observed at admission.", s.depth),
		obs.HistogramOf("m2cd_worker_occupancy", "Held inflight slots observed at admission.", s.occupancy),
		obs.HistogramOf("m2cd_stream_hit_ratio", "Per-request stream-cache hit ratio.", s.hitRatio),
	}
	return s
}

// handler builds the daemon's routing table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.instrumented(false))
	mux.HandleFunc("/lint", s.instrumented(true))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTraceIndex)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /debug/trace/{id}/profile", s.handleTraceProfile)
	return mux
}

// startDrain flips the daemon into draining: admission stops (new and
// queued requests get 503), readyz reports 503, healthz reports
// "draining".  Idempotent; in-flight requests are unaffected — the
// caller is responsible for http.Server.Shutdown, which waits for
// them.
func (s *server) startDrain() {
	s.drainOne.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// ---- request/response schema ----

type srcFile struct {
	Name string   `json:"name"`
	Kind string   `json:"kind"` // "def" or "mod"
	Text jsonText `json:"text"`
}

type compileRequest struct {
	Module     string    `json:"module"`
	Sources    []srcFile `json:"sources"`
	Workers    int       `json:"workers,omitempty"`
	Strategy   string    `json:"strategy,omitempty"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	Trace      bool      `json:"trace,omitempty"`
	Client     string    `json:"client,omitempty"`
}

// maxBody caps a request body; a larger one is answered 413.
const maxBody = 8 << 20

// compileReply is deliberately a pure function of the request: listing,
// diagnostics, and findings are byte-identical however the request was
// served (concurrent, sequential-breaker, fallback).  Schedule-dependent
// metadata travels in X-M2cd-* headers instead.
type compileReply struct {
	module   string
	ok       bool
	object   *m2cc.Object // its listing is sent when ok and not lint
	diags    string
	lint     bool
	findings []m2cc.Finding
	trace    []byte // inline Chrome trace, when the client asked for one
}

type errorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ---- handlers ----

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the metric registry as JSON, or as Prometheus
// text under ?format=prometheus; the scrape itself is counted after.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		buf := bytes.NewBuffer(respBufs.Get()[:0])
		s.reg.WritePrometheus(buf)
		s.send(w, http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", buf.Bytes(), nil)
		return
	}
	s.writeJSON(w, http.StatusOK, s.reg)
}

// handleCompile serves /compile or /lint, filling w's record.
func (s *server) handleCompile(w *statusRecorder, r *http.Request, lint bool) {
	// A handler panic (an armed PanicHandler injection too) becomes a
	// well-formed 500 instead of a dropped connection.  This defer runs
	// last, so the admission slot is released as the panic unwinds and a
	// crashed request never leaks capacity.
	defer func() {
		if p := recover(); p != nil {
			s.handlerPanics.Add(1)
			s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal: handler panic: %v", p), 0)
		}
	}()
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
		return
	}
	// The pooled body, grown once to a declared length, goes back at once:
	// every string is copied out of it (a text once, by jsonText), so no
	// source text, nor a cache's substring of one, aliases it.
	var req compileRequest
	body := bytes.NewBuffer(bodyBufs.Get()[:0])
	if n := r.ContentLength; n > 0 && n <= maxBody {
		body.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		if err = json.Unmarshal(body.Bytes(), &req); err != nil {
			err = decodeError(body.Bytes())
		}
	}
	bodyBufs.Put(body.Bytes())
	if err != nil {
		status, tooBig := http.StatusBadRequest, (*http.MaxBytesError)(nil)
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, "bad request: "+err.Error(), 0)
		return
	}
	if req.Module == "" || len(req.Sources) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad request: module and sources are required", 0)
		return
	}
	loader := m2cc.NewMapLoader()
	for _, f := range req.Sources {
		var kind m2cc.FileKind
		switch strings.ToLower(f.Kind) {
		case "def":
			kind = m2cc.Def
		case "mod":
			kind = m2cc.Impl
		default:
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("bad request: source %q has unknown kind %q (want def or mod)", f.Name, f.Kind), 0)
			return
		}
		loader.Add(f.Name, kind, string(f.Text))
	}
	strategy := s.cfg.strategy
	if req.Strategy != "" {
		if strategy, err = m2cc.ParseStrategy(req.Strategy); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad request: "+err.Error(), 0)
			return
		}
	}
	workers := s.cfg.workers
	if req.Workers > 0 && req.Workers < workers {
		workers = req.Workers
	}

	// Deadline: requested, defaulted, and capped.  The context carries
	// it into the compiler as a cancellation channel.  A negative
	// deadline is a client bug, not a request for "no deadline" — were
	// it silently defaulted the client would believe its bound was
	// honored (mirrors m2c's -stall-timeout rejection).
	if req.DeadlineMS < 0 {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("bad request: deadline_ms must not be negative (got %d); a negative deadline would never expire", req.DeadlineMS), 0)
		return
	}
	deadline := s.cfg.defaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.maxDeadline {
		deadline = s.cfg.maxDeadline
	}
	// The request context already propagates client disconnect; the
	// timeout adds the service deadline.
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// Client identity, resolved before admission: the rate limiter and
	// the circuit breaker key on it, and the request log reports it even
	// for shed requests.
	client := req.Client
	if client == "" {
		client = r.Header.Get("X-Client")
	}
	if client == "" {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			client = host
		} else {
			client = r.RemoteAddr
		}
	}
	w.client = client

	// ---- admission ----
	if s.draining.Load() {
		s.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	// Connection-level rate limit, before the shared queue: a client
	// over its budget is shed without consuming queue capacity, with a
	// Retry-After saying when its next token refills.
	if ok, retry := s.limits.allow(client, time.Now()); !ok {
		s.rateLimited.Add(1)
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("rate limited: client %q over %g req/s", client, s.cfg.rateLimit), retry)
		return
	}
	if n := s.waiting.Add(1); n > int64(s.cfg.maxInflight+s.cfg.queueDepth) {
		s.waiting.Add(-1)
		retry := s.retryAfter()
		s.shedQueueFull.Add(1)
		s.writeError(w, http.StatusTooManyRequests, "overloaded: admission queue full", retry)
		return
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.deadlineCanceled.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "deadline exceeded while queued", s.retryAfter())
		return
	case <-s.drainCh:
		s.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	defer func() { <-s.sem }()
	s.admitted.Add(1)

	// Telemetry at the admission edge: every admitted request gets a
	// trace ID (client-chosen via X-M2cd-Trace or generated); sampling
	// decides whether an Observer records it.  The ID rides back in the
	// response header — never the body, which stays a pure function of
	// the request.  The record holds the entry, so the instrumented
	// middleware finishes this request's own entry on every exit path,
	// including panics unwinding through this frame.
	w.trace, w.entry = s.traces.Admit(r.Header.Get("X-M2cd-Trace"))
	occupied := len(s.sem)
	s.depth.Observe(float64(max(int(s.waiting.Load())-occupied, 0)))
	s.occupancy.Observe(float64(occupied))

	// Fault-injection points, post-admission: the deferred slot
	// release above must survive both.
	s.cfg.plan.Panic(faultinject.PanicHandler, r.URL.Path)
	if s.cfg.plan.Hit(faultinject.SlowRequest) && s.cfg.slowDelay > 0 {
		t := time.NewTimer(s.cfg.slowDelay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}

	// ---- service ----
	began := time.Now()
	if s.breakers.sequential(client, time.Now()) {
		s.serveSequential(w, req, loader, lint)
		s.observeService(time.Since(began))
		return
	}

	opts := m2cc.Options{
		Workers:      workers,
		Strategy:     strategy,
		Cache:        s.cache,
		StreamCache:  s.scache,
		StallTimeout: s.cfg.stallTimeout,
		Check:        lint,
		FaultPlan:    s.cfg.plan,
		Cancel:       ctx.Done(),
	}
	// One observer serves both consumers: the stored trace entry (when
	// this admission was sampled) and the response's inline trace (when
	// the client asked for one).  Sharing it keeps the recording cost to
	// one trace.
	var observer *m2cc.Observer
	if w.entry != nil {
		observer = w.entry.Obs
	} else if req.Trace {
		observer = m2cc.NewObserver()
	}
	if observer != nil {
		opts.Obs = observer
	}
	res := m2cc.Compile(req.Module, loader, opts)
	s.observeService(time.Since(began))

	if res.Canceled {
		s.deadlineCanceled.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "deadline exceeded", s.retryAfter())
		return
	}
	s.completed.Add(1)
	if res.Faulted {
		s.compileFaults.Add(1)
	}
	if s.breakers.record(client, res.Faulted, time.Now()) {
		s.breakerOpens.Add(1)
	}

	reply := compileReply{module: req.Module, ok: !res.Failed(), object: res.Object, diags: res.Diags.String(), lint: lint, findings: res.Findings}
	// The inline trace is gated on the *client's* request alone — a
	// server-side sampling decision must never change the body, or two
	// identical requests would stop being byte-identical.
	if req.Trace && observer != nil {
		var buf bytes.Buffer
		if err := observer.WriteChromeTrace(&buf); err == nil {
			reply.trace = buf.Bytes()
		}
	}
	w.serve, w.streams, w.tally, w.fellBack = "concurrent", res.Streams, res.StreamCache, res.FellBack
	s.writeCompile(w, &reply)
}

// serveSequential answers a breaker-tripped client through the
// sequential compiler: slower, no concurrency to fault, byte-identical
// listing and diagnostics.  Like Compile's fault fallback it runs
// without the shared interface cache, so it never waits on another
// compilation's leader nor publishes what a faulting client compiled.
func (s *server) serveSequential(w *statusRecorder, req compileRequest, loader m2cc.Loader, lint bool) {
	s.sequentialServed.Add(1)
	s.completed.Add(1)
	sres := m2cc.CompileSequential(req.Module, loader)
	reply := compileReply{module: req.Module, ok: !sres.Failed(), object: sres.Object, diags: sres.Diags.String(), lint: lint}
	if lint {
		reply.findings = m2cc.Lint(req.Module, loader)
	}
	w.serve = "sequential"
	s.writeCompile(w, &reply)
}

// ---- response plumbing ----

// The daemon's buffers, one free list per role (DESIGN.md, "Buffer
// ownership"): request bodies and encoded responses.
var bodyBufs, respBufs = newBufList(), newBufList()

func newBufList() *pool.List[[]byte] {
	return &pool.List[[]byte]{New: func() []byte { return nil }, Size: func(b []byte) int { return cap(b) }, Spans: true}
}

// writeCompile sends {"module","ok","listing","diags","findings","trace"},
// empty fields omitted but lint's findings.  The listing is rendered into
// the response, and its quoted form, appended after it, moves down over it.
func (s *server) writeCompile(w http.ResponseWriter, c *compileReply) {
	if c.lint {
		if hdr := s.countFindings(c.findings); hdr != "" {
			w.Header().Set("X-M2cd-Findings", hdr)
		}
	}
	b := appendJSONString(append(respBufs.Get()[:0], `{"module":`...), c.module)
	b = strconv.AppendBool(append(b, `,"ok":`...), c.ok)
	if c.ok && !c.lint && c.object != nil {
		b = append(b, `,"listing":`...)
		at := len(b)
		b = c.object.AppendListing(b)
		end := len(b)
		b = appendJSONString(slices.Grow(b, end-at+(end-at)/8+2), b[at:end]) // grown once: each line escapes its newline
		b = b[:at+copy(b[at:], b[end:])]
	}
	if c.diags != "" {
		b = appendJSONString(append(b, `,"diags":`...), c.diags)
	}
	var err error
	if c.lint {
		b, err = appendJSON(append(b, `,"findings":`...), check.JSON(c.findings))
	}
	if len(c.trace) > 0 && err == nil {
		b, err = appendJSON(append(b, `,"trace":`...), json.RawMessage(c.trace))
	}
	s.send(w, http.StatusOK, "application/json", append(b, "}\n"...), err)
}

// writeJSON encodes v as json.Marshal does, plus a newline.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := appendJSON(respBufs.Get()[:0], v)
	s.send(w, status, "application/json", append(b, '\n'), err)
}

// appendJSON appends v as json.Marshal encodes it.
func appendJSON(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	err := json.NewEncoder(buf).Encode(v)
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), err
}

// send writes b, a response from respBufs encoded in full before the
// ResponseWriter is touched — so a response is either complete or
// absent, never truncated — and returns b once the write is done.
func (s *server) send(w http.ResponseWriter, status int, contentType string, b []byte, encErr error) {
	defer respBufs.Put(b)
	if encErr != nil {
		s.countStatus(http.StatusInternalServerError)
		http.Error(w, "internal: encode response", http.StatusInternalServerError)
		return
	}
	s.countStatus(status)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
}

// appendJSONString appends s quoted as encoding/json encodes a string:
// ", \ and control bytes escaped, and also <, >, &, U+2028 and U+2029,
// with each byte of invalid UTF-8 as \ufffd.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	const hex, short = "0123456789abcdef", "\"\\\n\r\t\b\f"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		}
		if r >= ' ' && r != '"' && r != '\\' && r != '<' && r != '>' && r != '&' &&
			r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		if k := strings.IndexRune(short, r); k >= 0 {
			b = append(b, '\\', `"\nrtbf`[k])
		} else { // \ufffd for an invalid byte, which decodes as utf8.RuneError
			b = append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// decodeError decodes a body that failed to decode once more, into a
// twin of compileRequest whose texts are plain strings, and returns
// encoding/json's error: its first bad field's, as a request answered
// before jsonText did.  (A jsonText's type error stops the decode at
// the text; a string field's is kept while the decode goes on.)  The
// twin's types carry the names the error quotes.
func decodeError(body []byte) error {
	type srcFile struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
		Text string `json:"text"`
	}
	type compileRequest struct {
		Module     string    `json:"module"`
		Sources    []srcFile `json:"sources"`
		Workers    int       `json:"workers,omitempty"`
		Strategy   string    `json:"strategy,omitempty"`
		DeadlineMS int64     `json:"deadline_ms,omitempty"`
		Trace      bool      `json:"trace,omitempty"`
		Client     string    `json:"client,omitempty"`
	}
	return json.Unmarshal(body, new(compileRequest))
}

// jsonText is a source text, decoded from the literal in the request body
// into one string of exact size: encoding/json would unescape it into a
// buffer and copy that again.
type jsonText string

// UnmarshalJSON decodes b, a JSON value encoding/json has validated, as
// encoding/json decodes one into a string: null is a no-op, and a value
// but a string is an UnmarshalTypeError (json.Unmarshal adds the field).
func (t *jsonText) UnmarshalJSON(b []byte) error {
	switch b[0] {
	case 'n':
		return nil
	case '"':
		var w strings.Builder
		w.Grow(unquote(nil, b[1:len(b)-1]))
		unquote(&w, b[1:len(b)-1])
		*t = jsonText(w.String())
		return nil
	}
	kind := map[byte]string{'{': "object", '[': "array", 't': "bool", 'f': "bool"}[b[0]]
	return &json.UnmarshalTypeError{Value: cmp.Or(kind, "number"), Type: reflect.TypeFor[string]()}
}

// unquote decodes s, the inside of a JSON string literal, into w (or only
// measures it, when w is nil) and returns the decoded length.  An invalid
// UTF-8 byte, or a \u surrogate not paired by the next \u, is U+FFFD.
func unquote(w *strings.Builder, s []byte) (n int) {
	start := 0
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r == '\\' {
			if k := strings.IndexByte(`"\/bfnrt`, s[i+1]); k >= 0 {
				r, size = rune("\"\\/\b\f\n\r\t"[k]), 2
			} else if r, size = getu4(s[i:]), 6; utf16.IsSurrogate(r) {
				if r, size = utf16.DecodeRune(r, getu4(s[i+6:])), 12; r == utf8.RuneError {
					size = 6
				}
			}
		} else if r < utf8.RuneSelf {
			i++
			continue
		} else if r, size = utf8.DecodeRune(s[i:]); r != utf8.RuneError || size > 1 {
			i += size
			continue
		}
		if n += i - start + utf8.RuneLen(r); w != nil {
			w.Write(s[start:i])
			w.WriteRune(r)
		}
		i += size
		start = i
	}
	if w != nil {
		w.Write(s[start:])
	}
	return n + len(s) - start
}

// getu4 reads the \uXXXX escape e starts with, or returns -1.
func getu4(e []byte) rune {
	if len(e) < 6 || e[0] != '\\' || e[1] != 'u' {
		return -1
	}
	v, _ := strconv.ParseUint(string(e[2:6]), 16, 32)
	return rune(v)
}

// writeError emits a JSON error body; retry > 0 adds Retry-After (in
// whole seconds, floored at 1) plus the precise retry_after_ms field.
func (s *server) writeError(w http.ResponseWriter, status int, msg string, retry time.Duration) {
	e := errorResponse{Error: msg}
	if retry > 0 {
		secs := int64((retry + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		e.RetryAfterMS = retry.Milliseconds()
	}
	s.writeJSON(w, status, e)
}

// ---- metrics ----

// countFindings folds one lint report into the per-family counters and
// returns the X-M2cd-Findings header value: sorted family=count pairs
// (e.g. "conc-guard=2,uninit=1"), empty when the report is clean.  Like
// the other X-M2cd-* headers this is routing/telemetry metadata — the
// response body stays a pure function of the request.
func (s *server) countFindings(findings []m2cc.Finding) string {
	if len(findings) == 0 {
		return ""
	}
	perFamily := map[string]int64{}
	for _, f := range findings {
		code := f.Code
		if code == "" {
			code = "uncoded"
		}
		perFamily[code]++
	}
	codes := make([]string, 0, len(perFamily))
	for code, n := range perFamily {
		s.lintFindings.Add(code, n)
		codes = append(codes, code)
	}
	sort.Strings(codes)
	var b strings.Builder
	for i, code := range codes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", code, perFamily[code])
	}
	return b.String()
}

func (s *server) countStatus(code int) {
	s.responses.Add(strconv.Itoa(code), 1)
}

// observeService folds one completed request's service time into the
// EWMA that Retry-After estimates are derived from.
func (s *server) observeService(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	s.ewmaMu.Lock()
	if s.ewmaMS == 0 {
		s.ewmaMS = ms
	} else {
		const alpha = 0.2
		s.ewmaMS = alpha*ms + (1-alpha)*s.ewmaMS
	}
	s.ewmaMu.Unlock()
}

func (s *server) serviceEWMA() float64 {
	s.ewmaMu.Lock()
	defer s.ewmaMu.Unlock()
	return s.ewmaMS
}

// retryAfter estimates when a shed client should retry: the observed
// service time scaled by how many service turns the backlog represents.
func (s *server) retryAfter() time.Duration {
	ewma := s.serviceEWMA()
	if ewma <= 0 {
		ewma = 250 // no completions yet; a deliberate guess
	}
	turns := float64(s.waiting.Load())/float64(s.cfg.maxInflight) + 1
	d := time.Duration(ewma*turns) * time.Millisecond
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// ---- per-client circuit breaker ----

// breakerSet tracks consecutive concurrent-pipeline faults per client.
// After trips consecutive faults the client's breaker opens for
// cooldown: its requests are served by the sequential compiler (same
// bytes, no shared-pool thrash).  The first post-cooldown request
// probes the concurrent path half-open — one more fault re-opens
// immediately, a clean result closes the breaker.
type breakerSet struct {
	mu       sync.Mutex // guards: m and each *breakerState inside it
	trips    int
	cooldown time.Duration
	m        map[string]*breakerState
}

type breakerState struct {
	fails     int       // consecutive faults
	openUntil time.Time // zero when closed
	halfOpen  bool      // probing after cooldown
}

// sequential reports whether this client's next request must take the
// sequential path.  A cooled-down breaker transitions to half-open and
// lets the request probe the concurrent path.
func (b *breakerSet) sequential(client string, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.m[client]
	if st == nil || st.openUntil.IsZero() {
		return false
	}
	if now.Before(st.openUntil) {
		return true
	}
	// Cooldown over: half-open probe.
	st.openUntil = time.Time{}
	st.halfOpen = true
	st.fails = 0
	return false
}

// record folds one concurrent-path outcome into the client's breaker
// and reports whether the breaker opened on this call.
func (b *breakerSet) record(client string, faulted bool, now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.m[client]
	if st == nil {
		st = &breakerState{}
		b.m[client] = st
	}
	if !faulted {
		st.fails = 0
		st.halfOpen = false
		return false
	}
	st.fails++
	if st.halfOpen || st.fails >= b.trips {
		st.openUntil = now.Add(b.cooldown)
		st.halfOpen = false
		st.fails = 0
		return true
	}
	return false
}
