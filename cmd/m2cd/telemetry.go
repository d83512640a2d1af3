// m2cd's telemetry plane: rolling histograms and windows over the
// serving path, per-request traces behind /debug/trace, Prometheus
// text exposition behind /metrics?format=prometheus, a live SSE feed,
// and structured JSON request logs.
//
// The instrumented middleware is the single choke point: it wraps
// /compile and /lint, stamps every response's latency into the
// histograms and windows, closes the request's trace entry (the
// handler only opens it), and emits one JSON log line.  Putting the
// bookkeeping here rather than in the handler keeps it on every exit
// path — shed, canceled, panicked — without threading state through
// each early return.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"m2cc"
	"m2cc/internal/obs"
)

// telemetry aggregates the serving path's request-scoped measurements:
// process-lifetime histograms (Prometheus exposition) and one-minute
// rolling windows (/debug/vars, the SSE feed).
type telemetry struct {
	latency   *obs.Histogram // service time of every /compile and /lint response, ms
	depth     *obs.Histogram // queued requests observed at each admission
	occupancy *obs.Histogram // held inflight slots observed at each admission
	hitRatio  *obs.Histogram // per-request stream-cache hit ratio (probed requests only)

	winLatency  *obs.Rolling // latency series
	winInflight *obs.Rolling // occupancy series
	winShed     *obs.Rolling // one point per 429/503 response
	winHits     *obs.Rolling // stream-cache hit-ratio series
}

func newTelemetry() *telemetry {
	const slots = 60 // one minute of per-second slots
	return &telemetry{
		latency:     obs.NewHistogram(obs.DefaultLatencyBucketsMS),
		depth:       obs.NewHistogram(obs.DefaultDepthBuckets),
		occupancy:   obs.NewHistogram(obs.DefaultDepthBuckets),
		hitRatio:    obs.NewHistogram(obs.DefaultRatioBuckets),
		winLatency:  obs.NewRolling(slots, time.Second),
		winInflight: obs.NewRolling(slots, time.Second),
		winShed:     obs.NewRolling(slots, time.Second),
		winHits:     obs.NewRolling(slots, time.Second),
	}
}

// observeAdmission records the queue depth and slot occupancy seen by
// one request at the moment it acquired its slot.
func (t *telemetry) observeAdmission(queued, occupied int) {
	if t == nil {
		return
	}
	t.depth.Observe(float64(queued))
	t.occupancy.Observe(float64(occupied))
	t.winInflight.Add(float64(occupied))
}

// observeResponse folds one finished request (any status, any exit
// path) into the histograms and windows.  Stream-cache traffic is read
// from the response headers — the same numbers the client sees.
func (t *telemetry) observeResponse(status int, durMS float64, hdr http.Header) {
	if t == nil {
		return
	}
	t.latency.Observe(durMS)
	t.winLatency.Add(durMS)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		t.winShed.Add(1)
	}
	hits := headerInt(hdr, "X-M2cd-Stream-Hits")
	misses := headerInt(hdr, "X-M2cd-Stream-Misses")
	if probed := hits + misses; probed > 0 {
		ratio := float64(hits) / float64(probed)
		t.hitRatio.Observe(ratio)
		t.winHits.Add(ratio)
	}
}

func headerInt(h http.Header, key string) int {
	n, _ := strconv.Atoi(h.Get(key))
	return n
}

// ---- instrumented middleware ----

// statusRecorder captures the status code written through it so the
// instrumented middleware can attribute the response after the handler
// returns.  The handler deposits the client identity it resolved (body
// field, header, or remote address) in client — same goroutine, no
// lock needed.
type statusRecorder struct {
	http.ResponseWriter
	status int
	client string
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrumented wraps a compile/lint handler with the per-request
// bookkeeping: latency histograms and windows, trace-entry completion,
// and the structured request log.  It runs outside recoverPanic so a
// panicked handler's 500 is still recorded and its trace entry still
// unpinned — otherwise a crashed traced request would pin its LRU slot
// forever.
func (s *server) instrumented(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		began := time.Now()
		h(rec, r)
		durMS := float64(time.Since(began)) / float64(time.Millisecond)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		s.tel.observeResponse(status, durMS, rec.Header())
		streams := headerInt(rec.Header(), "X-M2cd-Streams")
		servePath := rec.Header().Get("X-M2cd-Path")
		if id := rec.Header().Get("X-M2cd-Trace"); id != "" {
			if e := s.traces.Get(id); e != nil && !e.Done {
				e.Obs.Finish()
				s.traces.Finish(e, rec.client, r.URL.Path, servePath, status, durMS, streams)
			}
		}
		s.logRequest(r, rec, status, servePath, durMS, streams)
	}
}

// requestLog is one structured log line: everything needed to join a
// log entry to its trace, client, and serving decision.
type requestLog struct {
	Time     string  `json:"time"`
	Trace    string  `json:"trace,omitempty"`
	Client   string  `json:"client,omitempty"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Status   int     `json:"status"`
	Serve    string  `json:"serve,omitempty"` // concurrent | sequential
	DurMS    float64 `json:"dur_ms"`
	Streams  int     `json:"streams,omitempty"`
	Hits     int     `json:"stream_hits,omitempty"`
	Misses   int     `json:"stream_misses,omitempty"`
	Fellback bool    `json:"fellback,omitempty"`
}

// logRequest emits one JSON line per served request; a nil logw (the
// test default) disables logging without disabling the recorder.
func (s *server) logRequest(r *http.Request, rec *statusRecorder, status int, servePath string, durMS float64, streams int) {
	if s.logw == nil {
		return
	}
	entry := requestLog{
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		Trace:    rec.Header().Get("X-M2cd-Trace"),
		Client:   rec.client,
		Method:   r.Method,
		Path:     r.URL.Path,
		Status:   status,
		Serve:    servePath,
		DurMS:    durMS,
		Streams:  streams,
		Hits:     headerInt(rec.Header(), "X-M2cd-Stream-Hits"),
		Misses:   headerInt(rec.Header(), "X-M2cd-Stream-Misses"),
		Fellback: rec.Header().Get("X-M2cd-Fellback") == "1",
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.logw.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// ---- /debug/trace ----

func (s *server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Mode     string             `json:"mode"`
		Held     int                `json:"held"`
		Admitted uint64             `json:"admitted"`
		Traces   []obs.TraceSummary `json:"traces"`
	}{
		Mode:     s.traces.Mode().String(),
		Held:     s.traces.Held(),
		Admitted: s.traces.Admitted(),
		Traces:   s.traces.Summaries(),
	})
}

// handleTraceGet serves one trace as Chrome/Perfetto trace-event JSON
// — the same format m2c -trace writes, so tracecheck and the Perfetto
// UI both accept it.  In-flight traces are served too; the observer's
// snapshot is always coherent.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := s.traces.Get(id)
	if e == nil {
		s.writeError(w, http.StatusNotFound, "unknown trace "+id, 0)
		return
	}
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	e.Obs.WriteChromeTrace(w)
}

// handleTraceProfile serves the critical-path + blame report for one
// request: text by default, the machine-readable profile under
// ?format=json.
func (s *server) handleTraceProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := s.traces.Get(id)
	if e == nil {
		s.writeError(w, http.StatusNotFound, "unknown trace "+id, 0)
		return
	}
	p := m2cc.BuildProfile(e.Obs)
	s.countStatus(http.StatusOK)
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		p.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, p.Render(30))
}

// ---- /debug/vars ----

func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	type traceVars struct {
		Mode     string `json:"mode"`
		Held     int    `json:"held"`
		Admitted uint64 `json:"admitted"`
	}
	s.writeJSON(w, http.StatusOK, struct {
		UptimeMS   int64                            `json:"uptime_ms"`
		Trace      traceVars                        `json:"trace"`
		Windows    map[string]obs.RollingSnapshot   `json:"windows"`
		Histograms map[string]obs.HistogramSnapshot `json:"histograms"`
	}{
		UptimeMS: time.Since(s.start).Milliseconds(),
		Trace: traceVars{
			Mode:     s.traces.Mode().String(),
			Held:     s.traces.Held(),
			Admitted: s.traces.Admitted(),
		},
		Windows: map[string]obs.RollingSnapshot{
			"latency_ms":       s.tel.winLatency.Snapshot(),
			"inflight":         s.tel.winInflight.Snapshot(),
			"shed":             s.tel.winShed.Snapshot(),
			"stream_hit_ratio": s.tel.winHits.Snapshot(),
		},
		Histograms: map[string]obs.HistogramSnapshot{
			"latency_ms":       s.tel.latency.Snapshot(),
			"queue_depth":      s.tel.depth.Snapshot(),
			"occupancy":        s.tel.occupancy.Snapshot(),
			"stream_hit_ratio": s.tel.hitRatio.Snapshot(),
		},
	})
}

// ---- /debug/live (SSE) ----

// liveSample is one SSE frame: the operator's at-a-glance view of the
// serving path, refreshed about once a second.
type liveSample struct {
	UptimeMS       int64   `json:"uptime_ms"`
	Inflight       int     `json:"inflight"`
	Waiting        int64   `json:"waiting"`
	Occupancy      float64 `json:"occupancy"` // inflight / maxInflight
	ShedPerSec     float64 `json:"shed_per_sec"`
	LatencyMeanMS  float64 `json:"latency_mean_ms"`  // over the rolling window
	StreamHitRatio float64 `json:"stream_hit_ratio"` // over the rolling window
	TracesHeld     int     `json:"traces_held"`
	Draining       bool    `json:"draining"`
}

func windowMean(s obs.RollingSnapshot) float64 {
	var n int64
	var sum float64
	for _, p := range s.Points {
		n += p.Count
		sum += p.Sum
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (s *server) liveSnapshot() liveSample {
	inflight := len(s.sem)
	return liveSample{
		UptimeMS:       time.Since(s.start).Milliseconds(),
		Inflight:       inflight,
		Waiting:        s.waiting.Load(),
		Occupancy:      float64(inflight) / float64(s.cfg.maxInflight),
		ShedPerSec:     s.tel.winShed.Rate(),
		LatencyMeanMS:  windowMean(s.tel.winLatency.Snapshot()),
		StreamHitRatio: windowMean(s.tel.winHits.Snapshot()),
		TracesHeld:     s.traces.Held(),
		Draining:       s.draining.Load(),
	}
}

// handleLive streams liveSample frames as server-sent events until
// the client disconnects or the daemon drains.  Selecting on drainCh
// is what makes SIGTERM clean: without it an attached dashboard would
// hold http.Server.Shutdown open for the whole drain timeout.
func (s *server) handleLive(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "internal: streaming unsupported", 0)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	s.countStatus(http.StatusOK)
	period := s.cfg.livePeriod
	if period <= 0 {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		payload, err := json.Marshal(s.liveSnapshot())
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: live\ndata: %s\n\n", payload)
		fl.Flush()
		select {
		case <-tick.C:
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			// One explicit goodbye so a dashboard can tell a drain from a
			// dropped connection, then release the stream.
			fmt.Fprint(w, "event: bye\ndata: draining\n\n")
			fl.Flush()
			return
		}
	}
}

// ---- Prometheus exposition ----

// writePrometheus renders the metrics snapshot in the Prometheus text
// format (version 0.0.4): counters and gauges from the JSON snapshot,
// plus the telemetry histograms with cumulative le-buckets.
func (s *server) writePrometheus(w http.ResponseWriter) {
	snap := s.snapshot()
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	promGauge(w, "m2cd_uptime_seconds", "Seconds since the daemon started.", float64(snap.UptimeMS)/1000)
	promGauge(w, "m2cd_draining", "1 while the daemon is draining, else 0.", boolToFloat(snap.Draining))
	promGauge(w, "m2cd_waiting", "Requests admitted past the capacity check (queued or running).", float64(snap.Waiting))
	promGauge(w, "m2cd_service_ewma_ms", "Exponentially weighted service time in milliseconds.", snap.ServiceEWMAMS)

	promCounter(w, "m2cd_admitted_total", "Requests that acquired an inflight slot.", snap.Admitted)
	promCounter(w, "m2cd_completed_total", "Requests served to completion.", snap.Completed)
	promCounter(w, "m2cd_shed_queue_full_total", "Requests shed with 429 because the admission queue was full.", snap.ShedQueueFull)
	promCounter(w, "m2cd_rate_limited_total", "Requests shed with 429 by the per-client rate limiter.", snap.RateLimited)
	promCounter(w, "m2cd_rejected_draining_total", "Requests rejected because the daemon was draining.", snap.RejectedDraining)
	promCounter(w, "m2cd_deadline_canceled_total", "Requests canceled by their deadline.", snap.DeadlineCanceled)
	promCounter(w, "m2cd_handler_panics_total", "Handler panics converted to 500s.", snap.HandlerPanics)
	promCounter(w, "m2cd_compile_faults_total", "Concurrent compilations that faulted.", snap.CompileFaults)
	promCounter(w, "m2cd_sequential_served_total", "Requests served by the sequential path.", snap.SequentialServed)
	promCounter(w, "m2cd_breaker_opens_total", "Per-client circuit breakers opened.", snap.BreakerOpens)

	// Response codes, sorted for a deterministic exposition (the golden
	// test and any text diff depend on stable order).
	fmt.Fprint(w, "# HELP m2cd_responses_total Responses by HTTP status code.\n# TYPE m2cd_responses_total counter\n")
	codes := make([]string, 0, len(snap.ByStatus))
	for code := range snap.ByStatus {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Fprintf(w, "m2cd_responses_total{code=%q} %d\n", code, snap.ByStatus[code])
	}

	// Lint findings by family code, same discipline as the response
	// codes: HELP/TYPE are unconditional so the family list is stable,
	// label values are sorted for a deterministic exposition.
	fmt.Fprint(w, "# HELP m2cd_lint_findings_total Lint findings reported, by finding-family code.\n# TYPE m2cd_lint_findings_total counter\n")
	families := make([]string, 0, len(snap.LintFindings))
	for f := range snap.LintFindings {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		fmt.Fprintf(w, "m2cd_lint_findings_total{family=%q} %d\n", f, snap.LintFindings[f])
	}

	promCounter(w, "m2cd_iface_cache_hits_total", "Interface-cache hits.", snap.Cache.Hits)
	promCounter(w, "m2cd_iface_cache_misses_total", "Interface-cache misses (leader compilations).", snap.Cache.Misses)
	promCounter(w, "m2cd_iface_cache_waits_total", "Interface-cache waits behind a leader.", snap.Cache.Waits)
	promCounter(w, "m2cd_iface_cache_evictions_total", "Interface-cache LRU evictions.", snap.Cache.Evictions)
	promCounter(w, "m2cd_iface_cache_hashes_total", "Definition-module texts content-hashed for interface-cache keys.", snap.Cache.Hashes)
	promCounter(w, "m2cd_stream_cache_hits_total", "Stream-cache hits.", snap.StreamCache.Hits)
	promCounter(w, "m2cd_stream_cache_misses_total", "Stream-cache misses.", snap.StreamCache.Misses)
	promCounter(w, "m2cd_stream_cache_evictions_total", "Stream-cache LRU evictions.", snap.StreamCache.Evictions)
	promGauge(w, "m2cd_stream_cache_entries", "Stream-cache resident entries.", float64(snap.StreamCache.Entries))

	promGauge(w, "m2cd_traces_held", "Request traces held in the LRU ring.", float64(snap.TracesHeld))
	promCounter(w, "m2cd_trace_admitted_total", "Requests through the trace store's sampling domain.", int64(snap.TraceAdmitted))

	promHistogram(w, "m2cd_request_duration_ms", "Request service time in milliseconds.", s.tel.latency.Snapshot())
	promHistogram(w, "m2cd_queue_depth", "Queued requests observed at admission.", s.tel.depth.Snapshot())
	promHistogram(w, "m2cd_worker_occupancy", "Held inflight slots observed at admission.", s.tel.occupancy.Snapshot())
	promHistogram(w, "m2cd_stream_hit_ratio", "Per-request stream-cache hit ratio.", s.tel.hitRatio.Snapshot())
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func promCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
}

// promHistogram writes one histogram family.  Bucket values are the
// snapshot's cumulative counts, so monotonicity and le="+Inf" == count
// hold by construction — the serve smoke test scrapes and checks both.
func promHistogram(w io.Writer, name, help string, s obs.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, b := range s.Bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(b), s.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(s.Sum))
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}
