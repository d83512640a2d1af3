// m2cd's telemetry plane: histograms (metric-registry families) and
// rolling windows over the serving path, per-request traces behind
// /debug/trace, a live SSE feed, and structured JSON request logs.
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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"m2cc"
	"m2cc/internal/obs"
)

// telemetry aggregates the serving path's request-scoped measurements:
// process-lifetime histograms (metric-registry families) and
// one-minute rolling windows (/debug/vars, the SSE feed).
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

// traceVars is the trace store's state, on /debug/trace and /debug/vars.
type traceVars struct {
	Mode     string `json:"mode"`
	Held     int    `json:"held"`
	Admitted uint64 `json:"admitted"`
}

func (s *server) traceVars() traceVars {
	return traceVars{s.traces.Mode().String(), s.traces.Held(), s.traces.Admitted()}
}

func (s *server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		traceVars
		Traces []obs.TraceSummary `json:"traces"`
	}{s.traceVars(), s.traces.Summaries()})
}

// handleTraceGet serves one trace as Chrome/Perfetto trace-event JSON,
// written by the exporter m2c -trace uses.  In-flight traces are
// served too: a compilation still running shows what its finished
// tasks handed over.  A trace that fails the exporter's validation
// (ctrace.Trace.Validate) is a recording bug, answered with a 500.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := s.traces.Get(id)
	if e == nil {
		s.writeError(w, http.StatusNotFound, "unknown trace "+id, 0)
		return
	}
	var body bytes.Buffer
	if err := e.Obs.WriteChromeTrace(&body); err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body.Bytes())
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

// handleVars serves what only /debug/vars has: the rolling windows and
// the trace store's state.  Counters and histograms are on /metrics.
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Trace   traceVars                      `json:"trace"`
		Windows map[string]obs.RollingSnapshot `json:"windows"`
	}{
		Trace: s.traceVars(),
		Windows: map[string]obs.RollingSnapshot{
			"latency_ms":       s.tel.winLatency.Snapshot(),
			"inflight":         s.tel.winInflight.Snapshot(),
			"shed":             s.tel.winShed.Snapshot(),
			"stream_hit_ratio": s.tel.winHits.Snapshot(),
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
