// m2cd's telemetry plane: the per-request record, per-request traces
// behind /debug/trace, and structured JSON request logs.  The serving
// numbers are metric-registry families (server.go), rendered on
// /metrics and in the drain-time flush.
//
// The instrumented middleware is the single choke point: it wraps
// /compile and /lint, and once the handler returns it reads the
// request's record — stamps its latency and stream-cache hit ratio
// into the histograms, closes its trace entry (the handler only opens
// it), and emits one JSON log line.  Putting the bookkeeping here
// rather than in the handler keeps it on every exit path — shed,
// canceled, panicked — without threading state through each early
// return.
package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"m2cc"
	"m2cc/internal/obs"
)

// statusRecorder is one /compile or /lint request's ResponseWriter and
// its record: the handler fills the outcome, the X-M2cd-* response
// headers are written from it with the status, and the instrumented
// middleware reads it after the handler returns — same goroutine, no
// lock needed.
type statusRecorder struct {
	http.ResponseWriter
	status int
	outcome
}

// outcome is how one request was served.
type outcome struct {
	client, trace string            // resolved client identity; trace ID, once admitted
	entry         *obs.TraceEntry   // the trace entry Admit opened; nil when not sampled
	serve         string            // concurrent | sequential; empty when nothing was served
	streams       int               // the concurrent compilation's streams
	tally         *m2cc.StreamTally // its stream-cache traffic; nil when no cache was probed
	fellBack      bool              // it faulted and fell back to the sequential compiler
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
		r.setHeaders(r.Header())
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.WriteHeader(http.StatusOK)
	}
	return r.ResponseWriter.Write(b)
}

// setHeaders writes the outcome's X-M2cd-* headers: routing metadata
// that stays out of the body, which is a pure function of the request.
func (o *outcome) setHeaders(h http.Header) {
	if o.trace != "" {
		h.Set("X-M2cd-Trace", o.trace)
	}
	if o.serve != "" {
		h.Set("X-M2cd-Path", o.serve)
	}
	if o.serve == "concurrent" {
		h.Set("X-M2cd-Streams", strconv.Itoa(o.streams))
	}
	if o.tally != nil {
		h.Set("X-M2cd-Stream-Hits", strconv.Itoa(o.tally.Hits))
		h.Set("X-M2cd-Stream-Misses", strconv.Itoa(o.tally.Misses))
	}
	if o.fellBack {
		h.Set("X-M2cd-Fellback", "1")
	}
}

// instrumented serves /compile (or /lint) with the per-request
// bookkeeping around it: the latency and hit-ratio histograms,
// trace-entry completion, and the structured request log, all read
// from the request's record.  The handler converts its own panics into
// 500s, so a crashed request is recorded too and its trace entry
// unpinned — otherwise a crashed traced request would pin its LRU slot
// forever.
func (s *server) instrumented(lint bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		began := time.Now()
		s.handleCompile(rec, r, lint)
		durMS := float64(time.Since(began)) / float64(time.Millisecond)
		s.latency.Observe(durMS)
		var hits, misses int
		if rec.tally != nil {
			hits, misses = rec.tally.Hits, rec.tally.Misses
		}
		if hits+misses > 0 {
			s.hitRatio.Observe(float64(hits) / float64(hits+misses))
		}
		if rec.entry != nil {
			rec.entry.Obs.Finish()
			s.traces.Finish(rec.entry, rec.client, r.URL.Path, rec.serve, rec.status, durMS)
		}
		if s.logw == nil { // the test default: no log, same bookkeeping
			return
		}
		line, err := json.Marshal(requestLog{
			Time: time.Now().UTC().Format(time.RFC3339Nano), Trace: rec.trace, Client: rec.client,
			Method: r.Method, Path: r.URL.Path, Status: rec.status, Serve: rec.serve, DurMS: durMS,
			Streams: rec.streams, Hits: hits, Misses: misses, Fellback: rec.fellBack,
		})
		if err != nil {
			return
		}
		s.logMu.Lock()
		s.logw.Write(append(line, '\n'))
		s.logMu.Unlock()
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

// ---- /debug/trace ----

// handleTraceIndex serves the trace store's state and its held rows.
func (s *server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Mode     string             `json:"mode"`
		Held     int                `json:"held"`
		Admitted uint64             `json:"admitted"`
		Traces   []obs.TraceSummary `json:"traces"`
	}{s.traces.Mode().String(), s.traces.Held(), s.traces.Admitted(), s.traces.Summaries()})
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
