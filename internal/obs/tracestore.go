package obs

// TraceStore is the per-request trace plane for the compile daemon:
// every admitted request gets a trace ID; for a deterministically
// sampled subset (or all, or none — TraceMode) the request also gets
// its own Observer keeping the full trace of its compilation, kept in
// a bounded LRU store for later retrieval through the daemon's
// /debug/trace endpoints.
//
// Two properties the endpoint tests pin down:
//
//   - Sampling is deterministic in the admission sequence: with
//     sample N, admissions 1, N+1, 2N+1, … are traced, independent of
//     scheduling.  Two runs that admit the same requests in the same
//     order trace the same requests.
//   - Eviction never drops an in-flight request's observer.  Entries
//     are pinned from Admit to Finish; the LRU walk skips pinned
//     entries, temporarily exceeding the cap rather than tearing an
//     Observer out from under the compilation it observes.

import (
	"fmt"
	"sync"

	"m2cc/internal/lru"
)

// TraceMode selects which admitted requests get a recording Observer.
type TraceMode uint8

const (
	// TraceOff records nothing; requests still get trace IDs for log
	// correlation, but /debug/trace knows none of them.
	TraceOff TraceMode = iota
	// TraceSampled records every Nth admission (deterministic 1-in-N).
	TraceSampled
	// TraceAll records every admission.
	TraceAll
)

func (m TraceMode) String() string {
	switch m {
	case TraceSampled:
		return "sampled"
	case TraceAll:
		return "all"
	default:
		return "off"
	}
}

// ParseTraceMode converts a -trace flag value to a TraceMode.
func ParseTraceMode(s string) (TraceMode, error) {
	switch s {
	case "off":
		return TraceOff, nil
	case "sampled":
		return TraceSampled, nil
	case "all":
		return TraceAll, nil
	}
	return TraceOff, fmt.Errorf("unknown trace mode %q (want off, sampled or all)", s)
}

// TraceEntry is one traced request: its /debug/trace index row and
// its Observer.  The row's fields other than ID and Seq are owned by
// the store's lock until Finish sets Done, after which the entry is
// immutable.
type TraceEntry struct {
	TraceSummary
	Obs *Observer
}

// TraceSummary is one /debug/trace index row: the request metadata
// Finish stamps in.
type TraceSummary struct {
	ID       string  `json:"id"`
	Seq      uint64  `json:"seq"` // 1-based admission number that sampled this request
	Client   string  `json:"client,omitempty"`
	Endpoint string  `json:"endpoint,omitempty"` // request path, e.g. /compile
	Path     string  `json:"path,omitempty"`     // serving path: concurrent | sequential
	Status   int     `json:"status,omitempty"`   // HTTP status of the response
	DurMS    float64 `json:"dur_ms,omitempty"`   // service time
	Done     bool    `json:"done"`               // set by Finish; until then the entry is pinned against eviction
}

// TraceStore holds the daemon's recent request traces.
type TraceStore struct {
	mode    TraceMode
	sampleN uint64

	mu     sync.Mutex // guards: seq, traces, and TraceEntry rows until Done
	seq    uint64     // admissions seen (sampling domain), traced or not
	traces *lru.Store[string, *TraceEntry]
}

// NewTraceStore returns a store in the given mode keeping at most keep
// finished traces (minimum 1), sampling 1-in-sampleN admissions in
// TraceSampled mode (minimum 1, i.e. every request).
func NewTraceStore(mode TraceMode, sampleN, keep int) *TraceStore {
	if sampleN < 1 {
		sampleN = 1
	}
	if keep < 1 {
		keep = 1
	}
	return &TraceStore{
		mode:    mode,
		sampleN: uint64(sampleN),
		traces:  lru.New[string, *TraceEntry](keep, func(e *TraceEntry) bool { return !e.Done }),
	}
}

// Mode reports the store's trace mode.
func (s *TraceStore) Mode() TraceMode {
	if s == nil {
		return TraceOff
	}
	return s.mode
}

// Admit assigns the admission its trace ID — requested (a sanitized
// client-chosen X-M2cd-Trace value) or generated — and, when the mode
// and sampling select this request, an entry with a fresh recording
// Observer.  The entry is pinned against eviction until Finish.  A nil
// entry means the request is not traced; the ID is still valid for
// logging.
func (s *TraceStore) Admit(requested string) (id string, e *TraceEntry) {
	if s == nil {
		return "", nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id = sanitizeTraceID(requested)
	if id == "" {
		id = fmt.Sprintf("t%06d", s.seq)
	}
	traced := s.mode == TraceAll ||
		(s.mode == TraceSampled && (s.seq-1)%s.sampleN == 0)
	if !traced {
		return id, nil
	}
	// A reused ID (client-chosen) supersedes the old trace, in flight
	// or not: the request that owns a superseded Observer still holds
	// it, so nothing is torn down under its compilation.
	e = &TraceEntry{TraceSummary{ID: id, Seq: s.seq}, New()}
	s.traces.Put(id, e)
	return id, e
}

// Finish stamps the entry's request metadata, unpins it, and applies
// the LRU cap.  Safe to call once per entry; nil entries no-op so
// untraced requests need no branch at the call site.
func (s *TraceStore) Finish(e *TraceEntry, client, endpoint, path string, status int, durMS float64) {
	if s == nil || e == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Client, e.Endpoint, e.Path = client, endpoint, path
	e.Status, e.DurMS, e.Done = status, durMS, true
	s.traces.Trim()
}

// Get returns the entry for id, refreshing its LRU position; nil when
// the ID was never traced or has been evicted.  In-flight entries are
// returned too — their Observer snapshots are always coherent.
func (s *TraceStore) Get(id string) *TraceEntry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, _ := s.traces.Get(id)
	return e
}

// Held reports how many traces the store currently holds (pinned
// entries may push this above the keep cap transiently).
func (s *TraceStore) Held() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traces.Len()
}

// Admitted reports how many requests passed through Admit (the
// sampling domain), traced or not.
func (s *TraceStore) Admitted() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Summaries lists the held traces, most recently used first.
func (s *TraceStore) Summaries() []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, s.traces.Len())
	s.traces.Range(func(_ string, e *TraceEntry) bool {
		out = append(out, e.TraceSummary)
		return true
	})
	return out
}

// sanitizeTraceID accepts a client-supplied trace ID when it is short
// and unambiguous in logs and URLs (alphanumerics plus - _ . only, at
// most 64 bytes); anything else returns "" and a server ID is
// generated instead.
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return ""
		}
	}
	return id
}
