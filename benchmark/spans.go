package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// compiler: the benchmark wraps the call, the compiler is not touched.
type span struct {
	Name     string
	Start    time.Duration // since the tracer's epoch
	End      time.Duration
	Parent   int // index of the causing span, -1 for a root
	Workload string
	Pass     int // spans of one pass share this identifier
	Lane     int // connection that carried a served request; 0 elsewhere
}

// tracer keeps spans in memory until the run ends.  A nil tracer
// records nothing, which is how the untraced run stays untraced.
type tracer struct {
	mu       sync.Mutex // guards: spans (serve.mix records from several goroutines)
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: time.Since(t.epoch), Parent: parent,
		Workload: t.workload, Pass: pass,
	})
	return len(t.spans) - 1
}

// setLane records which connection a served request's span ran on, so
// that overlapping requests land on separate tracks of the trace view.
func (t *tracer) setLane(id, lane int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Lane = lane
	t.mu.Unlock()
}

// end closes the span and returns its duration (0 on a nil tracer).
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = time.Since(t.epoch)
	return s.End - s.Start
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered := time.Duration(0)
		reach := s.Start // everything before reach is already counted
		for _, k := range kids {
			cs, ce := t.spans[k].Start, t.spans[k].End
			if cs < reach {
				cs = reach
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				covered += ce - cs
				reach = ce
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: 1 + s.Lane,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": s.Workload, "pass": s.Pass},
		})
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
