package profile_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"m2cc/internal/core"
	"m2cc/internal/ctrace"
	"m2cc/internal/obs"
	"m2cc/internal/profile"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
)

const us = time.Microsecond

// twoTaskTrace hand-builds the smallest interesting run: a producer
// that runs 0..100µs and fires event 1 at 80µs, and a consumer (spawned
// by the producer at 5µs) that runs 10..20µs, waits on event 1 from
// 20µs to 85µs, then runs 85..120µs.  Every profile number below is
// checkable by hand.
func twoTaskTrace() *ctrace.Trace {
	return &ctrace.Trace{
		Tasks: []ctrace.TaskInfo{
			{ID: 1, Kind: ctrace.KindModParseDecl, Label: "producer"},
			{ID: 2, Kind: ctrace.KindProcParseDecl, Label: "consumer"},
		},
		Spawns: []ctrace.SpawnRecord{{Child: 1}, {Parent: 1, Child: 2}},
		Events: 1,
		Run: &ctrace.Run{
			Tasks: []ctrace.TaskRun{
				{Stretches: []ctrace.Stretch{{Lane: 0, Start: 0, End: 100 * us}}},
				{
					Spawned:   5 * us,
					Stretches: []ctrace.Stretch{{Lane: 1, Start: 10 * us, End: 20 * us}, {Lane: 1, Start: 85 * us, End: 120 * us}},
					Waits:     []ctrace.Wait{{Event: 1, Kind: ctrace.WaitHandled, Start: 20 * us, End: 85 * us}},
				},
			},
			Fires:  []ctrace.Fire{{Event: 1, Task: 1, At: 80 * us}},
			Events: 1,
		},
	}
}

func TestBuildTwoTaskByHand(t *testing.T) {
	p := profile.Build(twoTaskTrace(), 120*us)

	if p.Makespan != 120*us {
		t.Errorf("Makespan = %v, want 120µs", p.Makespan)
	}
	if p.TotalWork != 145*us {
		t.Errorf("TotalWork = %v, want 145µs (100 + 10 + 35)", p.TotalWork)
	}
	if p.TotalBlocked != 65*us {
		t.Errorf("TotalBlocked = %v, want 65µs", p.TotalBlocked)
	}
	if p.TotalQueue != 5*us {
		t.Errorf("TotalQueue = %v, want 5µs (fire at 80, resumed at 85)", p.TotalQueue)
	}

	// The critical path: producer works 0..80, the consumer's queue
	// delay 80..85, consumer works 85..120.
	want := []profile.Segment{
		{Kind: profile.SegWork, Task: 1, Label: "producer", Start: 0, End: 80 * us},
		{Kind: profile.SegQueue, Task: 2, Label: "consumer", Event: 1, Start: 80 * us, End: 85 * us},
		{Kind: profile.SegWork, Task: 2, Label: "consumer", Start: 85 * us, End: 120 * us},
	}
	if !reflect.DeepEqual(p.Path, want) {
		t.Errorf("Path = %+v\nwant %+v", p.Path, want)
	}
	if p.CritLen != 120*us || p.CritWork != 115*us || p.CritQueue != 5*us || p.CritBlocked != 0 {
		t.Errorf("CritLen/Work/Queue/Blocked = %v/%v/%v/%v, want 120µs/115µs/5µs/0",
			p.CritLen, p.CritWork, p.CritQueue, p.CritBlocked)
	}
	if got, want := p.SerialFraction, 115.0/145.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("SerialFraction = %v, want %v", got, want)
	}
	if got, want := p.SpeedupBound, 145.0/115.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("SpeedupBound = %v, want %v", got, want)
	}

	if len(p.Events) != 1 {
		t.Fatalf("Events = %+v, want exactly one blame row", p.Events)
	}
	eb := p.Events[0]
	if eb.Event != 1 || eb.Producer != 1 || eb.ProducerLabel != "producer" ||
		eb.Waiters != 1 || eb.Blocked != 60*us || eb.Queue != 5*us || !eb.OnCritPath {
		t.Errorf("blame = %+v, want event 1 by producer: 60µs blocked + 5µs queue, on path", eb)
	}
}

func TestBuildEmptySafe(t *testing.T) {
	p := profile.Build(&ctrace.Trace{}, 0)
	if p.Makespan != 0 || p.TotalWork != 0 || len(p.Path) != 0 {
		t.Errorf("empty trace profile = %+v, want zeros", p)
	}
	if out := p.Render(10); !strings.Contains(out, "no activity") {
		t.Errorf("empty Render = %q", out)
	}
}

// --- real-compilation fixtures ------------------------------------------

var profProgram = map[string]map[source.FileKind]string{
	"Pair": {source.Def: `
DEFINITION MODULE Pair;
PROCEDURE Sum(a, b: INTEGER): INTEGER;
PROCEDURE Max(a, b: INTEGER): INTEGER;
END Pair.
`, source.Impl: `
IMPLEMENTATION MODULE Pair;

PROCEDURE Sum(a, b: INTEGER): INTEGER;
BEGIN
  RETURN a + b
END Sum;

PROCEDURE Max(a, b: INTEGER): INTEGER;
BEGIN
  IF a > b THEN RETURN a END;
  RETURN b
END Max;

END Pair.
`},
	"Main": {source.Impl: `
MODULE Main;
FROM Pair IMPORT Sum, Max;
IMPORT Pair;
VAR v: INTEGER;

PROCEDURE Triple(n: INTEGER): INTEGER;
BEGIN
  RETURN Sum(Sum(n, n), n)
END Triple;

BEGIN
  v := Triple(4);
  WriteInt(Max(v, 3), 0); WriteLn
END Main.
`},
}

// compileProfile runs one observed, traced concurrent compilation and
// returns its observer's profile and its trace.
func compileProfile(t *testing.T, workers int) (*profile.Profile, *ctrace.Trace) {
	t.Helper()
	loader := source.NewMapLoader()
	for name, kinds := range profProgram {
		for kind, text := range kinds {
			loader.Add(name, kind, text)
		}
	}
	o := obs.New()
	res := core.Compile("Main", loader, core.Options{
		Workers: workers, Strategy: symtab.Skeptical, Obs: o, Trace: true,
	})
	if res.Failed() || res.Faulted {
		t.Fatalf("compile failed (faulted=%v):\n%s", res.Faulted, res.Diags)
	}
	return o.Profile(), res.Trace
}

// TestBlameConservation pins the attribution invariant on a real run:
// the blocked time attributed across events equals the sum of the
// measured wait edges equals Profile.TotalBlocked, and the walked
// critical path tiles the makespan exactly.
func TestBlameConservation(t *testing.T) {
	p, tr := compileProfile(t, 4)

	var waitsTotal time.Duration
	for _, r := range tr.Run.Tasks {
		for _, w := range r.Waits {
			waitsTotal += w.End - w.Start
		}
	}
	if p.TotalBlocked != waitsTotal {
		t.Errorf("TotalBlocked = %v, measured wait edges sum to %v", p.TotalBlocked, waitsTotal)
	}
	var blamed time.Duration
	for _, eb := range p.Events {
		blamed += eb.Blocked + eb.Queue
	}
	if blamed != p.TotalBlocked {
		t.Errorf("attributed %v across events, TotalBlocked %v", blamed, p.TotalBlocked)
	}
	if p.CritLen != p.Makespan {
		t.Errorf("CritLen = %v, Makespan = %v; the path must tile the run", p.CritLen, p.Makespan)
	}
	var pathLen time.Duration
	for i, seg := range p.Path {
		pathLen += seg.Dur()
		if i > 0 && p.Path[i-1].End != seg.Start {
			t.Errorf("path gap: segment %d ends %v, segment %d starts %v",
				i-1, p.Path[i-1].End, i, seg.Start)
		}
	}
	if pathLen != p.CritLen {
		t.Errorf("path segments sum to %v, CritLen %v", pathLen, p.CritLen)
	}
	if p.TotalWork <= 0 || p.SpeedupBound < 1 {
		t.Errorf("TotalWork %v, SpeedupBound %v: want positive work, bound >= 1",
			p.TotalWork, p.SpeedupBound)
	}
}

// TestRenderAndJSON smoke-tests both report forms on a real profile.
func TestRenderAndJSON(t *testing.T) {
	p, _ := compileProfile(t, 4)
	out := p.Render(5)
	for _, want := range []string{"critical-path profile", "critical path (earliest first)", "serial fraction",
		fmt.Sprintf("dispatches: %d; %d direct slot handoffs", p.Sched.Dispatches, p.Sched.Handoffs)} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("profile JSON does not parse: %v", err)
	}
	for _, key := range []string{"makespan_ms", "critical_path", "events", "by_task", "speedup_bound"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("profile JSON missing %q", key)
		}
	}
	sched, _ := decoded["sched"].(map[string]any)
	if len(sched) != 3 || sched["dispatches"] == nil || sched["handoffs"] == nil || sched["goroutines"] == nil {
		t.Errorf("profile JSON sched = %v, want {dispatches, handoffs, goroutines}", decoded["sched"])
	}
}
