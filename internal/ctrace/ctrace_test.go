package ctrace_test

import (
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
)

func TestTaskKindGlyphsAndNames(t *testing.T) {
	for k := ctrace.TaskKind(0); k < ctrace.NumTaskKinds; k++ {
		if k.String() == "?" {
			t.Errorf("kind %d has no name", k)
		}
		if k.Glyph() == '?' {
			t.Errorf("kind %d has no glyph", k)
		}
	}
	if ctrace.KindLexor.Glyph() != 'L' || ctrace.KindMerge.Glyph() != 'M' {
		t.Error("glyph mapping changed — timeline renders depend on it")
	}
}

func TestMeterAccumulation(t *testing.T) {
	ctx := &ctrace.TaskCtx{}
	ctx.Add(1.5)
	ctx.Add(2.5)
	if ctx.Now() != 4.0 {
		t.Fatalf("Now = %f", ctx.Now())
	}
	st := ctx.Stamp()
	if st.Offset != 4.0 {
		t.Fatalf("Stamp offset = %f", st.Offset)
	}
	var nilCtx *ctrace.TaskCtx
	if nilCtx.Stamp() != (ctrace.Stamp{}) {
		t.Fatal("nil ctx must stamp zero")
	}
}

func TestFireEventWithoutRecorder(t *testing.T) {
	ctx := &ctrace.TaskCtx{}
	e := event.New()
	ctx.FireEvent(e) // must not panic with Rec == nil
	if !e.Fired() {
		t.Fatal("event not fired")
	}
	ctx.NoteBarrier(e)
}

func TestRecorderRoundTrip(t *testing.T) {
	rec := ctrace.NewRecorder()
	id1 := rec.RegisterTask(ctrace.KindLexor, 1, "lex")
	id2 := rec.RegisterTask(ctrace.KindSplitter, 1, "split")
	if id1 != 1 || id2 != 2 {
		t.Fatal("task IDs must be dense from 1")
	}
	ctx := &ctrace.TaskCtx{ID: id1, Rec: rec}
	e := event.New()
	ctx.Add(10)
	ctx.FireEvent(e)
	ctx2 := &ctrace.TaskCtx{ID: id2, Rec: rec}
	ctx2.Add(3)
	ctx2.NoteBarrier(e)
	rec.NoteSpawn(id1, ctx.Stamp(), id2, []*event.Event{e})
	rec.NoteScopeGate(id2, e)
	ctx2.NoteLookup(false, ctx2.Stamp(), []ctrace.Hop{{Rel: ctrace.RelSelf, Found: true}}, true)
	ctx.Finish()
	ctx2.Finish()

	tr := rec.Trace()
	if len(tr.Tasks) != 2 || tr.Tasks[0].Cost != 10 || tr.Tasks[1].Cost != 3 {
		t.Fatalf("tasks wrong: %+v", tr.Tasks)
	}
	if len(tr.Fires) != 1 || tr.Fires[0].At.Task != id1 || tr.Fires[0].At.Offset != 10 {
		t.Fatalf("fires wrong: %+v", tr.Fires)
	}
	if len(tr.Waits) != 1 || tr.Waits[0].At != ctx2.Stamp() {
		t.Fatalf("waits wrong: %+v", tr.Waits)
	}
	if len(tr.Spawns) != 1 || len(tr.Spawns[0].Gates) != 1 {
		t.Fatalf("spawns wrong: %+v", tr.Spawns)
	}
	if len(tr.ScopeGates[id2]) != 1 {
		t.Fatal("scope gate missing")
	}
	if len(tr.Lookups) != 1 {
		t.Fatal("lookup missing")
	}
	if tr.TotalCost() != 13 {
		t.Fatalf("total cost %f", tr.TotalCost())
	}
	// The same event must map to one ID everywhere.
	if tr.Fires[0].Event != tr.Waits[0].Event || tr.Fires[0].Event != tr.Spawns[0].Gates[0] {
		t.Fatal("event identity not stable across record kinds")
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	rec := ctrace.NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := rec.RegisterTask(ctrace.KindLexor, 0, "t")
				ctx := &ctrace.TaskCtx{ID: id, Rec: rec}
				e := event.New()
				ctx.FireEvent(e)
				ctx.Add(1)
				ctx.NoteLookup(false, ctx.Stamp(), []ctrace.Hop{{Rel: ctrace.RelSelf, Found: true}}, true)
				ctx.Finish()
			}
		}()
	}
	wg.Wait()
	tr := rec.Trace()
	if len(tr.Tasks) != 800 || len(tr.Fires) != 800 || len(tr.Lookups) != 800 {
		t.Fatalf("lost records: %d tasks %d fires %d lookups", len(tr.Tasks), len(tr.Fires), len(tr.Lookups))
	}
}

func TestRelationNames(t *testing.T) {
	want := []string{"self", "other", "outer", "WITH", "Builtin"}
	for i, w := range want {
		if got := ctrace.Relation(i).String(); got != w {
			t.Errorf("relation %d = %q, want %q", i, got, w)
		}
	}
}

// TestTraceCanonicalOrder pins the canonical form on a recording made
// out of order: tasks registered child-first, a root registered before
// a root that sorts ahead of it by label, and records appended in
// reverse.  The trace must number tasks in spawn-tree order (roots by
// label, children by spawn offset) and sort records by stamp.
func TestTraceCanonicalOrder(t *testing.T) {
	r := ctrace.NewRecorder()
	late := r.RegisterTask(ctrace.KindShortStmtCG, 9, "late child")
	early := r.RegisterTask(ctrace.KindShortStmtCG, 7, "early child")
	rootB := r.RegisterTask(ctrace.KindModParseDecl, 7, "B")
	rootA := r.RegisterTask(ctrace.KindLexor, 3, "A")
	at := func(id ctrace.TaskID, off float64) *ctrace.TaskCtx {
		return &ctrace.TaskCtx{ID: id, Units: off, Rec: r}
	}
	ev := event.New()
	r.NoteSpawn(0, ctrace.Stamp{}, rootB, nil)
	r.NoteSpawn(rootB, at(rootB, 20).Stamp(), late, []*event.Event{ev})
	r.NoteSpawn(rootB, at(rootB, 10).Stamp(), early, nil)
	r.NoteSpawn(0, ctrace.Stamp{}, rootA, nil)
	at(rootB, 15).FireEvent(ev)
	at(late, 5).NoteBarrier(ev)
	at(early, 5).NoteBarrier(ev)

	tr := r.Trace()
	var labels []string
	var streams []int32
	for i, ti := range tr.Tasks {
		if ti.ID != ctrace.TaskID(i+1) {
			t.Errorf("task %d has ID %d", i, ti.ID)
		}
		labels = append(labels, ti.Label)
		streams = append(streams, ti.Stream)
	}
	if want := []string{"A", "B", "early child", "late child"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("task order %q, want %q", labels, want)
	}
	if want := []int32{1, 2, 2, 3}; !reflect.DeepEqual(streams, want) {
		t.Errorf("streams %v, want %v", streams, want)
	}
	wantSpawns := []ctrace.SpawnRecord{
		{Child: 1, Gates: []ctrace.EventID{}},
		{Child: 2, Gates: []ctrace.EventID{}},
		{Parent: 2, At: ctrace.Stamp{Task: 2, Offset: 10}, Child: 3, Gates: []ctrace.EventID{}},
		{Parent: 2, At: ctrace.Stamp{Task: 2, Offset: 20}, Child: 4, Gates: []ctrace.EventID{1}},
	}
	if !reflect.DeepEqual(tr.Spawns, wantSpawns) {
		t.Errorf("Spawns = %+v\nwant %+v", tr.Spawns, wantSpawns)
	}
	wantWaits := []ctrace.WaitRecord{
		{Event: 1, At: ctrace.Stamp{Task: 3, Offset: 5}},
		{Event: 1, At: ctrace.Stamp{Task: 4, Offset: 5}},
	}
	if !reflect.DeepEqual(tr.Waits, wantWaits) {
		t.Errorf("Waits = %+v\nwant %+v", tr.Waits, wantWaits)
	}
}

// TestMeasuredInterpolatesKnots pins the measured-clock mapping on one
// task: each stretch's end is a knot (its Units, the executed time so
// far), from an implicit (0, 0), linear in between, the cost mapped to
// the last knot, a stamp between two knots of one offset (a wait taken
// with no work in between) mapped to the first, and the gaps between
// stretches not counted.
func TestMeasuredInterpolatesKnots(t *testing.T) {
	r := ctrace.NewRecorder()
	id := r.RegisterTask(ctrace.KindLexor, 1, "lex")
	ctx := &ctrace.TaskCtx{ID: id, Rec: r}
	r.NoteSpawn(0, ctrace.Stamp{}, id, nil)
	ctx.Add(10)
	ctx.Ran(0, 0, 100*time.Microsecond)                    // (10 units, 100 µs)
	ctx.FireEvent(event.New())                             // at 10 units
	ctx.Ran(1, 200*time.Microsecond, 250*time.Microsecond) // (10 units, 150 µs)
	ctx.Add(20)
	ctx.NoteLookup(false, ctrace.Stamp{Task: id, Offset: 5}, nil, false)
	ctx.NoteLookup(false, ctrace.Stamp{Task: id, Offset: 20}, nil, false)
	ctx.Ran(0, 300*time.Microsecond, 600*time.Microsecond) // (30 units, 450 µs)
	ctx.Finish()

	tr := r.Trace()
	m := tr.Measured()
	if got := m.Tasks[0].Cost; got != 450 {
		t.Errorf("measured cost %v, want 450", got)
	}
	if got := m.Fires[0].At.Offset; got != 100 {
		t.Errorf("fire at 10 units maps to %v µs, want 100 (the first knot at 10)", got)
	}
	if got := []float64{m.Lookups[0].At.Offset, m.Lookups[1].At.Offset}; got[0] != 50 || got[1] != 300 {
		t.Errorf("lookups at 5 and 20 units map to %v µs, want [50 300]", got)
	}
	if tr.Tasks[0].Cost != 30 || tr.Fires[0].At.Offset != 10 {
		t.Error("Measured modified the work-unit trace")
	}
}

// TestTaskCtxSize pins the untraced cost of a task's context: tracing
// adds one pointer to it, nothing more.
func TestTaskCtxSize(t *testing.T) {
	if got := unsafe.Sizeof(ctrace.TaskCtx{}); got > 48 {
		t.Errorf("TaskCtx is %d bytes, want at most 48", got)
	}
}

// TestValidateRejects breaks a valid two-task trace one record at a
// time; Validate must refuse each break.
func TestValidateRejects(t *testing.T) {
	valid := func() *ctrace.Trace {
		return &ctrace.Trace{
			Tasks:  []ctrace.TaskInfo{{ID: 1}, {ID: 2}},
			Spawns: []ctrace.SpawnRecord{{Parent: 0, Child: 1}, {Parent: 1, Child: 2, Gates: []ctrace.EventID{2}}},
			Run: &ctrace.Run{
				Events: 2,
				Fires:  []ctrace.Fire{{Event: 1, Task: 1, At: 2}, {Event: 2, Task: 0, At: 1}},
				Tasks: []ctrace.TaskRun{
					{Stretches: []ctrace.Stretch{{Start: 0, End: 4}}},
					{Stretches: []ctrace.Stretch{{Start: 1, End: 2}, {Start: 3, End: 5}},
						Waits: []ctrace.Wait{{Event: 1, Kind: ctrace.WaitHandled, Start: 2, End: 3}}},
				},
			},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid trace: %v", err)
	}
	for name, mutate := range map[string]func(*ctrace.Trace){
		"no run":                 func(tr *ctrace.Trace) { tr.Run = nil },
		"fire out of range":      func(tr *ctrace.Trace) { tr.Run.Fires[0].Event = 3 },
		"fired twice":            func(tr *ctrace.Trace) { tr.Run.Fires[1].Event = 1 },
		"wait unfired":           func(tr *ctrace.Trace) { tr.Run.Fires = tr.Run.Fires[1:] },
		"wait out of range":      func(tr *ctrace.Trace) { tr.Run.Tasks[1].Waits[0].Event = 0 },
		"stretch missing":        func(tr *ctrace.Trace) { tr.Run.Tasks[1].Stretches = tr.Run.Tasks[1].Stretches[:1] },
		"stretch reversed":       func(tr *ctrace.Trace) { tr.Run.Tasks[0].Stretches[0].End = -1 },
		"wait off its stretches": func(tr *ctrace.Trace) { tr.Run.Tasks[1].Waits[0].End = 4 },
		"wait reversed": func(tr *ctrace.Trace) {
			r := &tr.Run.Tasks[1]
			r.Stretches[0].End, r.Waits[0].Start = 4, 4
		},
		"spawn out of range": func(tr *ctrace.Trace) { tr.Spawns[1].Child = 3 },
		"gate out of range":  func(tr *ctrace.Trace) { tr.Spawns[1].Gates[0] = 5 },
	} {
		tr := valid()
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
}
