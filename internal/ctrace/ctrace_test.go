package ctrace_test

import (
	"sync"
	"testing"

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
	rec.FinishTask(id1, ctx.Units)
	rec.FinishTask(id2, ctx2.Units)
	rec.NoteLookup(ctrace.LookupRecord{At: ctx2.Stamp(), Found: true,
		Hops: []ctrace.Hop{{Rel: ctrace.RelSelf, Found: true}}})

	tr := rec.Trace()
	if len(tr.Tasks) != 2 || tr.Tasks[0].Cost != 10 || tr.Tasks[1].Cost != 3 {
		t.Fatalf("tasks wrong: %+v", tr.Tasks)
	}
	if len(tr.Fires) != 1 || tr.Fires[0].At.Task != id1 || tr.Fires[0].At.Offset != 10 {
		t.Fatalf("fires wrong: %+v", tr.Fires)
	}
	if len(tr.Waits) != 1 || !tr.Waits[0].Barrier {
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
				rec.FinishTask(id, 1)
			}
		}()
	}
	wg.Wait()
	tr := rec.Trace()
	if len(tr.Tasks) != 800 || len(tr.Fires) != 800 {
		t.Fatalf("lost records: %d tasks %d fires", len(tr.Tasks), len(tr.Fires))
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
