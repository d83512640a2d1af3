package ctrace

import (
	"reflect"
	"testing"
)

// TestIDBasedBuildAPI exercises the trace-construction surface the
// simulator tests and the obs→ctrace exporter rely on: pre-allocated
// event IDs, fire/wait/spawn records by ID, and scope gates.
func TestIDBasedBuildAPI(t *testing.T) {
	r := NewRecorder()
	prod := r.RegisterTask(KindModParseDecl, 1, "prod")
	cons := r.RegisterTask(KindProcParseDecl, 2, "cons")
	r.FinishTask(prod, 100)
	r.FinishTask(cons, 40)

	// NewEventID hands out dense identities without recording a fire.
	e1 := r.NewEventID()
	e2 := r.NewEventID()
	if e1 == 0 || e2 == 0 || e1 == e2 {
		t.Fatalf("NewEventID gave %v, %v: want two distinct nonzero IDs", e1, e2)
	}

	// FireIDs allocates-and-fires in one step; the ID keeps advancing
	// past pre-allocated ones.
	e3 := r.FireIDs(prod, 50)
	if e3 == e1 || e3 == e2 {
		t.Fatalf("FireIDs reused an allocated ID: %v", e3)
	}

	r.NoteFireID(e1, prod, 80)
	r.NoteFireID(e2, 0, 0) // pre-fired (task 0)
	r.NoteWaitIDs(cons, 10, e1, false)
	r.NoteWaitIDs(cons, 30, e3, true)
	r.NoteSpawnIDs(0, Stamp{}, prod, nil)
	r.NoteSpawnIDs(prod, Stamp{Task: prod, Offset: 5}, cons, []EventID{e2})
	r.NoteScopeGateID(cons, e3)

	tr := r.Trace()
	if len(tr.Tasks) != 2 || tr.TotalCost() != 140 {
		t.Fatalf("tasks %d, total cost %v; want 2 tasks of 140 units", len(tr.Tasks), tr.TotalCost())
	}
	if tr.Events != 3 {
		t.Errorf("Events = %d, want 3 referenced identities", tr.Events)
	}

	// The trace is canonical: prod (the root) is task 1 and cons (its
	// child) task 2; events are renumbered by first reference, fires
	// first in stamp order (e3 at 50, e1 at 80), then e2, which only a
	// spawn gate and a pre-fire name.  Pre-fires sort first.
	const c3, c1, c2 EventID = 1, 2, 3
	wantFires := []FireRecord{
		{Event: c2, At: Stamp{Task: 0, Offset: 0}},
		{Event: c3, At: Stamp{Task: 1, Offset: 50}},
		{Event: c1, At: Stamp{Task: 1, Offset: 80}},
	}
	if !reflect.DeepEqual(tr.Fires, wantFires) {
		t.Errorf("Fires = %+v\nwant %+v", tr.Fires, wantFires)
	}
	wantWaits := []WaitRecord{
		{Event: c1, At: Stamp{Task: 2, Offset: 10}},
		{Event: c3, At: Stamp{Task: 2, Offset: 30}, Barrier: true},
	}
	if !reflect.DeepEqual(tr.Waits, wantWaits) {
		t.Errorf("Waits = %+v\nwant %+v", tr.Waits, wantWaits)
	}
	if len(tr.Spawns) != 2 || tr.Spawns[1].Parent != 1 || tr.Spawns[1].Child != 2 {
		t.Errorf("Spawns = %+v", tr.Spawns)
	}
	if !reflect.DeepEqual(tr.Spawns[1].Gates, []EventID{c2}) {
		t.Errorf("spawn gates = %+v, want [%v]", tr.Spawns[1].Gates, c2)
	}
	if !reflect.DeepEqual(tr.ScopeGates[2], []EventID{c3}) {
		t.Errorf("scope gates = %+v, want [%v]", tr.ScopeGates[2], c3)
	}
}

// TestTraceCanonicalOrder pins the canonical form on a recording made
// out of order: tasks registered child-first, a root registered before
// a root that sorts ahead of it by label, and records appended in
// reverse.  The trace must number tasks in spawn-tree order (roots by
// label, children by spawn offset) and sort records by stamp.
func TestTraceCanonicalOrder(t *testing.T) {
	r := NewRecorder()
	late := r.RegisterTask(KindShortStmtCG, 9, "late child")
	early := r.RegisterTask(KindShortStmtCG, 7, "early child")
	rootB := r.RegisterTask(KindModParseDecl, 7, "B")
	rootA := r.RegisterTask(KindLexor, 3, "A")
	ev := r.NewEventID()
	r.NoteSpawnIDs(0, Stamp{}, rootB, nil)
	r.NoteSpawnIDs(rootB, Stamp{Task: rootB, Offset: 20}, late, []EventID{ev})
	r.NoteSpawnIDs(rootB, Stamp{Task: rootB, Offset: 10}, early, nil)
	r.NoteSpawnIDs(0, Stamp{}, rootA, nil)
	r.NoteFireID(ev, rootB, 15)
	r.NoteWaitIDs(late, 5, ev, true)
	r.NoteWaitIDs(early, 5, ev, true)

	tr := r.Trace()
	var labels []string
	var streams []int32
	for i, ti := range tr.Tasks {
		if ti.ID != TaskID(i+1) {
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
	wantSpawns := []SpawnRecord{
		{Child: 1},
		{Child: 2},
		{Parent: 2, At: Stamp{Task: 2, Offset: 10}, Child: 3},
		{Parent: 2, At: Stamp{Task: 2, Offset: 20}, Child: 4, Gates: []EventID{1}},
	}
	if !reflect.DeepEqual(tr.Spawns, wantSpawns) {
		t.Errorf("Spawns = %+v\nwant %+v", tr.Spawns, wantSpawns)
	}
	wantWaits := []WaitRecord{
		{Event: 1, At: Stamp{Task: 3, Offset: 5}, Barrier: true},
		{Event: 1, At: Stamp{Task: 4, Offset: 5}, Barrier: true},
	}
	if !reflect.DeepEqual(tr.Waits, wantWaits) {
		t.Errorf("Waits = %+v\nwant %+v", tr.Waits, wantWaits)
	}
}

// TestNoteSpawnIDsCopiesGates pins that the recorder copies the gate
// slice: callers may reuse their scratch buffer.
func TestNoteSpawnIDsCopiesGates(t *testing.T) {
	r := NewRecorder()
	child := r.RegisterTask(KindLexor, 1, "child")
	r.FinishTask(child, 10)
	gates := []EventID{r.NewEventID()}
	r.NoteSpawnIDs(0, Stamp{}, child, gates)
	orig := gates[0]
	gates[0] = 999 // caller clobbers its buffer
	tr := r.Trace()
	if tr.Spawns[0].Gates[0] != orig {
		t.Fatalf("recorded gate %v followed the caller's mutation, want %v",
			tr.Spawns[0].Gates[0], orig)
	}
}
