package ctrace

import (
	"slices"
	"sort"
)

// canonical renumbers and reorders t so that it depends only on the
// compilation's facts, never on the order the live run happened to
// record them in.  Even a one-worker compilation interleaves goroutines
// (the driver's interface prefetch, importers racing to start the same
// def stream), so raw TaskIDs, stream numbers, EventIDs, scope IDs and
// record order all vary from run to run — and the simulator breaks
// priority ties by spawn order, so the variation can move its results.
//
//   - Tasks are numbered in spawn-tree order: breadth first, each task's
//     children ordered by spawn offset and then by the parent's own
//     spawn order (a task spawns from one goroutine, so that order is
//     fixed).  Roots — the start-up tasks and the def streams, which no
//     task owns — have no such order and are sorted by label.
//   - Records are sorted by canonical stamp (task, then offset), keeping
//     each task's own recording order among equal stamps.
//   - Streams, events and scopes are numbered by their first reference
//     in that order.
//
// t's slices may alias the recorder's; canonical allocates fresh ones.
// t.Events bounds the event IDs t uses.
func canonical(t *Trace) *Trace {
	// Spawn tree: children per parent in recording order.
	kids := make([][]int, len(t.Tasks)+1)
	for i, sp := range t.Spawns {
		kids[sp.Parent] = append(kids[sp.Parent], i)
	}
	label := func(id TaskID) string {
		if id >= 1 && int(id) <= len(t.Tasks) {
			return t.Tasks[id-1].Label
		}
		return ""
	}
	roots := kids[0]
	sort.SliceStable(roots, func(a, b int) bool {
		return label(t.Spawns[roots[a]].Child) < label(t.Spawns[roots[b]].Child)
	})

	task := make(map[TaskID]TaskID, len(t.Tasks)+1)
	task[0] = 0
	var order []TaskID // old IDs in canonical order
	visit := func(id TaskID) {
		if _, seen := task[id]; !seen && id >= 1 && int(id) <= len(t.Tasks) {
			task[id] = TaskID(len(order) + 1)
			order = append(order, id)
		}
	}
	for _, i := range roots {
		visit(t.Spawns[i].Child)
	}
	for next := 0; next < len(order); next++ {
		ch := kids[order[next]]
		sort.SliceStable(ch, func(a, b int) bool {
			return t.Spawns[ch[a]].At.Offset < t.Spawns[ch[b]].At.Offset
		})
		for _, i := range ch {
			visit(t.Spawns[i].Child)
		}
	}
	for i := range t.Tasks { // tasks no spawn record reaches
		visit(t.Tasks[i].ID)
	}
	stamp := func(s Stamp) Stamp { return Stamp{Task: task[s.Task], Offset: s.Offset} }
	before := func(a, b Stamp) bool {
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.Offset < b.Offset
	}

	out := t.withStamps(stamp)
	out.Tasks = make([]TaskInfo, len(order))
	out.ScopeGates = make(map[TaskID][]EventID, len(t.ScopeGates))
	stream := map[int32]int32{0: 0}
	for i, old := range order {
		ti := t.Tasks[old-1]
		ti.ID = TaskID(i + 1)
		if _, ok := stream[ti.Stream]; !ok {
			stream[ti.Stream] = int32(len(stream))
		}
		ti.Stream = stream[ti.Stream]
		out.Tasks[i] = ti
	}
	for i := range out.Spawns {
		sp := &out.Spawns[i]
		sp.Parent, sp.Child = task[sp.Parent], task[sp.Child]
	}
	sort.SliceStable(out.Spawns, func(a, b int) bool { return out.Spawns[a].Child < out.Spawns[b].Child })
	sort.SliceStable(out.Fires, func(a, b int) bool { return before(out.Fires[a].At, out.Fires[b].At) })
	sort.SliceStable(out.Waits, func(a, b int) bool { return before(out.Waits[a].At, out.Waits[b].At) })
	sort.SliceStable(out.Lookups, func(a, b int) bool { return before(out.Lookups[a].At, out.Lookups[b].At) })

	// Events and scopes, numbered by first reference.  Fires come first,
	// since each event's firer fixes its place; spawn gates are sets
	// whose recording order is arbitrary (the merge gates on every task
	// in spawn order), so they are numbered late and then sorted.
	// Pre-fired events (task 0) come last: their recording order is the
	// one order here that no task owns.
	event := make([]EventID, t.Events+1) // by recorded ID; 0 until numbered
	events := EventID(0)
	ev := func(e *EventID) {
		if *e == 0 {
			return
		}
		if event[*e] == 0 {
			events++
			event[*e] = events
		}
		*e = event[*e]
	}
	scope := map[int32]int32{0: 0}
	prefired := 0
	for i := range out.Fires {
		if out.Fires[i].At.Task == 0 {
			prefired++
			continue
		}
		ev(&out.Fires[i].Event)
	}
	for i := range out.Waits {
		ev(&out.Waits[i].Event)
	}
	for i := range out.Lookups {
		for h := range out.Lookups[i].Hops {
			hp := &out.Lookups[i].Hops[h]
			ev(&hp.Completion)
			if _, ok := scope[hp.Scope]; !ok {
				scope[hp.Scope] = int32(len(scope))
			}
			hp.Scope = scope[hp.Scope]
		}
	}
	for _, old := range order {
		if gs, ok := t.ScopeGates[old]; ok {
			gs = slices.Clone(gs)
			for g := range gs {
				ev(&gs[g])
			}
			out.ScopeGates[task[old]] = gs
		}
	}
	for _, sp := range out.Spawns {
		for g := range sp.Gates {
			ev(&sp.Gates[g])
		}
		slices.Sort(sp.Gates)
	}
	pre := out.Fires[:prefired]
	for i := range pre {
		ev(&pre[i].Event)
	}
	sort.SliceStable(pre, func(a, b int) bool { return pre[a].Event < pre[b].Event })
	out.Events = int(events)

	// The run: tasks in their new order, and the events only it names
	// (the waits' and the forced fires') numbered after all the others.
	// Fires and marks were recorded in time order, each stamped under the
	// Recorder's lock.
	if r := t.Run; r != nil {
		run := &Run{Epoch: r.Epoch, Tasks: make([]TaskRun, len(order))}
		for i, old := range order {
			tr := r.Tasks[old-1]
			tr.Stretches, tr.Waits = slices.Clone(tr.Stretches), slices.Clone(tr.Waits)
			for w := range tr.Waits {
				ev(&tr.Waits[w].Event)
			}
			run.Tasks[i] = tr
		}
		seen := make([]bool, int(events)+len(r.Fires)+1) // each fire numbers at most one event
		run.Fires = make([]Fire, 0, len(r.Fires))
		for _, f := range r.Fires {
			f.Task = task[f.Task]
			if ev(&f.Event); !seen[f.Event] {
				seen[f.Event] = true
				run.Fires = append(run.Fires, f)
			}
		}
		run.Marks = slices.Clone(r.Marks)
		for i := range run.Marks {
			run.Marks[i].Task = task[run.Marks[i].Task]
		}
		run.Events = int(events)
		out.Run = run
	}
	return out
}

// withStamps returns a copy of t's records with every stamp mapped
// through f, sharing Tasks, ScopeGates and Run with t.
func (t *Trace) withStamps(f func(Stamp) Stamp) *Trace {
	out := &Trace{
		Tasks:      t.Tasks,
		Fires:      slices.Clone(t.Fires),
		Waits:      slices.Clone(t.Waits),
		Spawns:     slices.Clone(t.Spawns),
		Lookups:    slices.Clone(t.Lookups),
		Events:     t.Events,
		ScopeGates: t.ScopeGates,
		Run:        t.Run,
	}
	for i := range out.Fires {
		out.Fires[i].At = f(out.Fires[i].At)
	}
	for i := range out.Waits {
		out.Waits[i].At = f(out.Waits[i].At)
	}
	for i := range out.Spawns {
		out.Spawns[i].At = f(out.Spawns[i].At)
		out.Spawns[i].Gates = slices.Clone(out.Spawns[i].Gates)
	}
	for i := range out.Lookups {
		l := &out.Lookups[i]
		l.At = f(l.At)
		l.Hops = slices.Clone(l.Hops)
		for h := range l.Hops {
			l.Hops[h].Insert = f(l.Hops[h].Insert)
		}
	}
	return out
}
