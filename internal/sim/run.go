package sim

import (
	"container/heap"

	"m2cc/internal/ctrace"
	"m2cc/internal/symtab"
)

const eps = 1e-9

// Run executes the simulation to completion and returns its result.
func (s *Sim) Run() *Result {
	// Initial tasks: spawn records with no parent, in record order.
	for i := range s.trace.Spawns {
		sp := &s.trace.Spawns[i]
		if sp.Parent != 0 {
			continue
		}
		if ts := s.tasks[sp.Child]; ts != nil {
			s.spawnTask(ts, s.gatesFor(sp.Child, sp.Gates))
		}
	}
	s.remain = len(s.order)
	s.now = s.opts.Startup
	s.busy = s.opts.Startup

	var executing []*proc
	for s.remain > 0 {
		s.dispatch()
		// Snapshot the executing set for this step: processing a
		// segment end may un-stall or release other processors, and
		// those must not be debited work they did not perform.
		executing = executing[:0]
		for _, p := range s.procs {
			if p.task != nil && !p.stalled {
				executing = append(executing, p)
			}
		}
		busy := len(executing)
		if busy == 0 {
			if !s.breakStall() {
				break
			}
			continue
		}
		rate := 1.0
		if s.opts.Beta > 0 && busy > 1 {
			rate = 1.0 / (1.0 + s.opts.Beta*float64(busy-1))
		}
		// Advance to the earliest segment boundary.
		dt := -1.0
		for _, p := range executing {
			d := p.segLeft / rate
			if dt < 0 || d < dt {
				dt = d
			}
		}
		if dt < 0 {
			break
		}
		s.now += dt
		s.busy += float64(busy) * dt
		work := dt * rate
		for _, p := range executing {
			if p.task == nil || p.stalled {
				continue // released or stalled by an earlier segment end
			}
			p.segLeft -= work
			if p.task.extra > 0 {
				p.task.extra -= work
				if p.task.extra < 0 {
					p.task.extra = 0
				}
			} else {
				p.task.progress += work
			}
			if p.segLeft <= eps {
				s.onSegmentEnd(p)
			}
		}
		s.checkWatchers()
	}

	res := &Result{Makespan: s.now, BusyTime: s.busy, Blocks: s.blocks, Stats: s.stats}
	res.Timeline = s.tl
	return res
}

// breakStall handles the no-executing-processor situation.  In healthy
// traces it cannot occur (barrier producers always hold a processor);
// defensively, pending events are force-fired so malformed traces
// terminate.  Returns false when nothing can be done.
func (s *Sim) breakStall() bool {
	if s.ready.Len() > 0 {
		// Processors all stalled on barriers yet tasks are ready: the
		// trace violates the producer-holds-a-slot invariant.  Force
		// the awaited events.
		return s.forceFire()
	}
	return s.forceFire()
}

func (s *Sim) forceFire() bool {
	var evs []ctrace.EventID
	for ev := range s.waiters {
		evs = append(evs, ev)
	}
	for ev := range s.gated {
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		// Watchers only: wake them unconditionally.
		n := 0
		for id, ws := range s.watchers {
			for _, w := range ws {
				if w.task.state == tsBlocked {
					s.makeReady(w.task)
					n++
				}
			}
			delete(s.watchers, id)
		}
		return n > 0
	}
	for _, ev := range evs {
		s.fire(ev)
	}
	return true
}

// dispatch assigns ready tasks to idle processors in priority order.
func (s *Sim) dispatch() {
	for s.ready.Len() > 0 {
		var free *proc
		for _, p := range s.procs {
			if p.task == nil {
				free = p
				break
			}
		}
		if free == nil {
			return
		}
		ts := heap.Pop(&s.ready).(*taskState)
		ts.state = tsRunning
		ts.proc = free.idx
		free.task = ts
		free.stalled = false
		free.started = s.now
		s.computeSegment(free)
		if free.segLeft <= eps {
			s.onSegmentEnd(free)
		}
	}
}

// release frees a processor, closing its timeline interval.
func (s *Sim) release(p *proc) {
	if s.opts.CollectTimeline && p.task != nil && s.now > p.started+eps {
		s.tl = append(s.tl, Interval{
			Proc: p.idx, Task: p.task.id, Kind: p.task.info.Kind,
			Start: p.started, End: s.now,
		})
	}
	p.task = nil
	p.stalled = false
}

// closeInterval records activity up to now without freeing the
// processor (barrier stalls keep the slot).
func (s *Sim) closeInterval(p *proc) {
	if s.opts.CollectTimeline && p.task != nil && s.now > p.started+eps {
		s.tl = append(s.tl, Interval{
			Proc: p.idx, Task: p.task.id, Kind: p.task.info.Kind,
			Start: p.started, End: s.now,
		})
	}
}

// onSegmentEnd processes the breakpoint a running task just reached.
// It may leave the task running (recomputing the next segment), stall
// the processor (barrier), or release it (handled block / finish).
func (s *Sim) onSegmentEnd(p *proc) {
	ts := p.task
	ts.extra = 0

	if ts.pendingLookup != nil {
		if !s.continueLookup(ts, p) {
			return // blocked again; processor released
		}
	}

	for ts.nextAct < len(ts.actions) {
		a := &ts.actions[ts.nextAct]
		if a.off-ts.progress > eps {
			// Spurious boundary (watcher split): keep executing.
			break
		}
		ts.progress = a.off
		switch a.kind {
		case actFire:
			ts.nextAct++
			s.fire(a.event)
		case actSpawn:
			ts.nextAct++
			if child := s.tasks[a.spawn.Child]; child != nil {
				s.spawnTask(child, s.gatesFor(a.spawn.Child, a.spawn.Gates))
			}
		case actWait:
			ts.nextAct++
			if _, ok := s.fired[a.event]; ok {
				continue
			}
			// Barrier wait: hold the processor, stop executing (§2.3.3).
			s.closeInterval(p)
			ts.state = tsStalled
			p.stalled = true
			s.waiters[a.event] = append(s.waiters[a.event], ts)
			return
		case actLookup:
			ts.nextAct++
			ts.pendingLookup = a.lookup
			ts.pendingHop = 0
			ts.hopBlocked = false
			if s.opts.Strategy == symtab.Optimistic {
				ts.extra += costOptimisticLookup
			}
			if !s.continueLookup(ts, p) {
				return
			}
			if ts.extra > 0 {
				s.computeSegment(p)
				if p.segLeft > eps {
					return
				}
			}
		case actFinish:
			s.release(p)
			ts.state = tsDone
			s.remain--
			return
		}
	}
	s.computeSegment(p)
	if p.segLeft <= eps && ts.nextAct < len(ts.actions) {
		// Zero-length segment: process immediately (recursion depth is
		// bounded by the action count).
		s.onSegmentEnd(p)
	}
}

// blockOn releases the processor and parks the task until the event
// fires, applying the DKY bookkeeping (§2.3.4: the resolving task is
// boosted to the queue front).
func (s *Sim) blockOn(ts *taskState, p *proc, ev ctrace.EventID, resumeCost float64) {
	s.blocks++
	s.stats.BumpBlock()
	ts.extra = resumeCost
	ts.state = tsBlocked
	s.waiters[ev] = append(s.waiters[ev], ts)
	if s.opts.BoostResolver {
		if prod := s.tasks[s.firerOf[ev]]; prod != nil && prod.heapIdx >= 0 {
			prod.priority = -1 << 62
			heap.Fix(&s.ready, prod.heapIdx)
		}
	}
	s.closeInterval(p)
	p.task = nil
	p.stalled = false
}

// blockOnWatcher parks the task until the producer reaches the given
// offset (the Optimistic per-symbol event).
func (s *Sim) blockOnWatcher(ts *taskState, p *proc, at ctrace.Stamp, resumeCost float64) {
	s.blocks++
	s.stats.BumpBlock()
	ts.extra = resumeCost
	ts.state = tsBlocked
	s.watchers[at.Task] = append(s.watchers[at.Task], watcher{off: at.Offset, task: ts})
	// Split the producer's current segment so the wake is punctual.
	if prod := s.tasks[at.Task]; prod != nil && prod.state == tsRunning {
		pp := s.procs[prod.proc]
		if left := at.Offset - prod.progress; left > eps && prod.extra <= 0 && left < pp.segLeft {
			pp.segLeft = left
		}
	}
	s.closeInterval(p)
	p.task = nil
	p.stalled = false
}

// producerReached reports whether the symbol inserted at the stamp is
// visible at the current simulated time.
func (s *Sim) producerReached(at ctrace.Stamp) bool {
	if at.Task == 0 {
		return true // pre-existing (builtins, parameters copied pre-gate)
	}
	prod := s.tasks[at.Task]
	return prod == nil || prod.state == tsDone || prod.progress+eps >= at.Offset
}

// completionFired reports whether the scope completion event has fired.
func (s *Sim) completionFired(ev ctrace.EventID) bool {
	_, ok := s.fired[ev]
	return ok
}

// continueLookup evaluates the pending lookup from its current hop
// under the configured strategy.  Returns false if the task blocked
// (the processor has been released).
func (s *Sim) continueLookup(ts *taskState, p *proc) bool {
	l := ts.pendingLookup
	for ts.pendingHop < len(l.Hops) {
		h := &l.Hops[ts.pendingHop]
		blocked := ts.hopBlocked
		ts.hopBlocked = false

		if h.Completion == 0 {
			// Self, WITH or builtin scope: never blocks.
			if h.Found {
				s.tally(l, h, false, false)
				ts.pendingLookup = nil
				return true
			}
			ts.pendingHop++
			continue
		}

		complete := s.completionFired(h.Completion)
		switch s.opts.Strategy {
		case symtab.Skeptical:
			if h.Found && s.producerReached(h.Insert) {
				s.tally(l, h, blocked, !complete)
				ts.pendingLookup = nil
				return true
			}
			if !h.Found && complete {
				ts.pendingHop++
				continue
			}
			if complete {
				// Found entry whose producer has completed but progress
				// bookkeeping lags (defensive): treat as found.
				s.tally(l, h, blocked, false)
				ts.pendingLookup = nil
				return true
			}
			ts.hopBlocked = true
			s.blockOn(ts, p, h.Completion, costResearch)
			return false

		case symtab.Pessimistic, symtab.Avoidance:
			if !complete {
				ts.hopBlocked = true
				s.blockOn(ts, p, h.Completion, costResearch/2)
				return false
			}
			if h.Found {
				s.tally(l, h, blocked, false)
				ts.pendingLookup = nil
				return true
			}
			ts.pendingHop++

		case symtab.Optimistic:
			if h.Found {
				if s.producerReached(h.Insert) {
					s.tally(l, h, blocked, !complete)
					ts.pendingLookup = nil
					return true
				}
				ts.hopBlocked = true
				s.blockOnWatcher(ts, p, h.Insert, costOptimisticBlockage)
				return false
			}
			if complete {
				ts.pendingHop++
				continue
			}
			ts.hopBlocked = true
			s.blockOn(ts, p, h.Completion, costOptimisticBlockage)
			return false
		}
	}
	// Searched every scope without success: the "Never" row.
	if s.stats != nil {
		s.stats.Bump(symtab.StatKey{Qualified: l.Qualified, When: symtab.Never})
	}
	ts.pendingLookup = nil
	return true
}

// tally classifies a successful lookup for Table 2.
func (s *Sim) tally(l *ctrace.LookupRecord, h *ctrace.Hop, blocked, incomplete bool) {
	if s.stats == nil {
		return
	}
	var when symtab.FoundWhen
	switch {
	case blocked:
		when = symtab.AfterDKY
	case h.Rel == ctrace.RelOuter:
		when = symtab.SearchOut
	default:
		when = symtab.FirstTry
	}
	if h.Rel == ctrace.RelSelf || h.Rel == ctrace.RelWith || h.Rel == ctrace.RelBuiltin {
		incomplete = false
	}
	s.stats.Bump(symtab.StatKey{
		Qualified: l.Qualified, When: when, Rel: h.Rel, Incomplete: incomplete,
	})
}

// taskHeap orders ready tasks by (priority, seq): the one ready queue
// of sched.Supervisor, which dispatches from the same single heap at
// every processor count, so a replay and a live run share one queue
// discipline.
type taskHeap []*taskState

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *taskHeap) Push(x any) {
	t := x.(*taskState)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}
