package sim_test

import (
	"testing"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
	"m2cc/internal/sim"
	"m2cc/internal/symtab"
)

// traceBuilder assembles a trace by hand through the recording API the
// instrumented compiler uses: one TaskCtx per task, live events.
type traceBuilder struct {
	rec   *ctrace.Recorder
	ctxs  []*ctrace.TaskCtx // by TaskID-1
	costs []float64
}

func newBuilder() *traceBuilder {
	return &traceBuilder{rec: ctrace.NewRecorder()}
}

func (b *traceBuilder) task(kind ctrace.TaskKind, label string, cost float64) ctrace.TaskID {
	id := b.rec.RegisterTask(kind, 0, label)
	b.ctxs = append(b.ctxs, &ctrace.TaskCtx{ID: id, Kind: kind, Rec: b.rec})
	b.costs = append(b.costs, cost)
	return id
}

// at returns the task's context positioned at work-unit offset off.
func (b *traceBuilder) at(id ctrace.TaskID, off float64) *ctrace.TaskCtx {
	ctx := b.ctxs[id-1]
	ctx.Units = off
	return ctx
}

// fire records that the task fires a fresh event at offset off.
func (b *traceBuilder) fire(id ctrace.TaskID, off float64) *event.Event {
	e := event.New()
	b.at(id, off).FireEvent(e)
	return e
}

func (b *traceBuilder) spawn(parent ctrace.TaskID, at float64, child ctrace.TaskID, gates ...*event.Event) {
	var stamp ctrace.Stamp
	if parent != 0 {
		stamp = b.at(parent, at).Stamp()
	}
	b.rec.NoteSpawn(parent, stamp, child, gates)
}

// lookup records a successful lookup by the task at offset off that
// finds its entry in one outer scope completed by completion.
func (b *traceBuilder) lookup(id ctrace.TaskID, off float64, completion *event.Event, insert ctrace.Stamp) {
	hops := []ctrace.Hop{{
		Scope: 1, Rel: ctrace.RelOuter, Completion: b.rec.EventIDOf(completion),
		Found: true, Insert: insert,
	}}
	b.ctxs[id-1].NoteLookup(false, ctrace.Stamp{Task: id, Offset: off}, hops, true)
}

// trace finishes every task at its cost and returns the trace.
func (b *traceBuilder) trace() *ctrace.Trace {
	for i, ctx := range b.ctxs {
		ctx.Units = b.costs[i]
		ctx.Finish()
	}
	return b.rec.Trace()
}

func TestSimTwoIndependentTasks(t *testing.T) {
	b := newBuilder()
	a := b.task(ctrace.KindShortStmtCG, "a", 100)
	c := b.task(ctrace.KindShortStmtCG, "c", 100)
	b.spawn(0, 0, a)
	b.spawn(0, 0, c)
	tr := b.trace()

	one := sim.New(tr, sim.Options{Processors: 1, Strategy: symtab.Skeptical}).Run()
	two := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Skeptical}).Run()
	if one.Makespan != 200 {
		t.Fatalf("P=1 makespan %f, want 200", one.Makespan)
	}
	if two.Makespan != 100 {
		t.Fatalf("P=2 makespan %f, want 100", two.Makespan)
	}
}

func TestSimGateDelaysChild(t *testing.T) {
	b := newBuilder()
	parent := b.task(ctrace.KindModParseDecl, "parent", 100)
	child := b.task(ctrace.KindProcParseDecl, "child", 50)
	// The parent fires the gate at offset 60.
	gate := b.fire(parent, 60)
	b.spawn(0, 0, parent)
	b.spawn(parent, 10, child, gate)
	tr := b.trace()
	r := sim.New(tr, sim.Options{Processors: 4, Strategy: symtab.Skeptical}).Run()
	// Child can only start at t=60, finishing at 110; parent ends at 100.
	if r.Makespan != 110 {
		t.Fatalf("makespan %f, want 110", r.Makespan)
	}
}

func TestSimBarrierHoldsProcessor(t *testing.T) {
	b := newBuilder()
	prod := b.task(ctrace.KindLexor, "prod", 100)
	cons := b.task(ctrace.KindSplitter, "cons", 10)
	ready := b.fire(prod, 80)
	b.at(cons, 2).NoteBarrier(ready)
	b.spawn(0, 0, prod)
	b.spawn(0, 0, cons)
	tr := b.trace()
	// With 2 processors the consumer stalls (holding its processor)
	// until t=80, then runs its remaining 8 units: makespan 100 (the
	// producer bounds it).
	r := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Skeptical}).Run()
	if r.Makespan != 100 {
		t.Fatalf("makespan %f, want 100", r.Makespan)
	}
	// Busy time excludes the stall: 100 (producer) + 10 (consumer).
	if r.BusyTime != 110 {
		t.Fatalf("busy %f, want 110", r.BusyTime)
	}
}

// TestSimBarrierOnPrefiredEventSkipped checks that a barrier wait on an
// event fired before the compilation began (an interface-cache hit)
// costs nothing: the simulator fires pre-fired events at startup.
func TestSimBarrierOnPrefiredEventSkipped(t *testing.T) {
	b := newBuilder()
	cons := b.task(ctrace.KindSplitter, "cons", 40)
	ready := event.New()
	b.rec.NotePrefired(ready)
	b.at(cons, 10).NoteBarrier(ready)
	b.spawn(0, 0, cons)
	tr := b.trace()

	r := sim.New(tr, sim.Options{Processors: 1, Strategy: symtab.Skeptical}).Run()
	if r.Makespan != 40 {
		t.Fatalf("makespan %f, want 40 (pre-fired wait is free)", r.Makespan)
	}
	if r.Blocks != 0 {
		t.Fatalf("blocks %d, want 0", r.Blocks)
	}
}

func TestSimStartupShiftsEverything(t *testing.T) {
	b := newBuilder()
	a := b.task(ctrace.KindShortStmtCG, "a", 100)
	b.spawn(0, 0, a)
	tr := b.trace()
	r := sim.New(tr, sim.Options{Processors: 4, Startup: 500, Strategy: symtab.Skeptical}).Run()
	if r.Makespan != 600 {
		t.Fatalf("makespan %f, want 600", r.Makespan)
	}
}

func TestSimSkepticalLookupBlocksUntilCompletion(t *testing.T) {
	b := newBuilder()
	producer := b.task(ctrace.KindModParseDecl, "producer", 200)
	consumer := b.task(ctrace.KindProcParseDecl, "consumer", 50)
	completion := b.fire(producer, 200)
	// The symbol is inserted at offset 150 of the producer; the consumer
	// looks it up at its own offset 10.
	b.lookup(consumer, 10, completion, ctrace.Stamp{Task: producer, Offset: 150})
	b.spawn(0, 0, producer)
	b.spawn(0, 0, consumer)
	tr := b.trace()

	// Skeptical: the consumer probes at t≈10, the entry is not yet
	// inserted (producer at ~10 of 150) → blocks until COMPLETION
	// (t=200), then finishes its remaining 40 units + re-search cost.
	r := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Skeptical}).Run()
	if r.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1", r.Blocks)
	}
	if r.Makespan < 240 || r.Makespan > 250 {
		t.Fatalf("makespan %f, want ≈ 200 + 40 + research", r.Makespan)
	}

	// Optimistic wakes at the INSERT (t=150), not completion.
	ro := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Optimistic}).Run()
	if ro.Makespan >= r.Makespan {
		t.Fatalf("optimistic (%f) must beat skeptical (%f) here", ro.Makespan, r.Makespan)
	}
	if ro.Makespan < 190 || ro.Makespan > 210 {
		t.Fatalf("optimistic makespan %f, want ≈ 150 + 40 + overhead", ro.Makespan)
	}

	// Pessimistic also waits for completion even when the entry would
	// have been found earlier; with the symbol inserted BEFORE the
	// probe it still blocks.  Here the probe precedes the insert anyway,
	// so it matches skeptical.
	rp := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Pessimistic}).Run()
	if rp.Blocks != 1 {
		t.Fatalf("pessimistic blocks = %d", rp.Blocks)
	}
}

func TestSimSkepticalFindsEarlyInsert(t *testing.T) {
	b := newBuilder()
	producer := b.task(ctrace.KindModParseDecl, "producer", 200)
	consumer := b.task(ctrace.KindProcParseDecl, "consumer", 50)
	completion := b.fire(producer, 200)
	// Insert at offset 5 — well before the consumer's probe at 30.
	b.lookup(consumer, 30, completion, ctrace.Stamp{Task: producer, Offset: 5})
	b.spawn(0, 0, producer)
	b.spawn(0, 0, consumer)
	tr := b.trace()

	// Skeptical searches the incomplete table and hits: no block.
	rs := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Skeptical, CollectStats: true}).Run()
	if rs.Blocks != 0 {
		t.Fatalf("skeptical blocks = %d, want 0", rs.Blocks)
	}
	var incompleteHit bool
	for _, row := range rs.Stats.Rows() {
		if row.Key.Incomplete && row.Key.Rel == ctrace.RelOuter {
			incompleteHit = true
		}
	}
	if !incompleteHit {
		t.Fatalf("want an incomplete-table hit row:\n%s", rs.Stats)
	}

	// Pessimistic blocks anyway — the §2.2 difference.
	rp := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Pessimistic}).Run()
	if rp.Blocks != 1 {
		t.Fatalf("pessimistic blocks = %d, want 1", rp.Blocks)
	}
	if rp.Makespan <= rs.Makespan {
		t.Fatalf("pessimistic (%f) must be slower than skeptical (%f)", rp.Makespan, rs.Makespan)
	}
}

func TestSimAvoidanceAppliesScopeGates(t *testing.T) {
	b := newBuilder()
	parent := b.task(ctrace.KindModParseDecl, "parent", 100)
	child := b.task(ctrace.KindProcParseDecl, "child", 20)
	completion := b.fire(parent, 100)
	b.spawn(0, 0, parent)
	b.spawn(parent, 10, child)
	b.rec.NoteScopeGate(child, completion)
	tr := b.trace()

	sk := sim.New(tr, sim.Options{Processors: 4, Strategy: symtab.Skeptical}).Run()
	av := sim.New(tr, sim.Options{Processors: 4, Strategy: symtab.Avoidance}).Run()
	if sk.Makespan != 100 {
		t.Fatalf("skeptical makespan %f (child overlaps)", sk.Makespan)
	}
	if av.Makespan != 120 {
		t.Fatalf("avoidance makespan %f, want 120 (child gated on completion)", av.Makespan)
	}
}

func TestSimBoostAblation(t *testing.T) {
	// Two processors.  The consumer (long remaining work) blocks early
	// on a completion fired by "resolver" (worst class).  Two same-class
	// competitors keep the machine busy.  With the §2.3.4 boost the
	// freed slot runs the resolver immediately, so the consumer resumes
	// at ~110; without it the resolver waits behind the competitors and
	// the consumer's 490 remaining units start hundreds of units later.
	b := newBuilder()
	consumer := b.task(ctrace.KindLexor, "consumer", 500)
	other1 := b.task(ctrace.KindSplitter, "other1", 300)
	other2 := b.task(ctrace.KindSplitter, "other2", 300)
	resolver := b.task(ctrace.KindMerge, "resolver", 100)
	completion := b.fire(resolver, 100)
	b.lookup(consumer, 10, completion, ctrace.Stamp{Task: resolver, Offset: 90})
	b.spawn(0, 0, consumer)
	b.spawn(0, 0, other1)
	b.spawn(0, 0, other2)
	b.spawn(0, 0, resolver)
	tr := b.trace()

	boosted := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Skeptical, BoostResolver: true}).Run()
	plain := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Skeptical}).Run()
	if !(boosted.Makespan+50 < plain.Makespan) {
		t.Fatalf("boost must help on this graph: boosted %f vs plain %f",
			boosted.Makespan, plain.Makespan)
	}
	if boosted.Blocks != 1 || plain.Blocks != 1 {
		t.Fatalf("blocks: %d / %d, want 1 / 1", boosted.Blocks, plain.Blocks)
	}
}

func TestSimLongBeforeShortOrdering(t *testing.T) {
	// Three G tasks of sizes 90, 30, 30 on two processors, all ready at
	// once.  Long-first: makespan 90.  Without the rule (FIFO by spawn
	// order — for roots, label order — short ones first): 30+90 = 120 on
	// one processor.
	b := newBuilder()
	s1 := b.task(ctrace.KindShortStmtCG, "s1", 30)
	s2 := b.task(ctrace.KindShortStmtCG, "s2", 30)
	long := b.task(ctrace.KindLongStmtCG, "t-long", 90)
	b.spawn(0, 0, s1)
	b.spawn(0, 0, s2)
	b.spawn(0, 0, long)
	tr := b.trace()

	with := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Skeptical, LongBeforeShort: true}).Run()
	without := sim.New(tr, sim.Options{Processors: 2, Strategy: symtab.Skeptical}).Run()
	if with.Makespan != 90 {
		t.Fatalf("with ordering: %f, want 90", with.Makespan)
	}
	if without.Makespan != 120 {
		t.Fatalf("without ordering: %f, want 120", without.Makespan)
	}
}
