package sched_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
	"m2cc/internal/sched"
)

func TestPriorityOrderOnOneWorker(t *testing.T) {
	// With one worker and all tasks spawned up front, execution follows
	// the §2.3.4 class order regardless of spawn order.
	s := sched.New(1, nil)
	var mu sync.Mutex
	var order []string
	add := func(kind ctrace.TaskKind, name string) {
		s.Spawn(kind, 0, name, sched.Priority(kind, 0), nil, nil, func(*sched.Task) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		})
	}
	// Occupy the single worker slot while the tasks are spawned in
	// reverse class order, so the ready queue decides who runs first.
	release := make(chan struct{})
	s.Spawn(ctrace.KindLexor, 0, "hold", sched.Priority(ctrace.KindLexor, 0),
		nil, nil, func(*sched.Task) { <-release })
	add(ctrace.KindShortStmtCG, "short")
	add(ctrace.KindLongStmtCG, "long")
	add(ctrace.KindDefParseDecl, "defparse")
	add(ctrace.KindSplitter, "split")
	add(ctrace.KindLexor, "lex")
	close(release)
	s.Wait()
	want := []string{"lex", "split", "defparse", "long", "short"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestLongerTasksFirstWithinClass(t *testing.T) {
	s := sched.New(1, nil)
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	s.Spawn(ctrace.KindLexor, 0, "hold", sched.Priority(ctrace.KindLexor, 0),
		nil, nil, func(*sched.Task) { <-release })
	for _, c := range []struct {
		name string
		size int64
	}{{"small", 10}, {"big", 1000}, {"mid", 100}} {
		name := c.name
		s.Spawn(ctrace.KindLongStmtCG, 0, name, sched.Priority(ctrace.KindLongStmtCG, c.size),
			nil, nil, func(*sched.Task) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			})
	}
	close(release)
	s.Wait()
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "big" || order[1] != "mid" || order[2] != "small" {
		t.Fatalf("order %v, want big mid small (§2.3.4: long before short)", order)
	}
}

func TestAvoidedEventsGateTasks(t *testing.T) {
	s := sched.New(4, nil)
	g1, g2 := event.New(), event.New()
	var ran atomic.Bool
	s.Spawn(ctrace.KindLexor, 0, "gated", 0, []*event.Event{g1, g2}, nil,
		func(*sched.Task) { ran.Store(true) })
	time.Sleep(5 * time.Millisecond)
	if ran.Load() {
		t.Fatal("task ran before its gates fired")
	}
	g1.Fire()
	time.Sleep(5 * time.Millisecond)
	if ran.Load() {
		t.Fatal("task ran with one gate still unfired")
	}
	g2.Fire()
	s.Wait()
	if !ran.Load() {
		t.Fatal("task never ran")
	}
}

func TestHandledWaitReleasesSlot(t *testing.T) {
	// One worker: task A blocks on an event fired by task B.  B can only
	// run if A's handled wait released the worker slot.
	s := sched.New(1, nil)
	e := event.New()
	var sequence []string
	var mu sync.Mutex
	log := func(m string) { mu.Lock(); sequence = append(sequence, m); mu.Unlock() }

	s.Spawn(ctrace.KindLexor, 0, "A", 0, nil, nil, func(t *sched.Task) {
		log("A-start")
		t.HandledWait(e)
		log("A-resume")
	})
	s.Spawn(ctrace.KindSplitter, 0, "B", 1, nil, nil, func(t *sched.Task) {
		log("B")
		t.Ctx.FireEvent(e)
	})
	s.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []string{"A-start", "B", "A-resume"}
	for i := range want {
		if i >= len(sequence) || sequence[i] != want[i] {
			t.Fatalf("sequence %v, want %v", sequence, want)
		}
	}
}

func TestHandledWaitOnFiredEventIsFree(t *testing.T) {
	s := sched.New(1, nil)
	e := event.New()
	e.Fire()
	done := false
	s.Spawn(ctrace.KindLexor, 0, "A", 0, nil, nil, func(t *sched.Task) {
		t.HandledWait(e) // must return immediately
		done = true
	})
	s.Wait()
	if !done {
		t.Fatal("task did not finish")
	}
}

func TestProducerBoost(t *testing.T) {
	// When A blocks on an event produced by P, the supervisor runs P
	// before other ready tasks even if P has a worse class priority.
	s := sched.New(1, nil)
	e := event.New()
	var mu sync.Mutex
	var order []string
	log := func(m string) { mu.Lock(); order = append(order, m); mu.Unlock() }

	s.Spawn(ctrace.KindLexor, 0, "A", 0, nil, nil, func(t *sched.Task) {
		log("A")
		t.HandledWait(e)
		log("A2")
	})
	// "other" has better class priority than producer, but producer
	// must be preferred once A blocks on e.
	producer := s.Spawn(ctrace.KindMerge, 0, "producer",
		sched.Priority(ctrace.KindMerge, 0), nil, nil, func(t *sched.Task) {
			log("producer")
			t.Ctx.FireEvent(e)
		})
	s.SetProducer(e, producer)
	s.Spawn(ctrace.KindSplitter, 0, "other",
		sched.Priority(ctrace.KindSplitter, 0), nil, nil, func(*sched.Task) { log("other") })
	s.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) < 2 || order[0] != "A" || order[1] != "producer" {
		t.Fatalf("order %v: the DKY-resolving task must run first (§2.3.4)", order)
	}
}

func TestTaskDoneEventFires(t *testing.T) {
	s := sched.New(2, nil)
	a := s.Spawn(ctrace.KindLexor, 0, "A", 0, nil, nil, func(*sched.Task) {})
	ran := false
	s.Spawn(ctrace.KindSplitter, 0, "B", 1, []*event.Event{a.Done()}, nil,
		func(*sched.Task) { ran = true })
	s.Wait()
	if !ran {
		t.Fatal("task gated on Done never ran")
	}
}

func TestDeadlockWatchdogBreaksCycles(t *testing.T) {
	// Two tasks each waiting on an event only the other would fire: the
	// watchdog must fire the events and report, never hang.
	s := sched.New(2, nil)
	var msgs []string
	var mu sync.Mutex
	s.OnDeadlock = func(m string) { mu.Lock(); msgs = append(msgs, m); mu.Unlock() }
	e1, e2 := event.New(), event.New()
	s.Spawn(ctrace.KindLexor, 0, "A", 0, nil, nil, func(t *sched.Task) {
		t.HandledWait(e1)
		t.Ctx.FireEvent(e2)
	})
	s.Spawn(ctrace.KindLexor, 0, "B", 0, nil, nil, func(t *sched.Task) {
		t.HandledWait(e2)
		t.Ctx.FireEvent(e1)
	})
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock not broken")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(msgs) == 0 {
		t.Fatal("watchdog must report the broken deadlock")
	}
}

func TestManyTasksStress(t *testing.T) {
	s := sched.New(4, nil)
	var count atomic.Int64
	var spawnChild func(depth int) func(*sched.Task)
	spawnChild = func(depth int) func(*sched.Task) {
		return func(task *sched.Task) {
			count.Add(1)
			if depth < 3 {
				for i := 0; i < 3; i++ {
					s.Spawn(ctrace.KindShortStmtCG, 0, "c", 7, nil, task.Ctx, spawnChild(depth+1))
				}
			}
		}
	}
	for i := 0; i < 5; i++ {
		s.Spawn(ctrace.KindLexor, 0, "root", 0, nil, nil, spawnChild(0))
	}
	s.Wait()
	want := int64(5 * (1 + 3 + 9 + 27))
	if got := count.Load(); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
}

func TestSpawnRecordedInTrace(t *testing.T) {
	rec := ctrace.NewRecorder()
	s := sched.New(2, rec)
	g := event.New()
	parent := s.Spawn(ctrace.KindLexor, 1, "parent", 0, nil, nil, func(t *sched.Task) {
		s.Spawn(ctrace.KindSplitter, 1, "child", 1, []*event.Event{g}, t.Ctx, func(*sched.Task) {})
		t.Ctx.FireEvent(g)
	})
	_ = parent
	s.Wait()
	tr := rec.Trace()
	if len(tr.Tasks) != 2 {
		t.Fatalf("trace has %d tasks, want 2", len(tr.Tasks))
	}
	var sawChildSpawn bool
	for _, sp := range tr.Spawns {
		if sp.Parent != 0 && len(sp.Gates) == 1 {
			sawChildSpawn = true
		}
	}
	if !sawChildSpawn {
		t.Fatal("child spawn with gate not recorded")
	}
	for _, ti := range tr.Tasks {
		if ti.Cost <= 0 {
			t.Fatalf("task %s has no cost", ti.Label)
		}
	}
}

func TestBarrierWaitHoldsSlot(t *testing.T) {
	// A barrier wait must not release the worker: with one worker and a
	// barrier whose producer fires from outside the supervisor, a ready
	// task must NOT sneak in between.
	s := sched.New(1, nil)
	e := event.New()
	var order []string
	var mu sync.Mutex
	log := func(m string) { mu.Lock(); order = append(order, m); mu.Unlock() }
	s.Spawn(ctrace.KindLexor, 0, "A", 0, nil, nil, func(t *sched.Task) {
		log("A-start")
		t.BarrierWait(e)
		log("A-end")
	})
	s.Spawn(ctrace.KindSplitter, 0, "B", 1, nil, nil, func(*sched.Task) { log("B") })
	go func() {
		time.Sleep(10 * time.Millisecond)
		e.Fire()
	}()
	s.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []string{"A-start", "A-end", "B"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order %v, want %v (B must wait for the held slot)", order, want)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	// A panicking task must not crash the process: its Done event still
	// fires (so gated siblings run), its slot is released, OnPanic
	// reports kind/stream/label, and Wait returns.
	s := sched.New(1, nil)
	var mu sync.Mutex
	var faulted *sched.Task
	var recovered any
	s.OnPanic = func(task *sched.Task, r any, stack []byte) {
		mu.Lock()
		faulted, recovered = task, r
		mu.Unlock()
		if len(stack) == 0 {
			t.Error("OnPanic got an empty stack")
		}
	}
	bad := s.Spawn(ctrace.KindDefParseDecl, 3, "bad", 0, nil, nil, func(*sched.Task) {
		panic("boom")
	})
	var ran atomic.Bool
	s.Spawn(ctrace.KindSplitter, 0, "after", 1, []*event.Event{bad.Done()}, nil,
		func(*sched.Task) { ran.Store(true) })
	s.Wait()
	if !ran.Load() {
		t.Fatal("task gated on the panicking task's Done never ran")
	}
	mu.Lock()
	defer mu.Unlock()
	if faulted == nil || faulted.Label != "bad" {
		t.Fatalf("OnPanic task = %v", faulted)
	}
	if faulted.Kind() != ctrace.KindDefParseDecl || faulted.Stream() != 3 {
		t.Fatalf("OnPanic kind/stream = %v/%d", faulted.Kind(), faulted.Stream())
	}
	if recovered != "boom" {
		t.Fatalf("recovered %v, want boom", recovered)
	}
	if s.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", s.Faults())
	}
}

func TestPanicForceFiresProducedEvents(t *testing.T) {
	// A waiter blocked on an event whose registered producer panics must
	// be released by the recovery's force-fire, without the deadlock
	// watchdog getting involved.
	s := sched.New(2, nil)
	var deadlocked atomic.Bool
	s.OnDeadlock = func(string) { deadlocked.Store(true) }
	s.OnPanic = func(*sched.Task, any, []byte) {}
	e := event.New()
	hold := event.New() // keeps the producer from running before A blocks
	var resumed atomic.Bool
	s.Spawn(ctrace.KindLexor, 0, "A", 0, nil, nil, func(task *sched.Task) {
		task.Ctx.FireEvent(hold)
		task.HandledWait(e)
		resumed.Store(true)
	})
	p := s.Spawn(ctrace.KindMerge, 0, "producer", 1, []*event.Event{hold}, nil,
		func(*sched.Task) { panic("producer died before firing") })
	s.SetProducer(e, p)
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("panic recovery did not unwedge the waiter")
	}
	if !resumed.Load() {
		t.Fatal("waiter never resumed")
	}
	if deadlocked.Load() {
		t.Fatal("watchdog fired; the panic recovery should have force-fired the event")
	}
}

func TestExternalWaitStallTimeout(t *testing.T) {
	// An ExternalWait on an event no one will ever fire must return
	// false after StallTimeout instead of hanging the compilation.
	s := sched.New(2, nil)
	s.StallTimeout = 10 * time.Millisecond
	foreign := event.New()
	var timedOut atomic.Bool
	s.Spawn(ctrace.KindDefParseDecl, 0, "waiter", 0, nil, nil, func(task *sched.Task) {
		timedOut.Store(!task.ExternalWait(foreign))
	})
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled external wait never timed out")
	}
	if !timedOut.Load() {
		t.Fatal("ExternalWait reported the event as fired")
	}
}

func TestExternalWaitFiredBeforeDeadline(t *testing.T) {
	s := sched.New(2, nil)
	s.StallTimeout = time.Minute
	foreign := event.New()
	var ok atomic.Bool
	s.Spawn(ctrace.KindDefParseDecl, 0, "waiter", 0, nil, nil, func(task *sched.Task) {
		ok.Store(task.ExternalWait(foreign))
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		foreign.Fire()
	}()
	s.Wait()
	if !ok.Load() {
		t.Fatal("ExternalWait reported a stall for a fired event")
	}
}

func TestDeadlockReportNamesStuckTasks(t *testing.T) {
	// The watchdog message must carry a scheduler state dump naming the
	// stuck tasks and the producers of the events they wait on.
	s := sched.New(2, nil)
	var mu sync.Mutex
	var msg string
	s.OnDeadlock = func(m string) { mu.Lock(); msg = m; mu.Unlock() }
	e1, e2 := event.New(), event.New()
	alpha := s.Spawn(ctrace.KindLexor, 0, "Alpha", 0, nil, nil, func(task *sched.Task) {
		task.HandledWait(e1)
		task.Ctx.FireEvent(e2)
	})
	beta := s.Spawn(ctrace.KindLexor, 0, "Beta", 0, nil, nil, func(task *sched.Task) {
		task.HandledWait(e2)
		task.Ctx.FireEvent(e1)
	})
	s.SetProducer(e1, beta)
	s.SetProducer(e2, alpha)
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock not broken")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{"Alpha", "Beta", "scheduler state", "produced by", "blocked"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock report missing %q:\n%s", want, msg)
		}
	}
}

// TestPriorityOrderAcrossWorkers pins the single ready queue: two busy
// slots each spawn one child — a lint task from one, a procedure parse
// from the other — and whichever slot frees up first must run the
// parse, the better §2.3.4 class, no matter which slot spawned it.
func TestPriorityOrderAcrossWorkers(t *testing.T) {
	s := sched.New(2, nil)
	var mu sync.Mutex
	var order []string
	first := make(chan struct{})
	child := func(parent *sched.Task, kind ctrace.TaskKind, name string) {
		s.Spawn(kind, 0, name, sched.Priority(kind, 0), nil, parent.Ctx, func(*sched.Task) {
			mu.Lock()
			order = append(order, name)
			if len(order) == 1 {
				close(first)
			}
			mu.Unlock()
		})
	}
	var spawned sync.WaitGroup
	spawned.Add(2)
	both := make(chan struct{}) // keeps either child from being spawned before both slots are busy
	releaseLint, releaseParse := make(chan struct{}), make(chan struct{})
	s.Spawn(ctrace.KindLexor, 0, "lint-spawner", 0, nil, nil, func(task *sched.Task) {
		<-both
		child(task, ctrace.KindAnalysis, "lint")
		spawned.Done()
		<-releaseLint
	})
	s.Spawn(ctrace.KindLexor, 0, "parse-spawner", 0, nil, nil, func(task *sched.Task) {
		<-both
		child(task, ctrace.KindProcParseDecl, "parse")
		spawned.Done()
		<-releaseParse
	})
	close(both)
	spawned.Wait()
	close(releaseLint)
	<-first
	close(releaseParse)
	s.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "parse" {
		t.Fatalf("order %v, want the parse first (§2.3.4 class order across workers)", order)
	}
}

// TestResidentWorkerRunsChainOnOneGoroutine pins the resident-worker
// property: on one worker, a tree of tasks that never block runs on the
// single goroutine the first grant started, every later dispatch being a
// same-goroutine handoff; a task that gives its slot up to block costs
// exactly one more goroutine (for the task that takes the slot over).
func TestResidentWorkerRunsChainOnOneGoroutine(t *testing.T) {
	s := sched.New(1, nil)
	var count atomic.Int64
	var child func(depth int) func(*sched.Task)
	child = func(depth int) func(*sched.Task) {
		return func(task *sched.Task) {
			count.Add(1)
			if depth < 3 {
				for i := 0; i < 4; i++ {
					s.Spawn(ctrace.KindShortStmtCG, 0, "c", 7, nil, task.Ctx, child(depth+1))
				}
			}
		}
	}
	spawned := make(chan struct{}) // holds root (and the slot) until every Spawn from outside is in
	root := child(0)
	done := s.Spawn(ctrace.KindLexor, 0, "root", 0, nil, nil, func(t *sched.Task) { <-spawned; root(t) }).Done()
	// A gated task released by the running task's Done event also stays
	// on the resident goroutine.
	s.Spawn(ctrace.KindMerge, 0, "gated", 9, []*event.Event{done}, nil, func(*sched.Task) { count.Add(1) })
	close(spawned)
	s.Wait()
	const tasks = 1 + 4 + 16 + 64 + 1
	if got := count.Load(); got != tasks {
		t.Fatalf("ran %d tasks, want %d", got, tasks)
	}
	c := s.Counters()
	if c.Goroutines != 1 || c.Handoffs != tasks-1 || s.Exited() != 1 {
		t.Fatalf("non-blocking chain on one worker: %d goroutines (%d exited), %d handoffs; want 1 (1) and %d",
			c.Goroutines, s.Exited(), c.Handoffs, tasks-1)
	}

	s = sched.New(1, nil)
	e := event.New()
	s.Spawn(ctrace.KindLexor, 0, "A", 0, nil, nil, func(t *sched.Task) { t.HandledWait(e) })
	s.Spawn(ctrace.KindSplitter, 0, "B", 1, nil, nil, func(t *sched.Task) { t.Ctx.FireEvent(e) })
	s.Wait()
	if c := s.Counters(); c.Goroutines != 2 || s.Exited() != 2 {
		t.Fatalf("one blocking task on one worker: %d goroutines (%d exited), want 2 (2)", c.Goroutines, s.Exited())
	}
}

// TestHandledWaitReadiedAtFire: at one worker, W_i takes a handled wait
// on an event that F_i fires, and W_i runs before F_i, F_i before
// W_(i+1).  The fire readies W_i while F_i still holds the slot, so the
// slot passes from F_i to W_i, not to W_(i+1): the log reads W_i F_i
// W_i' for each i in turn.
func TestHandledWaitReadiedAtFire(t *testing.T) {
	const n = 50
	s := sched.New(1, nil)
	var mu sync.Mutex
	var got []string
	log := func(m string, i int) { mu.Lock(); got = append(got, fmt.Sprintf("%s%d", m, i)); mu.Unlock() }
	release := make(chan struct{})
	s.Spawn(ctrace.KindLexor, 0, "hold", -1, nil, nil, func(*sched.Task) { <-release })
	for i := range n {
		e := event.New()
		s.Spawn(ctrace.KindLexor, 0, "W", int64(2*i), nil, nil, func(task *sched.Task) {
			log("W", i)
			task.HandledWait(e)
			log("W'", i)
		})
		s.Spawn(ctrace.KindLexor, 0, "F", int64(2*i+1), nil, nil, func(task *sched.Task) {
			log("F", i)
			task.Ctx.FireEvent(e)
		})
	}
	close(release)
	s.Wait()
	var want []string
	for i := range n {
		want = append(want, fmt.Sprintf("W%d", i), fmt.Sprintf("F%d", i), fmt.Sprintf("W'%d", i))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("log %v, want %v", got, want)
	}
}

// TestDeadlockBreaksInOneOrder: a three-way cycle of handled waits at
// one worker (A waits on what C fires, B on what A fires, C on what B
// fires) breaks the same way every time: the watchdog fires the newest
// waiter's event first, so C resumes first, then A, then B.
func TestDeadlockBreaksInOneOrder(t *testing.T) {
	for run := range 20 {
		s := sched.New(1, nil)
		var mu sync.Mutex
		var got []string
		deadlocks := 0
		s.OnDeadlock = func(string) { mu.Lock(); deadlocks++; mu.Unlock() }
		eA, eB, eC := event.New(), event.New(), event.New()
		cycle := func(name string, wait, fire *event.Event) {
			s.Spawn(ctrace.KindLexor, 0, name, 0, nil, nil, func(task *sched.Task) {
				task.HandledWait(wait)
				mu.Lock()
				got = append(got, name)
				mu.Unlock()
				task.Ctx.FireEvent(fire)
			})
		}
		cycle("A", eA, eB)
		cycle("B", eB, eC)
		cycle("C", eC, eA)
		s.Wait()
		if want := []string{"C", "A", "B"}; !slices.Equal(got, want) || deadlocks != 1 {
			t.Fatalf("run %d: resumed %v with %d deadlock reports, want %v with 1", run, got, deadlocks, want)
		}
	}
}
