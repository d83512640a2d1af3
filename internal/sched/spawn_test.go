package sched_test

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
	"m2cc/internal/sched"
)

// spawnBatch is how many tasks one Supervisor takes in the Spawn
// measurements: about a suite program's share of a compilation.
const spawnBatch = 1024

// spawnGates returns n gate lists for spawnBatchOf: nil when ungated,
// else two gates each, one shared by every task and one per task — the
// ProcParse shape (the shared cache verdict and the stream's own heading
// event).
func spawnGates(n int, gated bool) [][]*event.Event {
	gates := make([][]*event.Event, n)
	if !gated {
		return gates
	}
	shared, own := event.New(), make([]event.Event, n)
	for i := range gates {
		gates[i] = []*event.Event{shared, &own[i]}
	}
	return gates
}

// spawnBatchOf runs one Supervisor with one worker: a spawner task
// spawns a task per gate list while it holds the slot, fires the gates,
// and the same resident worker then runs every task.
func spawnBatchOf(gates [][]*event.Event) {
	s := sched.New(1, nil)
	s.Spawn(ctrace.KindLexor, 0, "spawner", 0, nil, nil, func(t *sched.Task) {
		for _, g := range gates {
			s.Spawn(ctrace.KindProcParseDecl, 1, "task", 1, g, t.Ctx, func(*sched.Task) {})
		}
		for _, g := range gates {
			for _, e := range g {
				t.Ctx.FireEvent(e)
			}
		}
	})
	s.Wait()
}

// BenchmarkSpawn measures what one task costs the Supervisor, from
// Spawn through its run to its finish, in batches of spawnBatch tasks
// on a fresh Supervisor.  The gate events and gate lists are the
// caller's and are built outside the measurement.
func BenchmarkSpawn(b *testing.B) {
	for _, c := range []struct {
		name  string
		gated bool
	}{{"ungated", false}, {"gates=2", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += spawnBatch {
				b.StopTimer()
				gates := spawnGates(min(spawnBatch, b.N-done), c.gated)
				b.StartTimer()
				spawnBatchOf(gates)
			}
		})
	}
}

// TestSpawnAllocs bounds what a task costs the heap: its one record
// (the task with its trace context and done event inline), a share of
// the ready heap's growth, and with two gates the gate bookkeeping.
// BenchmarkSpawn on linux/amd64, go1.24 reads 205 B in 1 allocation
// ungated and 415 B in 3 allocations with two gates.
func TestSpawnAllocs(t *testing.T) {
	for _, c := range []struct {
		name          string
		gated         bool
		bytes, allocs float64
	}{{"ungated", false, 240, 1.1}, {"gates=2", true, 450, 3.1}} {
		var bytes, allocs [5]float64
		for i := range bytes {
			gates := spawnGates(spawnBatch, c.gated)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			spawnBatchOf(gates)
			runtime.ReadMemStats(&after)
			bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / spawnBatch
			allocs[i] = float64(after.Mallocs-before.Mallocs) / spawnBatch
		}
		slices.Sort(bytes[:])
		slices.Sort(allocs[:])
		b, a := bytes[len(bytes)/2], allocs[len(allocs)/2]
		t.Logf("%s: %.0f B and %.2f allocations a task", c.name, b, a)
		if b > c.bytes || a > c.allocs {
			t.Errorf("%s: a task costs %.0f B in %.2f allocations, want at most %.0f B in %.1f",
				c.name, b, a, c.bytes, c.allocs)
		}
	}
}

// TestCancelFiresEachProducedEventOnce cancels a Supervisor whose tasks
// are all parked on a gate that never fires, each registered as the
// producer of its own event: the teardown must discharge every task and
// fire each produced event, so that Wait returns.
func TestCancelFiresEachProducedEventOnce(t *testing.T) {
	const n = 5000
	s := sched.New(2, nil)
	hold := event.New()
	var fires [n]atomic.Int32
	for i := range n {
		e := event.New()
		e.Subscribe(func(*event.Event) { fires[i].Add(1) })
		task := s.Spawn(ctrace.KindProcParseDecl, int32(i), "parked", 0, []*event.Event{hold}, nil,
			func(*sched.Task) { t.Error("a task ran after cancellation") })
		s.SetProducer(e, task)
	}
	s.Cancel()
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Wait did not return after Cancel")
	}
	for i := range fires {
		if got := fires[i].Load(); got != 1 {
			t.Fatalf("produced event %d fired %d times, want once", i, got)
		}
	}
}
