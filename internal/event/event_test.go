package event_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m2cc/internal/event"
)

func TestFireIsIdempotent(t *testing.T) {
	e := event.New()
	if e.Fired() {
		t.Fatal("new event must be unfired")
	}
	e.Fire()
	e.Fire()
	if !e.Fired() {
		t.Fatal("event must be fired")
	}
}

func TestDoneClosesOnFire(t *testing.T) {
	e := event.New()
	select {
	case <-e.Done():
		t.Fatal("Done closed before Fire")
	default:
	}
	e.Fire()
	select {
	case <-e.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed after Fire")
	}
}

func TestDoneAfterFire(t *testing.T) {
	e := event.New()
	e.Fire()
	select {
	case <-e.Done():
	default:
		t.Fatal("Done must be closed when requested after Fire")
	}
}

func TestSubscribeBeforeFire(t *testing.T) {
	e := event.New()
	var n atomic.Int32
	e.Subscribe(func(*event.Event) { n.Add(1) })
	e.Subscribe(func(*event.Event) { n.Add(1) })
	if n.Load() != 0 {
		t.Fatal("callbacks ran before Fire")
	}
	e.Fire()
	if n.Load() != 2 {
		t.Fatalf("callbacks ran %d times, want 2", n.Load())
	}
	e.Fire()
	if n.Load() != 2 {
		t.Fatal("callbacks must run exactly once")
	}
}

func TestSubscribeAfterFireRunsInline(t *testing.T) {
	e := event.New()
	e.Fire()
	ran := false
	e.Subscribe(func(*event.Event) { ran = true })
	if !ran {
		t.Fatal("late subscription must run immediately")
	}
}

func TestConcurrentWaitersAllWake(t *testing.T) {
	e := event.New()
	const n = 50
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			e.Wait()
		}()
	}
	time.Sleep(time.Millisecond)
	e.Fire()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiters did not wake")
	}
}

func TestConcurrentFireAndSubscribe(t *testing.T) {
	// Each subscription must run exactly once no matter how Fire races
	// with Subscribe.
	for round := 0; round < 100; round++ {
		e := event.New()
		var n atomic.Int32
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			e.Subscribe(func(*event.Event) { n.Add(1) })
		}()
		go func() {
			defer wg.Done()
			e.Fire()
		}()
		wg.Wait()
		if n.Load() != 1 {
			t.Fatalf("round %d: callback ran %d times", round, n.Load())
		}
	}
}
