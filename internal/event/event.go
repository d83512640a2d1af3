// Package event implements the concurrency mechanism of the concurrent
// compiler: the event.
//
// Per Wortman & Junkin §2.3.1: "An event is simply something that either
// has or has not occurred.  A task waits on an event if and only if it
// hasn't occurred."  Producer tasks fire events to indicate that a
// portion of a shared data structure (a token block, a completed symbol
// table, a processed procedure heading) is ready for its consumers.
//
// How an event is *waited on* — avoided, handled, or barrier — is a
// property of the waiting task, not the event, and is implemented by the
// scheduler (internal/sched).  This package supplies only the primitive.
package event

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is a one-shot occurrence flag.  The zero value is an unfired
// event ready for use.  Fire is idempotent; all methods are safe for
// concurrent use.
//
// The fired flag is an atomic published under mu: it transitions
// false→true exactly once, inside Fire's critical section.  Readers may
// check it without the lock — once it reads true it stays true, and the
// sequentially-consistent store/load pair carries the happens-before
// edge from the producer's writes to the consumer.  Post-fire Fired,
// Wait, Fire and Subscribe calls (the common warm case on every DKY
// probe and token fetch) therefore cost one atomic load and never touch
// the mutex.
type Event struct {
	mu    sync.Mutex    // guards: subs, done (creation); fired's false→true transition
	done  chan struct{} // guards: the fired state for waiters — closed exactly once by Fire
	fired atomic.Bool   // set while holding mu; read lock-free
	subs  *sub          // newest first
}

// sub is one Subscribe callback.
type sub struct {
	f    func(*Event)
	next *sub
}

// New returns a fresh, unfired event.
func New() *Event { return &Event{} }

// Fire marks the event as occurred, wakes all waiters, and runs all
// subscribed callbacks, newest first.  Firing an already-fired event is
// a no-op.
func (e *Event) Fire() {
	if e.fired.Load() {
		return
	}
	e.mu.Lock()
	if e.fired.Load() {
		e.mu.Unlock()
		return
	}
	e.fired.Store(true)
	if e.done != nil {
		close(e.done)
	}
	subs := e.subs
	e.subs = nil
	e.mu.Unlock()
	for ; subs != nil; subs = subs.next {
		subs.f(e)
	}
}

// Fired reports whether the event has occurred.
func (e *Event) Fired() bool {
	return e.fired.Load()
}

// Done returns a channel that is closed when the event fires.  The same
// channel is returned on every call.
func (e *Event) Done() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done == nil {
		e.done = make(chan struct{})
		if e.fired.Load() {
			close(e.done)
		}
	}
	return e.done
}

// Subscribe arranges for f to run once, with the event, when it fires.
// If the event has already fired, f runs immediately in the caller's
// goroutine.  The scheduler uses this to move tasks gated on avoided
// events into the ready queue the moment their last gate fires; f gets
// the event, so one func can serve every gate.
func (e *Event) Subscribe(f func(*Event)) {
	if e.fired.Load() {
		f(e)
		return
	}
	e.mu.Lock()
	if e.fired.Load() {
		e.mu.Unlock()
		f(e)
		return
	}
	e.subs = &sub{f, e.subs}
	e.mu.Unlock()
}

// Await blocks until the event fires, d (positive) passes or cancel
// closes (a nil cancel never does), and reports whether it fired: the
// bounded wait on an event another compilation owns.
func (e *Event) Await(d time.Duration, cancel <-chan struct{}) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-e.Done():
	case <-timer.C:
	case <-cancel:
	}
	return e.Fired()
}

// Wait blocks the calling goroutine until the event fires.  Tasks under
// the Supervisor must not call Wait directly for handled events — they go
// through the scheduler so their worker slot can be released; Wait is the
// barrier-style wait used by token-queue consumers (§2.3.3).
func (e *Event) Wait() {
	if e.fired.Load() {
		return
	}
	<-e.Done()
}
