// Package faultinject provides deterministic, seed-addressed fault
// injection for the concurrent compiler's fault-tolerance layer.
//
// Production code carries a small number of named injection points —
// compiled in as nil-guarded no-op hooks — at the places a concurrent
// compilation can realistically be wounded: a symbol lookup that
// panics, an interface-cache leader that stalls before publishing, a
// cache-closure install that must be declined, a heading-ready event
// fire that is dropped.  A test arms a Plan (directly, or derived from
// a seed) and hands it to the compilation under test via
// core.Options.FaultPlan; everything else runs the real code paths.
//
// Determinism: a Plan triggers each armed point exactly once, at the
// Nth arrival at that point, where N comes from the plan (seeded plans
// derive the point and N from an xorshift of the seed).  Arrival order
// across goroutines may vary between runs — that is the nature of the
// concurrency under test — but the injection decision is a pure
// function of the plan's counters, never of wall-clock time or global
// randomness, so a chaos run is described completely by (program,
// options, seed).
//
// Every method is safe on a nil *Plan and does nothing, so call sites
// in production code reduce to a nil check.
package faultinject

import (
	"fmt"
	"sync"
)

// Point names one injection site compiled into the production code.
type Point uint8

// The injection points.
const (
	// PanicLookup panics inside symtab.Searcher at the Nth symbol
	// lookup, modelling a crashed analyzer/code-generator task.
	PanicLookup Point = iota
	// StallLeader blocks an interface-cache leader (core.finishEntry)
	// before it publishes, until Release is called, modelling a wedged
	// foreign compilation that waiters must time out on.
	StallLeader
	// FailInstall vetoes the Nth cache-closure install
	// (core.installCached), forcing the compile-fresh path.
	FailInstall
	// DropFire drops the Nth heading-ready event fire
	// (core.bindChildren), wedging a procedure stream until the
	// deadlock watchdog breaks it.
	DropFire
	// PanicCheck panics inside the Nth static-analysis (lint) task
	// body (check.Checker.RunUnit), modelling a crashed analysis
	// stream; the checker must degrade to the sequential analyzer
	// without poisoning the compilation or sibling findings.
	PanicCheck
	// SlowRequest marks the Nth request admitted by the m2cd daemon
	// for an injected service delay (the daemon chooses the latency):
	// it must push the request toward its deadline and the admission
	// queue toward shedding without ever corrupting a response.
	SlowRequest
	// PanicHandler panics inside the m2cd daemon's Nth request handler
	// after admission, modelling a crashed handler goroutine; the
	// recovery middleware must convert it into a well-formed 500
	// response and release the request's admission slot.
	PanicHandler
	// PanicInstall panics the Nth cached-stream install (core's
	// stream-cache hit path), modelling corruption discovered while
	// replaying a warm procedure stream; panic isolation must poison
	// the compilation and recover via the sequential fallback, never
	// via a half-installed stream.
	PanicInstall
	// PanicConcMerge panics inside the merge barrier's interprocedural
	// lockset fixed point (check.concMerge), modelling a crashed merge
	// task; the checker must discard the concurrent tables and degrade
	// to the sequential analyzer (Result.CheckFellBack) with
	// byte-identical findings.
	PanicConcMerge
	// PanicSplit panics the Splitter task at the Nth procedure
	// declaration it finds (core's StartProc callback), after the
	// heading went into the parent's open token block and before the
	// body has a stream: a queue producer dying mid-block.  Its
	// recovery must seal every half-filled block with an EOF, so no
	// parser waits forever, before the fault takes the usual path.
	PanicSplit

	numPoints
)

var pointNames = [numPoints]string{
	"panic-lookup", "stall-leader", "fail-install", "drop-fire",
	"panic-check", "slow-request", "panic-handler",
	"panic-install", "panic-conc-merge", "panic-split",
}

func (p Point) String() string {
	if p < numPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Points lists every injection point (for chaos matrices).
func Points() []Point {
	return []Point{PanicLookup, StallLeader, FailInstall, DropFire, PanicCheck,
		SlowRequest, PanicHandler, PanicInstall, PanicConcMerge, PanicSplit}
}

// ParsePoint converts a point name (as printed by Point.String, e.g.
// "slow-request") back to the Point; the m2cd daemon's -inject flag
// uses it to hand-arm plans from the command line.
func ParsePoint(name string) (Point, error) {
	for p := Point(0); p < numPoints; p++ {
		if pointNames[p] == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown injection point %q", name)
}

// Injected is the value an armed PanicLookup point panics with; the
// Supervisor's isolation layer reports it like any other task panic.
type Injected struct {
	Point Point
	Site  string // free-form site detail (e.g. the identifier looked up)
	N     int64  // the hit index that tripped
}

func (e *Injected) Error() string {
	return fmt.Sprintf("injected fault %s at hit %d (%s)", e.Point, e.N, e.Site)
}

// Plan is one armed set of injection triggers.  A Plan may be shared
// by every task of a compilation; its counters are concurrency-safe.
// The zero value is valid and triggers nothing; so is a nil *Plan.
type Plan struct {
	Seed int64 // the seed this plan was derived from (0 for hand-armed)

	mu      sync.Mutex       // guards: trigger, count, tripped
	trigger [numPoints]int64 // 1-based hit index that trips; 0 = disarmed
	count   [numPoints]int64 // arrivals seen so far
	tripped [numPoints]int64 // times the point actually fired

	release chan struct{} // guards: stall continuation — closed by Release; stalled points block on it
	stalled chan struct{} // guards: stall notification — closed when a StallLeader point first trips
}

// New returns an empty plan with nothing armed.
func New() *Plan {
	return &Plan{
		release: make(chan struct{}),
		stalled: make(chan struct{}),
	}
}

// Arm sets pt to trip at its nth arrival (1-based) and returns the
// plan for chaining.  n < 1 disarms the point.
func (p *Plan) Arm(pt Point, n int64) *Plan {
	p.mu.Lock()
	if n < 1 {
		n = 0
	}
	p.trigger[pt] = n
	p.mu.Unlock()
	return p
}

// FromSeed derives a single-point plan deterministically from seed:
// the seed's bits choose the point and the hit index N (1..32).  The
// same seed always yields the same plan.
func FromSeed(seed int64) *Plan {
	r := uint64(seed)*2685821657736338717 + 1442695040888963407
	r ^= r >> 33
	r *= 0xff51afd7ed558ccd
	r ^= r >> 33
	pt := Point(r % uint64(numPoints))
	n := int64(1 + (r>>8)%32)
	p := New()
	p.Seed = seed
	return p.Arm(pt, n)
}

// hit records one arrival at pt and reports whether it trips now,
// returning the arrival index.
func (p *Plan) hit(pt Point) (bool, int64) {
	if p == nil {
		return false, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count[pt]++
	if p.trigger[pt] != 0 && p.count[pt] == p.trigger[pt] {
		p.tripped[pt]++
		return true, p.count[pt]
	}
	return false, p.count[pt]
}

// Hit records one arrival at pt and reports whether the fault
// triggers at this arrival.  Each armed point trips exactly once.
func (p *Plan) Hit(pt Point) bool {
	trip, _ := p.hit(pt)
	return trip
}

// Panic panics with an *Injected value if pt trips at this arrival.
func (p *Plan) Panic(pt Point, site string) {
	if trip, n := p.hit(pt); trip {
		panic(&Injected{Point: pt, Site: site, N: n})
	}
}

// Stall blocks until Release if pt trips at this arrival, closing the
// Stalled channel first so the orchestrating test can sequence the
// victim.  Points other than the tripping arrival pass through.
func (p *Plan) Stall(pt Point) {
	trip, _ := p.hit(pt)
	if !trip {
		return
	}
	close(p.stalled)
	<-p.release
}

// Stalled is closed when a Stall point trips; tests use it to know
// the leader is wedged before starting the waiting compilation.
func (p *Plan) Stalled() <-chan struct{} {
	if p == nil {
		return nil
	}
	return p.stalled
}

// Release unblocks every stalled point.  Idempotent.
func (p *Plan) Release() {
	if p == nil {
		return
	}
	p.mu.Lock()
	select {
	case <-p.release:
	default:
		close(p.release)
	}
	p.mu.Unlock()
}

// Trigger reports the 1-based arrival index at which pt is armed to
// trip, or 0 if pt is disarmed.  Chaos harnesses use it to set up the
// preconditions a point needs (e.g. a warm cache for FailInstall).
func (p *Plan) Trigger(pt Point) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.trigger[pt]
}

// Tripped reports how many times pt actually fired.
func (p *Plan) Tripped(pt Point) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tripped[pt]
}

// Count reports how many arrivals pt has seen.
func (p *Plan) Count(pt Point) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count[pt]
}
