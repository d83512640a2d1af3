package core

import (
	"strings"
	"sync"
	"testing"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/faultinject"
	"m2cc/internal/sched"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
	"m2cc/internal/workload"
)

// ticksProgram looks up identifiers only in statement bodies (its
// headings name no types), so an armed PanicLookup trips inside a
// StmtCG task, after every stream has parsed its body into an arena.
const ticksProgram = `MODULE Ticks;
PROCEDURE A;
BEGIN WriteInt(1, 0); WriteLn END A;
PROCEDURE B;
BEGIN WriteInt(2, 0); WriteLn END B;
BEGIN A; B; WriteInt(3, 0); WriteLn END Ticks.
`

// arenaTally swaps the pool hooks for counting ones for one test.
type arenaTally struct {
	mu       sync.Mutex
	got, put int
	onGet    func() // runs after each Get, outside the lock
}

func watchArenas(t *testing.T) *arenaTally {
	tally := &arenaTally{}
	getArena = func() *ast.Arena {
		tally.mu.Lock()
		tally.got++
		on := tally.onGet
		tally.mu.Unlock()
		if on != nil {
			on()
		}
		return ast.GetArena()
	}
	putArena = func(a *ast.Arena) {
		tally.mu.Lock()
		tally.put++
		tally.mu.Unlock()
		ast.PutArena(a)
	}
	t.Cleanup(func() { getArena, putArena = ast.GetArena, ast.PutArena })
	return tally
}

func (a *arenaTally) counts() (got, put int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.got, a.put
}

// TestArenasReturnedOnlyWhenClean pins the driver's hand-back rule: a
// clean compilation returns every arena it took, at most one per stream
// that parsed a body (streams share them one parse after another), every
// statement-tree chunk and every keyer record chunk, while a compilation
// whose StmtCG task or Splitter panicked, or that was canceled
// mid-flight, returns none.
func TestArenasReturnedOnlyWhenClean(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("Ticks", source.Impl, ticksProgram)
	// compile reports the chunks taken and returned, keyer and tree
	// chunks together.
	compile := func(opts Options) (*Result, int, int) {
		from := streamcache.Chunks.Stats().Add(ast.ChunkStats())
		opts.Workers, opts.StreamCache = 2, streamcache.New(0)
		res := Compile("Ticks", loader, opts)
		to := streamcache.Chunks.Stats().Add(ast.ChunkStats())
		return res, to.Gets - from.Gets, to.Puts - from.Puts
	}

	for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
		t.Run(strat.String()+"/clean", func(t *testing.T) {
			tally := watchArenas(t)
			res, chunksGot, chunksPut := compile(Options{Strategy: strat})
			if res.Failed() || res.Faulted || res.Canceled {
				t.Fatalf("clean compile failed:\n%s", res.Diags)
			}
			if got, put := tally.counts(); got < 1 || got > 3 || put != got {
				t.Fatalf("took %d arenas and returned %d, want 1 to 3 and all of them", got, put)
			}
			if chunksGot == 0 || chunksPut != chunksGot {
				t.Fatalf("took %d chunks and returned %d, want some and all of them", chunksGot, chunksPut)
			}
		})

		t.Run(strat.String()+"/stmtcg-panic", func(t *testing.T) {
			tally := watchArenas(t)
			plan := faultinject.New().Arm(faultinject.PanicLookup, 2)
			res, chunksGot, chunksPut := compile(Options{Strategy: strat, FaultPlan: plan})
			if !res.Faulted || !strings.Contains(res.Diags.String(), "StmtCG") {
				t.Fatalf("want a faulted result naming the StmtCG task, got faulted=%v:\n%s", res.Faulted, res.Diags)
			}
			if got, put := tally.counts(); got == 0 || put != 0 {
				t.Fatalf("took %d arenas and returned %d, want some and none", got, put)
			}
			if chunksGot == 0 || chunksPut != 0 {
				t.Fatalf("took %d chunks and returned %d, want some and none", chunksGot, chunksPut)
			}
		})

		t.Run(strat.String()+"/panic-split", func(t *testing.T) {
			tally := watchArenas(t)
			plan := faultinject.New().Arm(faultinject.PanicSplit, 2)
			res, chunksGot, chunksPut := compile(Options{Strategy: strat, FaultPlan: plan})
			if !res.Faulted || plan.Tripped(faultinject.PanicSplit) != 1 {
				t.Fatalf("want a faulted result after one Splitter panic, got faulted=%v:\n%s", res.Faulted, res.Diags)
			}
			if _, put := tally.counts(); put != 0 {
				t.Fatalf("returned %d arenas, want none", put)
			}
			if chunksGot == 0 || chunksPut != 0 {
				t.Fatalf("took %d chunks and returned %d, want some and none", chunksGot, chunksPut)
			}
		})

		t.Run(strat.String()+"/cancel", func(t *testing.T) {
			tally := watchArenas(t)
			cancel := make(chan struct{})
			var once sync.Once
			tally.onGet = func() { once.Do(func() { close(cancel) }) }
			res, chunksGot, chunksPut := compile(Options{Strategy: strat, Cancel: cancel})
			if !res.Canceled {
				t.Fatal("compilation canceled after its first arena must be marked Canceled")
			}
			if got, put := tally.counts(); got == 0 || put != 0 {
				t.Fatalf("took %d arenas and returned %d, want some and none", got, put)
			}
			if chunksGot == 0 || chunksPut != 0 {
				t.Fatalf("took %d chunks and returned %d, want some and none", chunksGot, chunksPut)
			}
		})
	}
}

// TestWorkerGoroutinesExit: once Compile returns, every worker goroutine
// its Supervisor started has exited, whether the compilation was clean,
// canceled mid-flight, or lost a StmtCG task to a panic.  Run under
// -race.
func TestWorkerGoroutinesExit(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("Ticks", source.Impl, ticksProgram)
	workload.GenerateSynth(loader, 40, 2, nil)

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"clean", func(t *testing.T) {
			if res := Compile("Ticks", loader, Options{Workers: 2}); res.Failed() {
				t.Fatal(res.Diags)
			}
		}},
		{"cancel", func(t *testing.T) {
			cancel := make(chan struct{})
			var once sync.Once
			watchArenas(t).onGet = func() { once.Do(func() { close(cancel) }) }
			res := Compile("Ticks", loader, Options{Workers: 2, Cancel: cancel})
			if !res.Canceled {
				t.Fatal("compilation canceled after its first arena must be marked Canceled")
			}
		}},
		{"stmtcg-panic", func(t *testing.T) {
			res := Compile("Ticks", loader, Options{Workers: 2, FaultPlan: faultinject.New().Arm(faultinject.PanicLookup, 2)})
			if !res.Faulted {
				t.Fatal("a StmtCG panic must fault the compilation")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sups []*sched.Supervisor
			newSupervisor = func(workers int, rec *ctrace.Recorder) *sched.Supervisor {
				s := sched.New(workers, rec)
				sups = append(sups, s)
				return s
			}
			t.Cleanup(func() { newSupervisor = sched.New })
			c.run(t)
			for _, s := range sups {
				if started, exited := s.Counters().Goroutines, s.Exited(); started == 0 || exited != started {
					t.Fatalf("a compilation started %d worker goroutines and %d exited", started, exited)
				}
			}
		})
	}
}
