package core

import (
	"strings"
	"sync"
	"testing"

	"m2cc/internal/ast"
	"m2cc/internal/faultinject"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
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
// that parsed a body (streams share them one parse after another), while a compilation whose StmtCG task panicked, or
// that was canceled mid-flight, returns none.
func TestArenasReturnedOnlyWhenClean(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("Ticks", source.Impl, ticksProgram)

	for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
		t.Run(strat.String()+"/clean", func(t *testing.T) {
			tally := watchArenas(t)
			res := Compile("Ticks", loader, Options{Workers: 2, Strategy: strat})
			if res.Failed() || res.Faulted || res.Canceled {
				t.Fatalf("clean compile failed:\n%s", res.Diags)
			}
			if got, put := tally.counts(); got < 1 || got > 3 || put != got {
				t.Fatalf("took %d arenas and returned %d, want 1 to 3 and all of them", got, put)
			}
		})

		t.Run(strat.String()+"/stmtcg-panic", func(t *testing.T) {
			tally := watchArenas(t)
			plan := faultinject.New().Arm(faultinject.PanicLookup, 2)
			res := Compile("Ticks", loader, Options{Workers: 2, Strategy: strat, FaultPlan: plan})
			if !res.Faulted || !strings.Contains(res.Diags.String(), "StmtCG") {
				t.Fatalf("want a faulted result naming the StmtCG task, got faulted=%v:\n%s", res.Faulted, res.Diags)
			}
			if got, put := tally.counts(); got == 0 || put != 0 {
				t.Fatalf("took %d arenas and returned %d, want some and none", got, put)
			}
		})

		t.Run(strat.String()+"/cancel", func(t *testing.T) {
			tally := watchArenas(t)
			cancel := make(chan struct{})
			var once sync.Once
			tally.onGet = func() { once.Do(func() { close(cancel) }) }
			res := Compile("Ticks", loader, Options{Workers: 2, Strategy: strat, Cancel: cancel})
			if !res.Canceled {
				t.Fatal("compilation canceled after its first arena must be marked Canceled")
			}
			if got, put := tally.counts(); got == 0 || put != 0 {
				t.Fatalf("took %d arenas and returned %d, want some and none", got, put)
			}
		})
	}
}
