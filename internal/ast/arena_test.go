package ast

import (
	"runtime"
	"sync"
	"testing"

	"m2cc/internal/token"
)

// TestArenaNilIsHeap checks that a nil arena hands out ordinary heap
// values and keeps empty lists nil.
func TestArenaNilIsHeap(t *testing.T) {
	var a *Arena
	if lit := New(a, IntLit{Value: 7, Text: "7"}); lit.Value != 7 || lit.Text != "7" {
		t.Fatalf("nil arena lost the value: %+v", lit)
	}
	if a.Stmts(nil) != nil || a.Exprs([]Expr{}) != nil {
		t.Fatal("an empty list must come back nil")
	}
}

// TestArenaSlicesAreCapped checks that a list handed out by an arena
// has capacity equal to its length, so a holder that appends to it
// reallocates instead of overwriting the next list in the chunk.
func TestArenaSlicesAreCapped(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	one, two := New(a, IntLit{Value: 1}), New(a, IntLit{Value: 2})
	first := a.Exprs([]Expr{one})
	second := a.Exprs([]Expr{two})
	if cap(first) != 1 {
		t.Fatalf("cap = %d, want 1", cap(first))
	}
	_ = append(first, one)
	if second[0] != Expr(two) {
		t.Fatal("append to one arena list overwrote its neighbour")
	}
}

// TestArenaSurvivesCollection: an arena returned before two collections
// is still held after them, slabs and all, so building the same tree
// again allocates nothing.
func TestArenaSurvivesCollection(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		a := GetArena()
		for i := 0; i < 100; i++ {
			lhs := New(a, Designator{Head: Name{Text: "x"}})
			New(a, AssignStmt{LHS: lhs, RHS: New(a, IntLit{Value: int64(i)})})
		}
		PutArena(a)
	})
	if allocs != 0 {
		t.Fatalf("rebuilding after two collections made %.0f allocations, want 0", allocs)
	}
}

// TestArenaPoolConcurrent builds, checks and recycles trees on several
// goroutines at once, the way concurrent streams share the pool and the
// chunk free lists; every tree must read back what was put in it.  Run
// under -race.
func TestArenaPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				a := GetArena()
				var stmts []Stmt
				for i := 0; i < 100; i++ {
					v := int64(g*1_000_000 + round*1000 + i)
					lhs := New(a, Designator{Head: Name{Text: "x"}})
					rhs := New(a, BinaryExpr{Op: token.Plus, X: New(a, IntLit{Value: v}), Y: New(a, IntLit{Value: 1})})
					stmts = append(stmts, New(a, AssignStmt{LHS: lhs, RHS: rhs}))
				}
				list := New(a, StmtList{Stmts: a.Stmts(stmts)})
				for i, s := range list.Stmts {
					want := int64(g*1_000_000 + round*1000 + i)
					if got := s.(*AssignStmt).RHS.(*BinaryExpr).X.(*IntLit).Value; got != want {
						t.Errorf("goroutine %d round %d stmt %d: value %d, want %d", g, round, i, got, want)
						return
					}
				}
				PutArena(a)
			}
		}(g)
	}
	wg.Wait()
}
