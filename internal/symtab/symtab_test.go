package symtab_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/types"
)

func newTable(s symtab.Strategy) (*symtab.Table, *symtab.Stats) {
	stats := symtab.NewStats()
	return symtab.NewTable(s, stats, nil), stats
}

func reporter(t *testing.T) (func(pos token.Pos, format string, args ...any), *int) {
	count := 0
	return func(pos token.Pos, format string, args ...any) {
		count++
		t.Logf("diag: "+format, args...)
	}, &count
}

func sym(name string) *symtab.Symbol {
	return &symtab.Symbol{Name: name, Kind: symtab.KVar, Type: types.Integer}
}

func searcher(tab *symtab.Table) *symtab.Searcher {
	return &symtab.Searcher{Tab: tab, Ctx: &ctrace.TaskCtx{}}
}

func TestInsertAndSelfLookup(t *testing.T) {
	tab, _ := newTable(symtab.Skeptical)
	scope := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	report, errs := reporter(t)
	ctx := &ctrace.TaskCtx{}
	if !scope.Insert(ctx, report, sym("x")) {
		t.Fatal("insert failed")
	}
	res := searcher(tab).Lookup(scope, "x", nil)
	if res.Sym == nil || res.Sym.Name != "x" {
		t.Fatal("self lookup failed")
	}
	if *errs != 0 {
		t.Fatal("unexpected diagnostics")
	}
}

func TestRedeclarationRejected(t *testing.T) {
	tab, _ := newTable(symtab.Skeptical)
	scope := tab.NewScope(symtab.ProcScope, "P", nil, 1)
	report, errs := reporter(t)
	ctx := &ctrace.TaskCtx{}
	scope.Insert(ctx, report, sym("x"))
	if scope.Insert(ctx, report, sym("x")) {
		t.Fatal("redeclaration must fail")
	}
	if *errs != 1 {
		t.Fatalf("want 1 diagnostic, got %d", *errs)
	}
}

func TestBuiltinRedeclarationRejected(t *testing.T) {
	// Modula-2+ forbids redeclaring pervasive names (§2.2), which is
	// what makes the builtin search shortcut safe.
	tab, _ := newTable(symtab.Skeptical)
	scope := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	report, errs := reporter(t)
	if scope.Insert(&ctrace.TaskCtx{}, report, sym("WriteInt")) {
		t.Fatal("builtin redeclaration must fail")
	}
	if *errs != 1 {
		t.Fatal("missing diagnostic")
	}
}

func TestBuiltinLookupWithoutChaining(t *testing.T) {
	tab, stats := newTable(symtab.Skeptical)
	outer := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	inner := tab.NewScope(symtab.ProcScope, "P", outer, 1)
	// outer is INCOMPLETE; a builtin reference must not DKY-wait on it.
	done := make(chan symtab.Result, 1)
	go func() { done <- searcher(tab).Lookup(inner, "ABS", nil) }()
	select {
	case res := <-done:
		if res.Sym == nil || res.Sym.Kind != symtab.KBuiltin {
			t.Fatal("ABS not found as builtin")
		}
	case <-time.After(time.Second):
		t.Fatal("builtin lookup blocked on an incomplete outer scope")
	}
	if stats.Blocks.Load() != 0 {
		t.Fatal("builtin lookup must not count DKY blocks")
	}
}

func TestSkepticalFindsInIncompleteTable(t *testing.T) {
	tab, stats := newTable(symtab.Skeptical)
	outer := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	inner := tab.NewScope(symtab.ProcScope, "P", outer, 1)
	report, _ := reporter(t)
	outer.Insert(&ctrace.TaskCtx{}, report, sym("g"))
	// outer still incomplete: Skeptical must find g without blocking.
	res := searcher(tab).Lookup(inner, "g", nil)
	if res.Sym == nil {
		t.Fatal("skeptical must search incomplete tables")
	}
	if stats.Blocks.Load() != 0 {
		t.Fatal("no block may be taken for a hit in an incomplete table")
	}
	rows := stats.Rows()
	found := false
	for _, r := range rows {
		if r.Key.Rel == ctrace.RelOuter && r.Key.Incomplete && r.Key.When == symtab.SearchOut {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a Search/outer/incomplete row:\n%s", stats)
	}
}

func TestSkepticalBlocksThenFinds(t *testing.T) {
	tab, stats := newTable(symtab.Skeptical)
	outer := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	inner := tab.NewScope(symtab.ProcScope, "P", outer, 1)
	report, _ := reporter(t)

	res := make(chan symtab.Result, 1)
	go func() { res <- searcher(tab).Lookup(inner, "late", nil) }()
	time.Sleep(5 * time.Millisecond) // let the searcher block
	ctx := &ctrace.TaskCtx{}
	outer.Insert(ctx, report, sym("late"))
	outer.Complete(ctx)
	select {
	case r := <-res:
		if r.Sym == nil {
			t.Fatal("symbol inserted before completion must be found")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("searcher never woke")
	}
	if stats.Blocks.Load() != 1 {
		t.Fatalf("blocks = %d, want 1", stats.Blocks.Load())
	}
	foundAfter := false
	for _, r := range stats.Rows() {
		if r.Key.When == symtab.AfterDKY {
			foundAfter = true
		}
	}
	if !foundAfter {
		t.Fatalf("want an After DKY row:\n%s", stats)
	}
}

func TestPessimisticBlocksBeforeSearching(t *testing.T) {
	tab, stats := newTable(symtab.Pessimistic)
	outer := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	inner := tab.NewScope(symtab.ProcScope, "P", outer, 1)
	report, _ := reporter(t)
	ctx := &ctrace.TaskCtx{}
	outer.Insert(ctx, report, sym("g")) // present but table incomplete

	res := make(chan symtab.Result, 1)
	go func() { res <- searcher(tab).Lookup(inner, "g", nil) }()
	select {
	case <-res:
		t.Fatal("pessimistic must block on an incomplete table even for a present symbol")
	case <-time.After(10 * time.Millisecond):
	}
	outer.Complete(ctx)
	r := <-res
	if r.Sym == nil {
		t.Fatal("symbol must be found after completion")
	}
	if stats.Blocks.Load() != 1 {
		t.Fatalf("blocks = %d, want 1", stats.Blocks.Load())
	}
}

func TestOptimisticWakesOnInsert(t *testing.T) {
	// Optimistic handling wakes on the individual symbol's event — the
	// table need not be complete.
	tab, _ := newTable(symtab.Optimistic)
	outer := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	inner := tab.NewScope(symtab.ProcScope, "P", outer, 1)
	report, _ := reporter(t)

	res := make(chan symtab.Result, 1)
	go func() { res <- searcher(tab).Lookup(inner, "soon", nil) }()
	time.Sleep(5 * time.Millisecond)
	outer.Insert(&ctrace.TaskCtx{}, report, sym("soon"))
	// NOTE: no Complete here — the insert alone must wake the searcher.
	select {
	case r := <-res:
		if r.Sym == nil {
			t.Fatal("optimistic searcher woke without the symbol")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("optimistic searcher must wake on the symbol's insertion")
	}
}

func TestOptimisticPlaceholdersClearedAtCompletion(t *testing.T) {
	tab, _ := newTable(symtab.Optimistic)
	outer := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	inner := tab.NewScope(symtab.ProcScope, "P", outer, 1)
	res := make(chan symtab.Result, 1)
	go func() { res <- searcher(tab).Lookup(inner, "never", nil) }()
	time.Sleep(5 * time.Millisecond)
	outer.Complete(&ctrace.TaskCtx{})
	r := <-res
	if r.Found() {
		t.Fatal("undeclared symbol must not be found")
	}
	if outer.Len() != 0 {
		t.Fatal("placeholders must not leak into the completed table")
	}
}

func TestQualifiedLookup(t *testing.T) {
	tab, stats := newTable(symtab.Skeptical)
	iface := tab.NewScope(symtab.DefScope, "Lib", nil, 0)
	report, _ := reporter(t)
	ctx := &ctrace.TaskCtx{}
	iface.Insert(ctx, report, sym("thing"))
	iface.Complete(ctx)
	res := searcher(tab).QualifiedLookup(iface, "thing")
	if res.Sym == nil {
		t.Fatal("qualified lookup failed")
	}
	res = searcher(tab).QualifiedLookup(iface, "absent")
	if res.Found() {
		t.Fatal("qualified miss must not chain outward")
	}
	var qualRows int
	for _, r := range stats.Rows() {
		if r.Key.Qualified {
			qualRows++
		}
	}
	if qualRows != 2 {
		t.Fatalf("want 2 qualified rows (hit + Never), got %d:\n%s", qualRows, stats)
	}
}

func TestAliasFollowing(t *testing.T) {
	tab, stats := newTable(symtab.Skeptical)
	iface := tab.NewScope(symtab.DefScope, "Lib", nil, 0)
	mod := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	report, _ := reporter(t)
	ctx := &ctrace.TaskCtx{}
	iface.Insert(ctx, report, sym("target"))
	iface.Complete(ctx)
	mod.Insert(ctx, report, &symtab.Symbol{
		Name: "target", Kind: symtab.KAlias, Payload: &symtab.Payload{AliasScope: iface, AliasName: "target"},
	})
	res := searcher(tab).Lookup(mod, "target", nil)
	if res.Sym == nil || res.Sym.Kind != symtab.KVar {
		t.Fatal("alias must resolve to the interface symbol")
	}
	otherRow := false
	for _, r := range stats.Rows() {
		if !r.Key.Qualified && r.Key.Rel == ctrace.RelOther {
			otherRow = true
		}
	}
	if !otherRow {
		t.Fatalf("alias hits classify as 'other' (Table 2):\n%s", stats)
	}
}

func TestWithBindingsShadowScopes(t *testing.T) {
	tab, stats := newTable(symtab.Skeptical)
	scope := tab.NewScope(symtab.ProcScope, "P", nil, 1)
	report, _ := reporter(t)
	ctx := &ctrace.TaskCtx{}
	scope.Insert(ctx, report, sym("x")) // also a local named x
	rec := types.NewRecord([]*types.Field{{Name: "x", Type: types.Char, Offset: 0}})
	res := searcher(tab).Lookup(scope, "x", []symtab.WithBinding{{Rec: rec}})
	if res.Field == nil {
		t.Fatal("WITH field must shadow the local")
	}
	withRow := false
	for _, r := range stats.Rows() {
		if r.Key.Rel == ctrace.RelWith {
			withRow = true
		}
	}
	if !withRow {
		t.Fatalf("WITH hits must classify as WITH:\n%s", stats)
	}
	// Innermost WITH wins.
	rec2 := types.NewRecord([]*types.Field{{Name: "x", Type: types.Real, Offset: 0}})
	res = searcher(tab).Lookup(scope, "x", []symtab.WithBinding{{Rec: rec}, {Rec: rec2}})
	if res.Field == nil || res.Field.Type != types.Real || res.WithIndex != 1 {
		t.Fatal("innermost WITH must win")
	}
}

func TestFixupQueueHidesUnpatchedSymbols(t *testing.T) {
	// While fixups are outstanding, newly inserted symbols stay
	// invisible to other tasks (entry atomicity, §2.2 footnote 1) but
	// visible to the owner.
	tab, _ := newTable(symtab.Skeptical)
	outer := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	inner := tab.NewScope(symtab.ProcScope, "P", outer, 1)
	report, _ := reporter(t)
	ctx := &ctrace.TaskCtx{}

	outer.DeferFixup()
	outer.Insert(ctx, report, sym("queued"))
	if outer.OwnerProbe("queued") == nil {
		t.Fatal("owner must see queued symbols")
	}
	// A foreign searcher must not see it yet (skeptical: miss + incomplete → blocks).
	found := make(chan symtab.Result, 1)
	go func() { found <- searcher(tab).Lookup(inner, "queued", nil) }()
	select {
	case <-found:
		t.Fatal("queued symbol leaked before fixups drained")
	case <-time.After(10 * time.Millisecond):
	}
	outer.ResolveFixup(ctx)
	outer.Complete(ctx)
	if r := <-found; r.Sym == nil {
		t.Fatal("published symbol not found after drain")
	}
}

func TestNeverRow(t *testing.T) {
	tab, stats := newTable(symtab.Skeptical)
	scope := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	scope.Complete(&ctrace.TaskCtx{})
	if res := searcher(tab).Lookup(scope, "ghost", nil); res.Found() {
		t.Fatal("ghost found")
	}
	rows := stats.Rows()
	if len(rows) != 1 || rows[0].Key.When != symtab.Never {
		t.Fatalf("want exactly the Never row:\n%s", stats)
	}
}

func TestStatsAddMerges(t *testing.T) {
	a, b := symtab.NewStats(), symtab.NewStats()
	a.Bump(symtab.StatKey{When: symtab.FirstTry, Rel: ctrace.RelSelf})
	b.Bump(symtab.StatKey{When: symtab.FirstTry, Rel: ctrace.RelSelf})
	b.BumpBlock()
	a.Add(b)
	if a.Lookups.Load() != 2 || a.Blocks.Load() != 1 {
		t.Fatalf("merge wrong: %d lookups %d blocks", a.Lookups.Load(), a.Blocks.Load())
	}
	if rows := a.Rows(); len(rows) != 1 || rows[0].Count != 2 {
		t.Fatal("row counts wrong after merge")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, name := range []string{"avoidance", "pessimistic", "skeptical", "optimistic"} {
		s, err := symtab.ParseStrategy(name)
		if err != nil || s.String() != name {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := symtab.ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy must error")
	}
}

// TestConcurrentLookupCorrectness is the package's core property: under
// any interleaving of inserts, completions and searches, a search for a
// symbol that the producer WILL declare never reports not-found, and a
// search for an undeclared symbol never reports found — for every
// strategy.
func TestConcurrentLookupCorrectness(t *testing.T) {
	check := func(seed int64, strat uint8) bool {
		strategy := symtab.Strategy(strat % uint8(symtab.NumStrategies))
		r := rand.New(rand.NewSource(seed))
		tab := symtab.NewTable(strategy, nil, nil)
		outer := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
		inner := tab.NewScope(symtab.ProcScope, "P", outer, 1)
		report := func(token.Pos, string, ...any) {}

		declared := make([]string, 0, 8)
		for i := 0; i < 1+r.Intn(8); i++ {
			declared = append(declared, fmt.Sprintf("v%d", i))
		}

		var wg sync.WaitGroup
		// Producer: inserts with random delays, then completes.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &ctrace.TaskCtx{}
			for _, name := range declared {
				if r.Intn(2) == 0 {
					time.Sleep(time.Duration(r.Intn(100)) * time.Microsecond)
				}
				outer.Insert(ctx, report, sym(name))
			}
			outer.Complete(ctx)
		}()

		ok := true
		var mu sync.Mutex
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := &symtab.Searcher{Tab: tab, Ctx: &ctrace.TaskCtx{}}
				for i := 0; i < 10; i++ {
					name := declared[(g+i)%len(declared)]
					if res := s.Lookup(inner, name, nil); res.Sym == nil {
						mu.Lock()
						ok = false
						mu.Unlock()
						return
					}
					if res := s.Lookup(inner, "ghost", nil); res.Found() {
						mu.Lock()
						ok = false
						mu.Unlock()
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionEventFires(t *testing.T) {
	tab, _ := newTable(symtab.Skeptical)
	scope := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	var ev *event.Event = scope.CompletionEvent()
	if ev.Fired() {
		t.Fatal("fresh scope must be incomplete")
	}
	scope.Complete(&ctrace.TaskCtx{})
	if !ev.Fired() || !scope.Completed() {
		t.Fatal("completion event must fire")
	}
}
