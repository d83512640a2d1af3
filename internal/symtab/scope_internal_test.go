package symtab

import (
	"fmt"
	"testing"
	"unsafe"

	"m2cc/internal/ctrace"
	"m2cc/internal/token"
)

// TestSymbolSize pins the entry in Go's 96-byte size class: a field
// every kind carries goes inline, anything else into Payload.
func TestSymbolSize(t *testing.T) {
	if got := unsafe.Sizeof(Symbol{}); got > 96 {
		t.Fatalf("Symbol is %d bytes, want at most 96", got)
	}
}

// benchNames are identifiers of the kinds procedure and module scopes
// hold: short, of mixed length, some sharing a length.
var benchNames = []string{
	"i", "j", "n", "x", "count", "total", "buf", "len", "Next", "Push",
	"Pop", "Empty", "stack", "result", "lo", "hi", "mid", "key", "val", "ok",
	"node", "left", "right", "size", "Init", "Done", "temp", "a", "b", "c",
	"d", "limit",
}

// BenchmarkScopeProbe compares a linear scan of a sealed scope's
// publication order with a probe of its name index, for hits and for
// misses (the common case when a search chains outward).  The crossover
// picks indexAt.
func BenchmarkScopeProbe(b *testing.B) {
	misses := []string{"WriteInt", "INTEGER", "Stacks", "p", "value", "Counter"}
	for _, n := range []int{4, 8, 10, 12, 16, 24, 32} {
		for _, indexed := range []bool{false, true} {
			s := &Scope{order: make([]*Symbol, n)}
			for i := range s.order {
				s.order[i] = &Symbol{Name: benchNames[i]}
			}
			if indexed {
				s.index = make(map[string]*Symbol, n)
				for _, sym := range s.order {
					s.index[sym.Name] = sym
				}
			}
			s.sealed.Store(true)
			how := "scan"
			if indexed {
				how = "index"
			}
			b.Run(fmt.Sprintf("n=%d/%s/hit", n, how), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if sym, _ := s.probe(benchNames[i%n]); sym == nil {
						b.Fatal("miss")
					}
				}
			})
			b.Run(fmt.Sprintf("n=%d/%s/miss", n, how), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if sym, _ := s.probe(misses[i%len(misses)]); sym != nil {
						b.Fatal("hit")
					}
				}
			})
		}
	}
}

// TestIndexThreshold drives a scope through its index threshold under
// every DKY strategy: N−1, N and N+1 entries (N = indexAt), each found by name from a
// child scope before and after Complete, a redeclaration refused on
// both sides of the threshold, a FROM-alias followed into an interface,
// and an Optimistic placeholder installed while the scope is small and
// filled by a later insert.
func TestIndexThreshold(t *testing.T) {
	for strat := Strategy(0); strat < NumStrategies; strat++ {
		for _, n := range []int{indexAt - 1, indexAt, indexAt + 1} {
			t.Run(fmt.Sprintf("%s/%d", strat, n), func(t *testing.T) {
				checkThreshold(t, strat, n)
			})
		}
	}
}

func checkThreshold(t *testing.T, strat Strategy, n int) {
	tab := NewTable(strat, NewStats(), nil)
	ctx := &ctrace.TaskCtx{}
	var diags []string
	report := func(_ token.Pos, format string, args ...any) {
		diags = append(diags, fmt.Sprintf(format, args...))
	}

	iface := tab.NewScope(DefScope, "I", nil, 0)
	iface.Insert(ctx, report, &Symbol{Name: "target", Kind: KVar})
	iface.Complete(ctx)

	mod := tab.NewScope(ModuleScope, "M", nil, 0)
	child := tab.NewScope(ProcScope, "P", mod, 1)
	mod.Insert(ctx, report, &Symbol{Name: "alias", Kind: KAlias,
		Payload: &Payload{AliasScope: iface, AliasName: "target"}})
	names := make([]string, n-2)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		mod.Insert(ctx, report, &Symbol{Name: names[i], Kind: KVar})
	}

	// A placeholder for the last name, made while the scope is small
	// and still incomplete (the symbol is not yet there to find).
	last := "last"
	if strat == Optimistic {
		if sym, complete, ev := mod.probeOrPlaceholder(last); sym != nil || complete || ev == nil {
			t.Fatalf("optimistic probe of an absent name = %v, %v, %v; want a placeholder", sym, complete, ev)
		} else {
			if _, _, again := mod.probeOrPlaceholder(last); again != ev {
				t.Fatal("a second probe must reuse the placeholder's event")
			}
			defer func() {
				if !ev.Fired() {
					t.Error("the placeholder's event must fire when its name is inserted")
				}
			}()
		}
	}
	mod.Insert(ctx, report, &Symbol{Name: last, Kind: KVar})
	names = append(names, last)

	if got := mod.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if indexed := mod.index != nil; indexed != (n > indexAt) {
		t.Fatalf("%d entries: indexed = %v, want an index only past %d", n, indexed, indexAt)
	}
	if len(mod.waits) != 0 {
		t.Fatalf("%d placeholders left after their names were inserted", len(mod.waits))
	}
	if mod.Insert(ctx, report, &Symbol{Name: names[0], Kind: KVar}) ||
		mod.Insert(ctx, report, &Symbol{Name: last, Kind: KConst}) {
		t.Fatal("a redeclaration must be refused")
	}
	want := []string{"v0 redeclared in module M", "last redeclared in module M"}
	if fmt.Sprint(diags) != fmt.Sprint(want) {
		t.Fatalf("diagnostics %q, want %q", diags, want)
	}

	probe := func(when string) {
		s := &Searcher{Tab: tab, Ctx: ctx}
		for _, name := range names {
			if res := s.Lookup(child, name, nil); res.Sym == nil || res.Sym.Name != name {
				t.Fatalf("%s: lookup of %s = %+v", when, name, res)
			}
		}
		if res := s.Lookup(child, "alias", nil); res.Sym == nil || res.Sym.Name != "target" {
			t.Fatalf("%s: the alias resolved to %+v, want I.target", when, res)
		}
	}
	// Before Complete only a strategy that searches an incomplete table
	// without blocking may probe it from another scope.
	if strat == Skeptical || strat == Optimistic {
		probe("incomplete")
	}
	mod.Complete(ctx)
	probe("sealed")
	if res := (&Searcher{Tab: tab, Ctx: ctx}).Lookup(child, "absent", nil); res.Found() {
		t.Fatalf("an absent name was found after Complete: %+v", res)
	}
	if got := mod.Symbols(); len(got) != n || got[0].Name != "alias" || got[n-1].Name != last {
		t.Fatalf("publication order lost: %d symbols", len(got))
	}
}
