package symtab_test

import (
	"fmt"
	"testing"

	"m2cc/internal/ctrace"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
)

func noReport(token.Pos, string, ...any) {}

// aliasChain builds an origin scope whose "x" is the head of a chain of
// links alias hops ending in a real variable, all scopes completed.
func aliasChain(tab *symtab.Table, ctx *ctrace.TaskCtx, links int) (origin *symtab.Scope) {
	ifaces := make([]*symtab.Scope, links)
	for i := range ifaces {
		ifaces[i] = tab.NewScope(symtab.DefScope, fmt.Sprintf("I%d", i), nil, 0)
	}
	for i := 0; i < links-1; i++ {
		ifaces[i].Insert(ctx, noReport, &symtab.Symbol{
			Name: "x", Kind: symtab.KAlias, Payload: &symtab.Payload{AliasScope: ifaces[i+1], AliasName: "x"},
		})
	}
	ifaces[links-1].Insert(ctx, noReport, &symtab.Symbol{Name: "x", Kind: symtab.KVar})
	for _, sc := range ifaces {
		sc.Complete(ctx)
	}
	origin = tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	origin.Insert(ctx, noReport, &symtab.Symbol{
		Name: "x", Kind: symtab.KAlias, Payload: &symtab.Payload{AliasScope: ifaces[0], AliasName: "x"},
	})
	origin.Complete(ctx)
	return origin
}

func TestAliasChainAtDepthLimitResolves(t *testing.T) {
	tab, _ := newTable(symtab.Skeptical)
	ctx := &ctrace.TaskCtx{}
	origin := aliasChain(tab, ctx, symtab.MaxAliasDepth)
	s := &symtab.Searcher{Tab: tab, Ctx: ctx}
	res := s.Lookup(origin, "x", nil)
	if res.Sym == nil || res.Sym.Kind != symtab.KVar || res.DeepAlias {
		t.Fatalf("chain of %d links must resolve: %+v", symtab.MaxAliasDepth, res)
	}
}

func TestAliasChainBeyondLimitReportsDeepAlias(t *testing.T) {
	tab, _ := newTable(symtab.Skeptical)
	ctx := &ctrace.TaskCtx{}
	origin := aliasChain(tab, ctx, symtab.MaxAliasDepth+1)
	s := &symtab.Searcher{Tab: tab, Ctx: ctx}
	res := s.Lookup(origin, "x", nil)
	if res.Found() {
		t.Fatalf("chain of %d links must not resolve", symtab.MaxAliasDepth+1)
	}
	if !res.DeepAlias {
		t.Fatal("exhausted alias chain must be flagged DeepAlias, not plain not-found")
	}
}

func TestCyclicAliasReportsDeepAlias(t *testing.T) {
	tab, _ := newTable(symtab.Skeptical)
	ctx := &ctrace.TaskCtx{}
	a := tab.NewScope(symtab.DefScope, "A", nil, 0)
	b := tab.NewScope(symtab.DefScope, "B", nil, 0)
	a.Insert(ctx, noReport, &symtab.Symbol{Name: "x", Kind: symtab.KAlias, Payload: &symtab.Payload{AliasScope: b, AliasName: "x"}})
	b.Insert(ctx, noReport, &symtab.Symbol{Name: "x", Kind: symtab.KAlias, Payload: &symtab.Payload{AliasScope: a, AliasName: "x"}})
	a.Complete(ctx)
	b.Complete(ctx)
	origin := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	origin.Insert(ctx, noReport, &symtab.Symbol{Name: "x", Kind: symtab.KAlias, Payload: &symtab.Payload{AliasScope: a, AliasName: "x"}})
	origin.Complete(ctx)

	s := &symtab.Searcher{Tab: tab, Ctx: ctx}
	if res := s.Lookup(origin, "x", nil); res.Found() || !res.DeepAlias {
		t.Fatalf("cyclic alias: got %+v, want DeepAlias", res)
	}
	// Qualified form: M.x where M's interface member is the cycle head.
	if res := s.QualifiedLookup(a, "x"); res.Found() || !res.DeepAlias {
		t.Fatalf("cyclic alias (qualified): got %+v, want DeepAlias", res)
	}
}

func TestBrokenAliasIsPlainNotFound(t *testing.T) {
	tab, _ := newTable(symtab.Skeptical)
	ctx := &ctrace.TaskCtx{}
	empty := tab.NewScope(symtab.DefScope, "E", nil, 0)
	empty.Complete(ctx)
	a := tab.NewScope(symtab.DefScope, "A", nil, 0)
	a.Insert(ctx, noReport, &symtab.Symbol{Name: "x", Kind: symtab.KAlias, Payload: &symtab.Payload{AliasScope: empty, AliasName: "x"}})
	a.Complete(ctx)

	s := &symtab.Searcher{Tab: tab, Ctx: ctx}
	// The chain dead-ends in a completed scope without the name: that is
	// an ordinary undeclared identifier, not a deep-alias condition.
	if res := s.QualifiedLookup(a, "x"); res.Found() || res.DeepAlias {
		t.Fatalf("broken alias: got %+v, want plain not-found", res)
	}
}

// BenchmarkLookupChain measures the traced hot path: a lookup chaining
// through a procedure scope, its module scope and an alias into an
// interface scope.  Run with -benchmem; the Searcher's reusable hop
// buffer keeps steady-state allocations to the recorder's exact-size
// copy of the hop chain.
func BenchmarkLookupChain(b *testing.B) {
	for _, tracing := range []bool{false, true} {
		name := "untraced"
		var rec *ctrace.Recorder
		if tracing {
			name = "traced"
			rec = ctrace.NewRecorder()
		}
		b.Run(name, func(b *testing.B) {
			tab := symtab.NewTable(symtab.Skeptical, nil, rec)
			ctx := &ctrace.TaskCtx{Rec: rec}
			iface := tab.NewScope(symtab.DefScope, "I", nil, 0)
			iface.Insert(ctx, noReport, &symtab.Symbol{Name: "x", Kind: symtab.KVar})
			iface.Complete(ctx)
			mod := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
			mod.Insert(ctx, noReport, &symtab.Symbol{
				Name: "x", Kind: symtab.KAlias, Payload: &symtab.Payload{AliasScope: iface, AliasName: "x"},
			})
			mod.Complete(ctx)
			proc := tab.NewScope(symtab.ProcScope, "P", mod, 1)
			proc.Insert(ctx, noReport, &symtab.Symbol{Name: "y", Kind: symtab.KVar})
			proc.Complete(ctx)

			s := &symtab.Searcher{Tab: tab, Ctx: ctx}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := s.Lookup(proc, "x", nil); res.Sym == nil {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}
