package parser

import (
	"strings"
	"testing"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
)

// procBody is a procedure stream's tail as the splitter hands it to
// ParseProcTail: 41 statements in the shapes of the benchmark's
// synthetic procedures (nested FOR, IF/ELSE over a builtin call, WHILE,
// function calls in expressions), all of whose nodes the arena covers.
func procBody() string {
	var b strings.Builder
	b.WriteString("BEGIN\n  acc := x;\n")
	for rep := 0; rep < 4; rep++ {
		b.WriteString(`  FOR i := 0 TO 9 DO
    FOR j := 0 TO 4 DO
      acc := acc + i * j + y;
      k := Max(acc MOD 50, k - 1)
    END
  END;
  IF ODD(acc) THEN acc := acc + 1; k := 0 ELSE acc := acc DIV 2; k := 1 END;
  WHILE acc > 1000 DO acc := acc DIV 3 END;
  y := Min(y, acc) + 7;
`)
	}
	b.WriteString("END P\n")
	return b.String()
}

// mixedBody adds the statement shapes whose nodes stay on the heap
// (selectors, CASE arms, procedure calls, RETURN) to procBody.
func mixedBody() string {
	return strings.Replace(procBody(), "END P", `  r.c := a[i MOD 8] + r.c;
  CASE acc MOD 3 OF 0: Inc(acc) | 1, 2: acc := acc - 1 ELSE END;
  RETURN acc
END P`, 1)
}

func bodySource(tb testing.TB, text string) *SliceSource {
	tb.Helper()
	diags := diag.NewBag(0)
	f := source.NewSet().Add("P", source.Impl, text)
	src := NewSliceSource(lexer.ScanAll(f, &ctrace.TaskCtx{}, diags))
	if diags.HasErrors() {
		tb.Fatalf("lex errors:\n%s", diags)
	}
	return src
}

// parseTail parses the body from the start of src into a.
func parseTail(src *SliceSource, ctx *ctrace.TaskCtx, diags *diag.Bag, a *ast.Arena) *ProcStream {
	src.i = 0
	p := New(src, "P.mod", ctx, diags)
	p.Arena = a
	return p.ParseProcTail("P")
}

// TestArenaParseAllocs guards the recycled statement tree: once an arena
// has been through one parse, re-parsing the same 41-statement body
// into it after a reset allocates only the Parser and the ProcStream —
// every node, every statement and argument list, and the scratch stacks
// come from recycled memory.  Before arenas the same parse made 332
// heap allocations (17.7 kB).
func TestArenaParseAllocs(t *testing.T) {
	src := bodySource(t, procBody())
	ctx := &ctrace.TaskCtx{}
	diags := diag.NewBag(0)
	a := ast.GetArena()
	ps := parseTail(src, ctx, diags, a)
	if diags.HasErrors() || ps.Body == nil || len(ps.Body.Stmts) != 17 {
		t.Fatalf("warm-up parse: %v\n%s", ps.Body, diags)
	}
	recycled := true
	allocs := testing.AllocsPerRun(50, func() {
		prev := a
		ast.PutArena(a)
		a = ast.GetArena()
		recycled = recycled && a == prev
		parseTail(src, ctx, diags, a)
	})
	if !recycled {
		t.Fatal("the free list did not hand the returned arena back")
	}
	if allocs > 2 {
		t.Fatalf("re-parse into a reset arena made %.0f heap allocations, want <= 2", allocs)
	}
}

// TestArenaTreeMatchesHeapTree checks that the arena changes where the
// tree lives, not what it is: the same body parsed with and without an
// arena prints identically, also after the arena was recycled.
func TestArenaTreeMatchesHeapTree(t *testing.T) {
	src := bodySource(t, mixedBody())
	ctx := &ctrace.TaskCtx{}
	diags := diag.NewBag(0)
	want := printBody(parseTail(src, ctx, diags, nil).Body)
	a := ast.GetArena()
	for i := 0; i < 3; i++ {
		if got := printBody(parseTail(src, ctx, diags, a).Body); got != want {
			t.Fatalf("parse %d into an arena differs from the heap tree\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		ast.PutArena(a)
		a = ast.GetArena()
	}
}

// printBody renders a statement tree through the AST printer.
func printBody(body *ast.StmtList) string {
	return ast.Print(&ast.Module{Kind: ast.ProgMod, Name: ast.Name{Text: "P"}, Body: body})
}

// BenchmarkParseBody measures statement parsing into a recycled arena
// (run with -benchmem: allocs/op is the per-parse heap traffic).
func BenchmarkParseBody(b *testing.B) {
	src := bodySource(b, procBody())
	ctx := &ctrace.TaskCtx{}
	diags := diag.NewBag(0)
	a := ast.GetArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parseTail(src, ctx, diags, a)
		ast.PutArena(a)
		a = ast.GetArena()
	}
}
