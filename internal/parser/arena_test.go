package parser

import (
	"strings"
	"testing"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/pool"
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

// mixedBody adds every other statement and expression shape to
// procBody: selectors, unary operators, real, string, character and set
// literals, CASE, ELSIF, WITH, REPEAT, LOOP/EXIT, TRY, LOCK, RAISE,
// procedure calls and RETURN.
func mixedBody() string {
	return strings.Replace(procBody(), "END P", `  r.c := a[i MOD 8] + r.c;
  p^.next^.v := -x + ABS(-3);
  CASE acc MOD 3 OF 0: Inc(acc) | 1, 2 .. 4: acc := acc - 1 ELSE END;
  IF acc = 0 THEN k := 1 ELSIF acc = 1 THEN k := 2 ELSIF acc = 2 THEN k := 3 END;
  WITH r DO c := 1.5E2; s := "str"; ch := 15C END;
  REPEAT acc := acc - 1 UNTIL NOT (acc > 0);
  LOOP IF acc > 3 THEN EXIT END; Inc(acc) END;
  TRY Work(acc) EXCEPT E1, M.E2: k := 0 | E3: k := 1 ELSE k := 2 FINALLY k := 3 END;
  LOCK mu DO st := M.CharSet{1, 3 .. 5} + {7}; Done END;
  IF acc IN st THEN RAISE M.Bad END;
  RETURN acc
END P`, 1)
}

// declModule is a module with every declaration, type and import
// shape: both import forms, constants, every type form (named and
// base-qualified subranges, enumerations, several indexes, records with
// a variant part and its ELSE, sets, POINTER, REF, procedure types with
// VAR and open-array formals), VAR and EXCEPTION sections, and
// procedures with VAR and open formal sections, a result type, and a
// procedure nested in one, whose bodies follow inline.
const declModule = `MODULE Decls;
IMPORT Shape, Other;
FROM Lib IMPORT Twice, Small, Big;
CONST Lim = 3; Mask = Small{1, 2}; Name = "decls";
TYPE Node = POINTER TO Rec;
  Rec = RECORD v, w: INTEGER; next: Node; a: ARRAY [0..3] OF INTEGER END;
  Color = (Red, Green, Blue);
  Digit = INTEGER[0..9];
  Grid = ARRAY [0..3], Color OF CHAR;
  Tagged = RECORD
    CASE tag: Color OF
      Red: i: INTEGER
    | Green, Blue: ch: CHAR; d: Digit
    ELSE r: REAL
    END;
    CASE : BOOLEAN OF TRUE: b: BITSET END
  END;
  Bits = SET OF Color;
  Cell = REF RECORD v: INTEGER END;
  Op = PROCEDURE (VAR INTEGER, ARRAY OF CHAR): INTEGER;
  Proc = PROCEDURE;
VAR mu: MUTEX; head, tail: Node; total: Shape.Count;
EXCEPTION Stop, Halt;

PROCEDURE Count(VAR x, y: INTEGER; s: ARRAY OF CHAR; VAR t: ARRAY OF Lib.Item): INTEGER;
CONST One = 1;
TYPE Pair = RECORD a, b: INTEGER END;
VAR g: Grid; p: Pair;
  PROCEDURE Inner(c: Color);
  EXCEPTION Deep;
  BEGIN
    IF c = Red THEN RAISE Deep END
  END Inner;
BEGIN
  Inner(Red);
  RETURN x + One
END Count;

PROCEDURE Empty;
END Empty;

BEGIN
  total := 0
END Decls.
`

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

// parseUnit parses the whole unit from the start of src into a.
func parseUnit(src *SliceSource, ctx *ctrace.TaskCtx, diags *diag.Bag, a *ast.Arena) *ast.Module {
	src.i = 0
	var p Parser
	p.Init(a, src, "Decls.mod", ctx, diags)
	return p.ParseUnit()
}

// parseTail parses the body from the start of src into a.
func parseTail(src *SliceSource, ctx *ctrace.TaskCtx, diags *diag.Bag, a *ast.Arena) ProcStream {
	src.i = 0
	var p Parser
	p.Init(a, src, "P.mod", ctx, diags)
	return p.ParseProcTail("P")
}

// TestArenaParseAllocs guards the recycled parse tree: once an arena has
// been through one parse, re-parsing the same text into it after a reset
// allocates at most twice — every node, every list, and the scratch
// stacks come from recycled memory, and the parser is reset in place.
// That holds for the 41-statement procBody (before arenas its parse made
// 332 heap allocations, 17.7 kB), for mixedBody, which has every
// statement and expression shape, and for declModule, a whole module
// with every declaration, type and import shape.
func TestArenaParseAllocs(t *testing.T) {
	for name, body := range map[string]string{"procBody": procBody(), "mixedBody": mixedBody()} {
		src := bodySource(t, body)
		ctx := &ctrace.TaskCtx{}
		diags := diag.NewBag(0)
		a := ast.GetArena()
		ps := parseTail(src, ctx, diags, a)
		if diags.HasErrors() || ps.Body == nil || len(ps.Body.Stmts) < 17 {
			t.Fatalf("%s: warm-up parse: %v\n%s", name, ps.Body, diags)
		}
		recycled := true
		allocs := testing.AllocsPerRun(50, func() {
			prev := a
			ast.PutArena(a)
			a = ast.GetArena()
			recycled = recycled && a == prev
			parseTail(src, ctx, diags, a)
		})
		ast.PutArena(a)
		if !recycled {
			t.Fatalf("%s: the free list did not hand the returned arena back", name)
		}
		if allocs > 2 {
			t.Fatalf("%s: re-parse into a reset arena made %.0f heap allocations, want <= 2", name, allocs)
		}
	}

	src := bodySource(t, declModule)
	ctx := &ctrace.TaskCtx{}
	diags := diag.NewBag(0)
	a := ast.GetArena()
	if m := parseUnit(src, ctx, diags, a); diags.HasErrors() || len(m.Decls) != 19 || len(m.Imports) != 2 {
		t.Fatalf("declModule: warm-up parse has %d declarations:\n%s", len(m.Decls), diags)
	}
	allocs := testing.AllocsPerRun(50, func() {
		ast.PutArena(a)
		a = ast.GetArena()
		parseUnit(src, ctx, diags, a)
	})
	ast.PutArena(a)
	t.Logf("declModule: %.0f allocations", allocs)
	if allocs > 2 {
		t.Fatalf("declModule: re-parse into a reset arena made %.0f heap allocations, want <= 2", allocs)
	}
}

// TestArenaTreeMatchesHeapTree checks that the arena changes where the
// tree lives, not what it is: mixedBody and declModule, which between
// them have every node type the parser builds, parsed with and without
// an arena print identically, also into chunks a release scrambled.
func TestArenaTreeMatchesHeapTree(t *testing.T) {
	pool.Scribble.Store(true)
	defer pool.Scribble.Store(false)
	body, decls := bodySource(t, mixedBody()), bodySource(t, declModule)
	ctx := &ctrace.TaskCtx{}
	diags := diag.NewBag(0)
	parse := func(a *ast.Arena) string {
		return printBody(parseTail(body, ctx, diags, a).Body) + ast.Print(parseUnit(decls, ctx, diags, a))
	}
	want := parse(nil)
	a := ast.GetArena()
	for i := 0; i < 3; i++ {
		if got := parse(a); got != want {
			t.Fatalf("parse %d into an arena differs from the heap tree\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		ast.PutArena(a)
		a = ast.GetArena()
	}
	if diags.HasErrors() {
		t.Fatal(diags)
	}
}

// printBody renders a statement tree through the AST printer.
func printBody(body *ast.StmtList) string {
	return ast.Print(&ast.Module{Kind: ast.ProgMod, Name: ast.Name{Text: "P"}, Body: body})
}

// BenchmarkParseBody measures statement parsing into a recycled arena
// (run with -benchmem: allocs/op is the per-parse heap traffic).
func BenchmarkParseBody(b *testing.B) {
	for _, bc := range []struct{ name, body string }{{"proc", procBody()}, {"mixed", mixedBody()}} {
		b.Run(bc.name, func(b *testing.B) {
			src := bodySource(b, bc.body)
			ctx := &ctrace.TaskCtx{}
			diags := diag.NewBag(0)
			a := ast.GetArena()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parseTail(src, ctx, diags, a)
				ast.PutArena(a)
				a = ast.GetArena()
			}
		})
	}
}

// BenchmarkParseDecls measures parsing declModule, a whole module with
// every declaration shape, into a recycled arena (run with -benchmem:
// allocs/op is the per-parse heap traffic).
func BenchmarkParseDecls(b *testing.B) {
	src := bodySource(b, declModule)
	ctx := &ctrace.TaskCtx{}
	diags := diag.NewBag(0)
	a := ast.GetArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parseUnit(src, ctx, diags, a)
		ast.PutArena(a)
		a = ast.GetArena()
	}
}
