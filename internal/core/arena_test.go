package core_test

import (
	"fmt"
	"strings"
	"testing"

	"m2cc"
	"m2cc/internal/pool"
	"m2cc/internal/workload"
)

// TestArenaReuseDifferential hunts for a reader that holds a parse tree
// (declarations or statements), a token block or keyer records after
// they went back to their free list: such a reader would see zeroed or
// foreign values and print a different listing, diagnostic or finding,
// or miss a cache.  Twelve suite programs compile as one batch, with
// static analysis, an interface cache and a stream cache shared across
// batches, so buffers are recycled while sibling compilations still run,
// and again by the warm recompile that follows, whose lint takes its
// interfaces' fact tables from the interface cache.  Every listing and
// diagnostic must equal the sequential compiler's and every findings
// list the sequential analyzer's, under each DKY strategy and heading
// mode with one and two workers, and again with every release
// scribbling over what it returns.  Run under -race.
func TestArenaReuseDifferential(t *testing.T) {
	suite := workload.GenerateSuite(1992, 0.2)
	var mods []string
	for _, p := range suite.Programs[:12] {
		mods = append(mods, p.Name)
	}
	wantListing := make(map[string]string, len(mods))
	wantDiags := make(map[string]string, len(mods))
	wantFindings := make(map[string]string, len(mods))
	for _, m := range mods {
		sres := m2cc.CompileSequential(m, suite.Loader)
		if sres.Failed() {
			t.Fatalf("%s does not compile sequentially:\n%s", m, sres.Diags)
		}
		wantListing[m] = sres.Object.Listing()
		wantDiags[m] = sres.Diags.String()
		wantFindings[m] = m2cc.RenderFindings(m2cc.Lint(m, suite.Loader))
	}

	for _, scribble := range []string{"", "/scribble"} {
		for _, workers := range []int{1, 2} {
			for strat := m2cc.Avoidance; strat <= m2cc.Optimistic; strat++ {
				for _, hdr := range []m2cc.HeaderMode{m2cc.HeaderShared, m2cc.HeaderReprocess} {
					mode := map[m2cc.HeaderMode]string{m2cc.HeaderReprocess: "/reprocess"}[hdr]
					t.Run(fmt.Sprintf("w%d/%s%s%s", workers, strat, mode, scribble), func(t *testing.T) {
						pool.Scribble.Store(scribble != "")
						defer pool.Scribble.Store(false)
						opts := m2cc.Options{
							Workers: workers, Strategy: strat, Headers: hdr, Check: true,
							Cache: m2cc.NewCache(), StreamCache: m2cc.NewStreamCache(0),
						}
						for _, pass := range []string{"cold", "warm"} {
							for i, res := range m2cc.CompileBatch(mods, suite.Loader, opts) {
								m := mods[i]
								if res.Faulted || res.CheckFellBack {
									t.Fatalf("%s %s: faulted=%v checkFellBack=%v\n%s", pass, m, res.Faulted, res.CheckFellBack, res.Diags)
								}
								if got := res.Object.Listing(); got != wantListing[m] {
									t.Fatalf("%s %s: listing differs from the sequential compiler's\ngot:\n%s\nwant:\n%s", pass, m, got, wantListing[m])
								}
								if got := res.Diags.String(); got != wantDiags[m] {
									t.Fatalf("%s %s: diagnostics differ from the sequential compiler's\ngot:\n%s\nwant:\n%s", pass, m, got, wantDiags[m])
								}
								if got := m2cc.RenderFindings(res.Findings); got != wantFindings[m] {
									t.Fatalf("%s %s: findings differ from the sequential analyzer's\ngot:\n%s\nwant:\n%s", pass, m, got, wantFindings[m])
								}
								if ta := res.StreamCache; pass == "warm" && ta.Hits != ta.Probed {
									t.Fatalf("warm %s: %+v, want every stream key to hit", m, *ta)
								}
							}
						}
						if s := opts.StreamCache.Stats(); s.Hits == 0 {
							t.Fatalf("warm batch never hit the stream cache: %+v", s)
						}
						if s := opts.Cache.Stats(); s.Hits == 0 {
							t.Fatalf("the batches never hit the interface cache: %+v", s)
						}
					})
				}
			}
		}
	}
}

// everyShape is a runnable program whose trees hold every node type the
// parser builds in an arena.  Its statements have each statement form,
// each selector, unary operators, real, character, string and qualified
// set literals, and exceptions caught by a handler list.  Its
// declarations have both import forms, constants, every type form (a
// base-qualified subrange, two indexes, a variant part with an ELSE,
// REF, procedure types with VAR and open-array formals), VAR and open
// formal sections, and exceptions at module level and in a procedure
// nested in another.
var everyShape = map[string]string{
	"Shape.def": `
DEFINITION MODULE Shape;
TYPE Small = SET OF [0..15];
EXCEPTION Bad, Worse;
PROCEDURE Twice(x: INTEGER): INTEGER;
END Shape.
`,
	"Shape.mod": `
IMPLEMENTATION MODULE Shape;
PROCEDURE Twice(x: INTEGER): INTEGER;
BEGIN
  RETURN 2 * x
END Twice;
END Shape.
`,
	"Every.mod": `
MODULE Every;
IMPORT Shape;
FROM Shape IMPORT Twice, Small;
CONST Lim = 3; Mask = Small{1, 2};
TYPE Node = POINTER TO Rec;
  Rec = RECORD v: INTEGER; next: Node; a: ARRAY [0..3] OF INTEGER END;
  Color = (Red, Green, Blue);
  Idx = [0..3];
  Digit = INTEGER[0..9];
  Grid = ARRAY Idx, Color OF CHAR;
  Tagged = RECORD
    CASE tag: Color OF
      Red: i: INTEGER
    | Green, Blue: ch: CHAR; d: Digit
    ELSE
    END
  END;
  Bits = SET OF Color;
  Cell = REF RECORD v: INTEGER END;
  Op = PROCEDURE (VAR INTEGER, INTEGER): INTEGER;
  Show = PROCEDURE (ARRAY OF CHAR);
VAR mu: MUTEX; head: Node; total: INTEGER;
EXCEPTION Stop;

PROCEDURE Walk(n: INTEGER): INTEGER;
VAR k, acc: INTEGER; s: Shape.Small; r: REAL; c: CHAR;
BEGIN
  acc := -n + ABS(-3);
  head^.next^.v := acc; head^.a[n MOD 4] := head^.next^.v;
  CASE acc MOD 5 OF 0: INC(acc) | 1, 2 .. 3: acc := acc - 1 ELSE acc := acc + 2 END;
  IF acc = 0 THEN k := 1 ELSIF acc = 1 THEN k := 2 ELSIF acc < 0 THEN k := 3 ELSE k := 4 END;
  WITH head^ DO v := v + k; a[0] := v END;
  REPEAT acc := acc - 1 UNTIL NOT (acc > 0);
  LOOP IF acc > 3 THEN EXIT END; INC(acc) END;
  r := 1.5E2; c := 101C; WriteChar(c); WriteReal(r / 4.0, 0); WriteString(" walk ");
  s := Shape.Small{1, 3 .. 5} + Shape.Small{7};
  IF (4 IN s) AND (k IN s) THEN WriteString("in ") END;
  LOCK mu DO total := total + Shape.Twice(acc) END;
  TRY
    IF n > 2 THEN RAISE Shape.Bad END;
    IF n > 1 THEN RAISE Shape.Worse END
  EXCEPT Shape.Bad, Shape.Worse: WriteString("caught ")
  FINALLY WriteInt(head^.a[0], 0); WriteLn
  END;
  RETURN acc
END Walk;

PROCEDURE Count(VAR x: INTEGER; s: ARRAY OF CHAR): INTEGER;
VAR g: Grid; t: Tagged; b: Bits; cell: Cell; col: Color;
  PROCEDURE Inner(c: Color; VAR n: INTEGER);
  EXCEPTION Deep;
  BEGIN
    TRY
      IF c IN b THEN INC(n) END;
      IF n > Lim THEN RAISE Deep END
    EXCEPT Deep: n := -n
    END
  END Inner;
BEGIN
  b := Bits{Red, Blue}; t.tag := Green; t.ch := s[0]; t.d := 7;
  g[2, Blue] := t.ch; NEW(cell); cell^.v := HIGH(s);
  FOR col := Red TO Blue DO Inner(col, x) END;
  IF 2 IN Mask THEN x := x + t.d + cell^.v END;
  WriteChar(g[2, Blue]); WriteInt(x, 0); WriteLn;
  RETURN Twice(x)
END Count;

PROCEDURE Step(VAR x: INTEGER; by: INTEGER): INTEGER;
BEGIN
  x := x + by; RETURN Count(x, "xyz")
END Step;

VAR op: Op; show: Show; m: INTEGER;
BEGIN
  NEW(head); NEW(head^.next); total := 0;
  WriteInt(Walk(0) + Walk(1) + Walk(2) + Walk(3), 0); WriteChar(" "); WriteInt(total, 0); WriteLn;
  op := Step; m := 3; WriteInt(op(m, 1), 0); WriteLn;
  TRY RAISE Stop EXCEPT Stop: WriteString("stopped") END; WriteLn
END Every.
`,
}

// TestEveryShapeOnRecycledChunks compiles everyShape while every release
// scribbles over what it returns, alternating with a suite program so
// each compilation parses into chunks another one just returned.  Under
// each DKY strategy with one and two workers, cold and warm, the
// listings must equal the sequential compiler's and the linked program
// must print what the sequential one prints.  Run under -race.
func TestEveryShapeOnRecycledChunks(t *testing.T) {
	pool.Scribble.Store(true)
	defer pool.Scribble.Store(false)
	loader := m2cc.NewMapLoader()
	for name, text := range everyShape {
		base, kind := strings.TrimSuffix(name, ".mod"), m2cc.Impl
		if b, ok := strings.CutSuffix(name, ".def"); ok {
			base, kind = b, m2cc.Def
		}
		loader.Add(base, kind, text)
	}
	suite := workload.GenerateSuite(1992, 0.2)
	other := suite.Programs[6].Name
	mods := []string{"Every", "Shape"}
	want := make(map[string]string)
	var objs []*m2cc.Object
	for _, m := range mods {
		res := m2cc.CompileSequential(m, loader)
		if res.Failed() {
			t.Fatalf("%s does not compile sequentially:\n%s", m, res.Diags)
		}
		want[m] = res.Object.Listing()
		objs = append(objs, res.Object)
	}
	wantOut := runEvery(t, objs)
	if !strings.Contains(wantOut, "caught") || !strings.Contains(wantOut, "walk in") {
		t.Fatalf("the sequential program printed %q, want a caught exception and a set hit", wantOut)
	}

	for _, workers := range []int{1, 2} {
		for strat := m2cc.Avoidance; strat <= m2cc.Optimistic; strat++ {
			t.Run(fmt.Sprintf("w%d/%s", workers, strat), func(t *testing.T) {
				opts := m2cc.Options{Workers: workers, Strategy: strat, StreamCache: m2cc.NewStreamCache(0)}
				for _, pass := range []string{"cold", "warm"} {
					objs = objs[:0]
					for _, m := range mods {
						if res := m2cc.Compile(other, suite.Loader, opts); res.Failed() {
							t.Fatalf("%s: %s", other, res.Diags)
						}
						res := m2cc.Compile(m, loader, opts)
						if got := res.Object.Listing(); res.Faulted || got != want[m] {
							t.Fatalf("%s %s: listing differs from the sequential compiler's\ngot:\n%s\nwant:\n%s\n%s", pass, m, got, want[m], res.Diags)
						}
						objs = append(objs, res.Object)
					}
					if got := runEvery(t, objs); got != wantOut {
						t.Fatalf("%s: program printed %q, want %q", pass, got, wantOut)
					}
				}
			})
		}
	}
}

// runEvery links and runs everyShape's objects and returns what the
// program printed.
func runEvery(t *testing.T, objs []*m2cc.Object) string {
	t.Helper()
	prog, err := m2cc.Link(objs, "Every")
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	var out strings.Builder
	if err := m2cc.Execute(prog, strings.NewReader(""), &out); err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	return out.String()
}
