package core_test

import (
	"fmt"
	"strings"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/seq"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
	"m2cc/internal/vm"
	"m2cc/internal/workload"
)

// testLoader builds a MapLoader from a name→text map ("X.def"/"X.mod").
func testLoader(files map[string]string) *source.MapLoader {
	loader := source.NewMapLoader()
	for name, text := range files {
		if base, ok := strings.CutSuffix(name, ".def"); ok {
			loader.Add(base, source.Def, text)
		} else if base, ok := strings.CutSuffix(name, ".mod"); ok {
			loader.Add(base, source.Impl, text)
		}
	}
	return loader
}

// multiModuleProgram exercises imports, FROM-imports, nesting, records,
// sets, exceptions and cross-module calls in one program.
var multiModuleProgram = map[string]string{
	"Stacks.def": `
DEFINITION MODULE Stacks;
CONST Cap = 16;
TYPE Stack;
EXCEPTION Overflow;
VAR pushes: INTEGER;
PROCEDURE New(): Stack;
PROCEDURE Push(s: Stack; v: INTEGER);
PROCEDURE Pop(s: Stack): INTEGER;
PROCEDURE Depth(s: Stack): INTEGER;
END Stacks.
`,
	"Stacks.mod": `
IMPLEMENTATION MODULE Stacks;
TYPE
  Rep = RECORD
    n: INTEGER;
    a: ARRAY [0..Cap-1] OF INTEGER
  END;
  Stack = POINTER TO Rep;

PROCEDURE New(): Stack;
VAR s: Stack;
BEGIN
  NEW(s);
  s^.n := 0;
  RETURN s
END New;

PROCEDURE Push(s: Stack; v: INTEGER);
BEGIN
  IF s^.n >= Cap THEN RAISE Overflow END;
  s^.a[s^.n] := v;
  INC(s^.n);
  INC(pushes)
END Push;

PROCEDURE Pop(s: Stack): INTEGER;
BEGIN
  DEC(s^.n);
  RETURN s^.a[s^.n]
END Pop;

PROCEDURE Depth(s: Stack): INTEGER;
BEGIN
  RETURN s^.n
END Depth;

BEGIN
  pushes := 0
END Stacks.
`,
	"Sorter.def": `
DEFINITION MODULE Sorter;
PROCEDURE Sort(VAR a: ARRAY OF INTEGER);
END Sorter.
`,
	"Sorter.mod": `
IMPLEMENTATION MODULE Sorter;

PROCEDURE Sort(VAR a: ARRAY OF INTEGER);
VAR n: INTEGER;

  PROCEDURE QSort(lo, hi: INTEGER);
  VAR i, j, pivot, tmp: INTEGER;
  BEGIN
    IF lo >= hi THEN RETURN END;
    i := lo; j := hi;
    pivot := a[(lo + hi) DIV 2];
    WHILE i <= j DO
      WHILE a[i] < pivot DO INC(i) END;
      WHILE a[j] > pivot DO DEC(j) END;
      IF i <= j THEN
        tmp := a[i]; a[i] := a[j]; a[j] := tmp;
        INC(i); DEC(j)
      END
    END;
    QSort(lo, j);
    QSort(i, hi)
  END QSort;

BEGIN
  n := INTEGER(HIGH(a));
  QSort(0, n)
END Sort;

END Sorter.
`,
	"Main.mod": `
MODULE Main;
FROM Stacks IMPORT New, Push, Pop, Overflow;
IMPORT Stacks, Sorter;
TYPE Vec = ARRAY [0..7] OF INTEGER;
VAR
  s: Stacks.Stack;
  v: Vec;
  i: INTEGER;
BEGIN
  s := New();
  FOR i := 0 TO 7 DO
    Push(s, (i * 37) MOD 11)
  END;
  FOR i := 0 TO 7 DO
    v[i] := Pop(s)
  END;
  Sorter.Sort(v);
  FOR i := 0 TO 7 DO
    WriteInt(v[i], 3)
  END;
  WriteLn;
  TRY
    FOR i := 0 TO 99 DO Push(s, i) END
  EXCEPT
    Overflow: WriteString("overflow at depth ");
               WriteInt(Stacks.Depth(s), 0)
  END;
  WriteLn;
  WriteInt(Stacks.pushes, 0); WriteLn
END Main.
`,
}

// seqBaseline compiles every module sequentially and returns listings
// keyed by module plus the sorted diagnostics.
func seqBaseline(t *testing.T, loader source.Loader, mods []string) (map[string]string, map[string]string) {
	t.Helper()
	listings := make(map[string]string)
	diags := make(map[string]string)
	for _, m := range mods {
		res := seq.Compile(m, loader)
		listings[m] = res.Object.Listing()
		diags[m] = res.Diags.String()
	}
	return listings, diags
}

func TestConcurrentMatchesSequential(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	mods := []string{"Main", "Stacks", "Sorter"}
	wantListing, wantDiags := seqBaseline(t, loader, mods)

	for _, workers := range []int{1, 2, 4, 8} {
		for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
			for _, hdr := range []core.HeaderMode{core.HeaderShared, core.HeaderReprocess} {
				name := fmt.Sprintf("w%d/%s/hdr%d", workers, strat, hdr)
				t.Run(name, func(t *testing.T) {
					for _, m := range mods {
						res := core.Compile(m, loader, core.Options{
							Workers: workers, Strategy: strat, Headers: hdr,
						})
						if got := res.Diags.String(); got != wantDiags[m] {
							t.Fatalf("%s: diagnostics differ\n got: %q\nwant: %q", m, got, wantDiags[m])
						}
						if got := res.Object.Listing(); got != wantListing[m] {
							t.Fatalf("%s: listings differ\ngot:\n%s\nwant:\n%s", m, got, wantListing[m])
						}
					}
				})
			}
		}
	}
}

// TestProcedureBodyDiagnosticsMatchSequential: the splitter diverts a
// procedure body whatever token it starts with, and the sequential
// parser takes it inline whatever it starts with, so both compilers
// report a malformed body the same way under both header modes and
// every DKY strategy.  A nameless END carries the token after it into
// the body's stream, so its parser reports the missing name where the
// inline parse does, and the parent stream parses that token alone.
func TestProcedureBodyDiagnosticsMatchSequential(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"import", "MODULE M;\nPROCEDURE P;\nIMPORT B;\nBEGIN END P;\nBEGIN P END M.\n",
			"M.mod:3:1: error: expected a declaration, found IMPORT"},
		{"from-import", "MODULE M;\nPROCEDURE P;\nFROM B IMPORT x;\nBEGIN END P;\nBEGIN P END M.\n",
			"M.mod:3:1: error: expected a declaration, found FROM"},
		{"nameless-end", "MODULE M;\nPROCEDURE P;\nEND;\nBEGIN P END M.\n",
			"M.mod:3:4: error: expected identifier, found ;"},
		{"nameless-end-at-eof", "MODULE M;\nPROCEDURE P;\nEND",
			"M.mod:3:4: error: expected identifier, found end of file"},
		{"nameless-nested-end", "MODULE M;\nPROCEDURE P;\n PROCEDURE Q; END; BEGIN END P;\nBEGIN P END M.\n",
			"M.mod:3:18: error: expected identifier, found ;"},
	} {
		loader := testLoader(map[string]string{
			"B.def": "DEFINITION MODULE B;\nVAR x: INTEGER;\nEND B.\n",
			"M.mod": c.src,
		})
		want := seq.Compile("M", loader).Diags.String()
		if !strings.Contains(want, c.want) {
			t.Fatalf("%s: sequential compiler reports\n%s\nwant it to contain %q", c.name, want, c.want)
		}
		for _, hdr := range []core.HeaderMode{core.HeaderShared, core.HeaderReprocess} {
			for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
				res := core.Compile("M", loader, core.Options{Workers: 2, Headers: hdr, Strategy: strat})
				if got := res.Diags.String(); got != want {
					t.Errorf("%s/hdr%d/%s: diagnostics differ\n got: %q\nwant: %q", c.name, hdr, strat, got, want)
				}
			}
		}
	}
}

func TestConcurrentProgramRuns(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	var objs []*vm.Object
	for _, m := range []string{"Main", "Stacks", "Sorter"} {
		res := core.Compile(m, loader, core.Options{Workers: 4})
		if res.Failed() {
			t.Fatalf("compile %s failed:\n%s", m, res.Diags)
		}
		objs = append(objs, res.Object)
	}
	prog, err := vm.Link(objs, "Main")
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	var out strings.Builder
	if err := vm.NewMachine(prog, nil, &out).Run(); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	want := "  0  1  2  4  5  6  8  9\noverflow at depth 16\n24\n"
	if out.String() != want {
		t.Fatalf("got %q, want %q", out.String(), want)
	}
}

func TestStreamsCounted(t *testing.T) {
	loader := testLoader(multiModuleProgram)
	res := core.Compile("Main", loader, core.Options{Workers: 2})
	if res.Failed() {
		t.Fatalf("compile failed:\n%s", res.Diags)
	}
	// Main has 0 procedures of its own + imports Stacks and Sorter:
	// 1 main stream + 2 interface streams + 1 own-def prefetch.
	if res.Streams < 3 {
		t.Fatalf("streams = %d, want >= 3", res.Streams)
	}
}

func TestDeadlockBrokenOnCyclicImports(t *testing.T) {
	loader := testLoader(map[string]string{
		"A.def": "DEFINITION MODULE A;\nFROM B IMPORT x;\nCONST y = x;\nEND A.\n",
		"B.def": "DEFINITION MODULE B;\nFROM A IMPORT y;\nCONST x = y;\nEND B.\n",
		"C.mod": "MODULE C;\nFROM A IMPORT y;\nBEGIN\n  WriteInt(y, 0)\nEND C.\n",
	})
	done := make(chan *core.Result, 1)
	go func() {
		done <- core.Compile("C", loader, core.Options{Workers: 2})
	}()
	res := <-done
	if !res.Failed() {
		t.Fatal("cyclic imports must fail")
	}
}

// TestWholeSuiteDifferential is the flagship integration check: every
// program of the generated evaluation suite, compiled concurrently on 8
// workers (cycling through the DKY strategies and header modes),
// produces byte-identical diagnostics and listings to the sequential
// compiler.
func TestWholeSuiteDifferential(t *testing.T) {
	suite := workload.GenerateSuite(1992, 0.08)
	for i, p := range suite.Programs {
		strat := symtab.Strategy(i % int(symtab.NumStrategies))
		hdr := core.HeaderShared
		if i%5 == 4 {
			hdr = core.HeaderReprocess
		}
		want := seq.Compile(p.Name, suite.Loader)
		got := core.Compile(p.Name, suite.Loader, core.Options{
			Workers: 8, Strategy: strat, Headers: hdr,
		})
		if want.Diags.String() != got.Diags.String() {
			t.Fatalf("%s (%s): diagnostics differ\nseq:\n%s\nconc:\n%s",
				p.Name, strat, want.Diags, got.Diags)
		}
		if want.Failed() {
			t.Fatalf("%s: suite program failed to compile:\n%s", p.Name, want.Diags)
		}
		if want.Object.Listing() != got.Object.Listing() {
			t.Fatalf("%s (%s, hdr %d): listings differ", p.Name, strat, hdr)
		}
		if got.Streams != p.Streams+1 { // +1: the own-interface prefetch stream
			t.Errorf("%s: %d streams, generator predicted %d (+1 prefetch)",
				p.Name, got.Streams, p.Streams)
		}
	}
}
