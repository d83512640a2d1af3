package m2cc_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"m2cc"
	"m2cc/internal/parser"
)

// TestPublicAPIQuickstart exercises the README's quick-start path end
// to end through the exported facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	loader := m2cc.NewMapLoader()
	loader.Add("Hello", m2cc.Impl, `
MODULE Hello;
VAR i: INTEGER;
PROCEDURE Twice(x: INTEGER): INTEGER;
BEGIN
  RETURN 2 * x
END Twice;
BEGIN
  FOR i := 1 TO 3 DO WriteInt(Twice(i), 3) END;
  WriteLn
END Hello.
`)
	res := m2cc.Compile("Hello", loader, m2cc.Options{Workers: 4})
	if res.Failed() {
		t.Fatalf("compile failed:\n%s", res.Diags)
	}
	if res.Streams < 2 {
		t.Fatalf("streams = %d", res.Streams)
	}
	seqr := m2cc.CompileSequential("Hello", loader)
	if res.Object.Listing() != seqr.Object.Listing() {
		t.Fatal("outputs differ between compilers")
	}
	prog, err := m2cc.BuildProgram("Hello", loader, m2cc.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := m2cc.Execute(prog, nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "  2  4  6\n" {
		t.Fatalf("got %q", out.String())
	}
}

// TestPublicAPITraceAndSimulate drives the trace → simulate path.
func TestPublicAPITraceAndSimulate(t *testing.T) {
	loader := m2cc.NewMapLoader()
	loader.Add("W", m2cc.Impl, `
MODULE W;
PROCEDURE A(): INTEGER;
BEGIN
  RETURN 1
END A;
PROCEDURE B(): INTEGER;
BEGIN
  RETURN A() + 1
END B;
BEGIN
  WriteInt(B(), 0); WriteLn
END W.
`)
	res := m2cc.Compile("W", loader, m2cc.Options{Workers: 1, Trace: true})
	if res.Failed() || res.Trace == nil {
		t.Fatalf("trace compile failed:\n%s", res.Diags)
	}
	one := m2cc.Simulate(res.Trace, m2cc.SimOptions{Processors: 1,
		Strategy: m2cc.Skeptical, LongBeforeShort: true, BoostResolver: true})
	four := m2cc.Simulate(res.Trace, m2cc.SimOptions{Processors: 4,
		Strategy: m2cc.Skeptical, LongBeforeShort: true, BoostResolver: true})
	if !(four.Makespan <= one.Makespan) {
		t.Fatalf("more processors must not be slower: %f vs %f", four.Makespan, one.Makespan)
	}
}

// TestPublicAPIErrorPath: failing programs surface sorted diagnostics.
func TestPublicAPIErrorPath(t *testing.T) {
	loader := m2cc.NewMapLoader()
	loader.Add("Bad", m2cc.Impl, "MODULE Bad;\nBEGIN\n  x := 1\nEND Bad.")
	res := m2cc.Compile("Bad", loader, m2cc.Options{Workers: 2})
	if !res.Failed() {
		t.Fatal("must fail")
	}
	if !strings.Contains(res.Diags.String(), "undeclared identifier x") {
		t.Fatalf("diags:\n%s", res.Diags)
	}
	if _, err := m2cc.BuildProgram("Bad", loader, m2cc.Options{}); err == nil {
		t.Fatal("BuildProgram must propagate compile errors")
	}
}

// TestDeepNestingIsADiagnostic: a module nested far past the parser's
// bound of 1 000 levels, whether by parentheses, an operator chain,
// statements or types, fails with a positioned diagnostic in the
// concurrent compiler (with and without lint streams) and the
// sequential one, and the sequential linter returns, instead of
// overflowing the stack, which no recover catches.  Past the bound the
// depth does not matter: 3 M parentheses behave the same.
func TestDeepNestingIsADiagnostic(t *testing.T) {
	const n = 5000
	rep := strings.Repeat
	cases := []struct{ name, typ, body, want string }{
		{"parens", "INTEGER", "x := " + rep("(", n) + "1" + rep(")", n), "Deep.mod:5:1007: error: nesting deeper than 1000 levels"},
		{"chain", "INTEGER", "x := 1" + rep(" + 1", n), "Deep.mod:5:"},
		{"statements", "INTEGER", rep("IF x = 0 THEN ", n) + "x := 1" + rep(" END", n), "Deep.mod:5:"},
		{"types", rep("POINTER TO ", n) + "INTEGER", "x := 1", "Deep.mod:2:11010: error: nesting deeper than 1000 levels"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loader := m2cc.NewMapLoader()
			loader.Add("Deep", m2cc.Impl, "MODULE Deep;\nTYPE T = "+tc.typ+";\nVAR x: INTEGER;\nBEGIN\n  "+tc.body+"\nEND Deep.\n")
			check := func(entry string, failed bool, diags string) {
				t.Helper()
				if !failed || !strings.Contains(diags, tc.want) || !strings.Contains(diags, "nesting deeper than 1000 levels") {
					t.Fatalf("%s: failed = %v, want a diagnostic at %q:\n%.2000s", entry, failed, tc.want, diags)
				}
			}
			for _, lint := range []bool{false, true} {
				res := m2cc.Compile("Deep", loader, m2cc.Options{Workers: 2, Check: lint})
				check(fmt.Sprintf("Compile(Check: %v)", lint), res.Failed(), res.Diags.String())
			}
			seqr := m2cc.CompileSequential("Deep", loader)
			check("CompileSequential", seqr.Failed(), seqr.Diags.String())
			m2cc.Lint("Deep", loader)
		})
	}
}

// nestedProcs is a module of n empty procedures, each declared in the
// one before.
func nestedProcs(n int) string {
	var b strings.Builder
	b.WriteString("MODULE Deep;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "PROCEDURE P%d;\n", i)
	}
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&b, "BEGIN END P%d;\n", i)
	}
	b.WriteString("BEGIN END Deep.\n")
	return b.String()
}

// TestDeepProcedureNestingIsADiagnostic: procedures nested to
// parser.MaxProcNesting compile; one level more is a positioned
// diagnostic at the innermost PROCEDURE from the concurrent compiler
// (both heading modes, with and without lint streams), the sequential
// compiler and the linter, and the two compilers report the same.
func TestDeepProcedureNestingIsADiagnostic(t *testing.T) {
	const bound = parser.MaxProcNesting
	for _, n := range []int{bound, bound + 1} {
		loader := m2cc.NewMapLoader()
		loader.Add("Deep", m2cc.Impl, nestedProcs(n))
		want := ""
		if n > bound {
			want = fmt.Sprintf("Deep.mod:%d:1: error: %s\n", n+1, parser.ErrProcNesting)
		}
		seqr := m2cc.CompileSequential("Deep", loader)
		if got := seqr.Diags.String(); got != want {
			t.Fatalf("%d levels: CompileSequential reports\n%s\nwant\n%s", n, got, want)
		}
		for _, hdr := range []m2cc.HeaderMode{m2cc.HeaderShared, m2cc.HeaderReprocess} {
			for _, lint := range []bool{false, true} {
				res := m2cc.Compile("Deep", loader, m2cc.Options{Workers: 2, Headers: hdr, Check: lint})
				if got := res.Diags.String(); got != want || res.Faulted {
					t.Fatalf("%d levels: Compile(Headers: %d, Check: %v) reports\n%s\nwant\n%s", n, hdr, lint, got, want)
				}
			}
		}
		deep := 0
		for _, f := range m2cc.Lint("Deep", loader) {
			if f.Msg == parser.ErrProcNesting {
				deep++
			}
		}
		if wantDeep := min(n-bound, 1); deep != wantDeep {
			t.Fatalf("%d levels: Lint reports %d nesting errors, want %d", n, deep, wantDeep)
		}
	}
}

// TestNestedProceduresCostLinear: from 125 to 500 nested procedures the
// bytes a compilation allocates grow at most 5× (4× is linear), in the
// concurrent compiler and the sequential one.  Scope paths ("M.mod:P:
// P.Q"), whose length grows with the square of the depth, are rendered
// only for exceptions and lint units, and the dotted names of nested
// procedures share their enclosing procedures' bytes.
func TestNestedProceduresCostLinear(t *testing.T) {
	bytes := func(n int, compile func(m2cc.Loader)) uint64 {
		loader := m2cc.NewMapLoader()
		loader.Add("Deep", m2cc.Impl, nestedProcs(n))
		compile(loader) // fills the free lists
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		compile(loader)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		name    string
		compile func(m2cc.Loader)
	}{
		{"Compile", func(l m2cc.Loader) { m2cc.Compile("Deep", l, m2cc.Options{Workers: 2}) }},
		{"CompileSequential", func(l m2cc.Loader) { m2cc.CompileSequential("Deep", l) }},
	} {
		small, large := bytes(125, tc.compile), bytes(500, tc.compile)
		growth := float64(large) / float64(small)
		t.Logf("%s: 125 levels %d B, 500 levels %d B: %.1f×", tc.name, small, large, growth)
		if growth > 5 {
			t.Errorf("%s: bytes grow %.1f× from 125 to 500 nested procedures, want ≤ 5×", tc.name, growth)
		}
	}
}

// siblingProcs is a module of n empty procedures side by side.
func siblingProcs(n int) string {
	var b strings.Builder
	b.WriteString("MODULE Wide;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "PROCEDURE P%d;\nBEGIN END P%d;\n", i, i)
	}
	b.WriteString("BEGIN END Wide.\n")
	return b.String()
}

// importChain is a module importing the last of n interfaces, each of
// which imports the one before it; with twoParents each also imports
// the one before that, so the import graph is a DAG of two-parent
// joins.
func importChain(n int, twoParents bool) (string, m2cc.Loader) {
	loader := m2cc.NewMapLoader()
	loader.Add("I0", m2cc.Def, "DEFINITION MODULE I0;\nCONST c0 = 0;\nEND I0.\n")
	for k := 1; k < n; k++ {
		var text string
		if twoParents && k > 1 {
			text = fmt.Sprintf("DEFINITION MODULE I%d;\nFROM I%d IMPORT c%d;\nFROM I%d IMPORT c%d;\nCONST c%d = c%d - c%d + 1;\nEND I%d.\n",
				k, k-1, k-1, k-2, k-2, k, k-1, k-2, k)
		} else {
			text = fmt.Sprintf("DEFINITION MODULE I%d;\nFROM I%d IMPORT c%d;\nCONST c%d = c%d + 1;\nEND I%d.\n",
				k, k-1, k-1, k, k-1, k)
		}
		loader.Add(fmt.Sprintf("I%d", k), m2cc.Def, text)
	}
	loader.Add("Chain", m2cc.Impl, fmt.Sprintf("MODULE Chain;\nFROM I%d IMPORT c%d;\nVAR x: INTEGER;\nBEGIN\n  x := c%d\nEND Chain.\n",
		n-1, n-1, n-1))
	return "Chain", loader
}

// oneModule is the shape of a module with no imports.
func oneModule(text func(int) string) func(int) (string, m2cc.Loader) {
	return func(n int) (string, m2cc.Loader) {
		loader := m2cc.NewMapLoader()
		text := text(n)
		module := strings.Fields(text)[1]
		module = module[:len(module)-1]
		loader.Add(module, m2cc.Impl, text)
		return module, loader
	}
}

// TestLinearResources: the heap bytes each way of compiling a module
// allocates grow with the number of procedures or interfaces, not
// faster.  Each row's shape is compiled at n and 4n; from one to the
// other the bytes may grow by 5× at most (4× is linear).  The cached
// ways start each compilation from a fresh interface cache.  Wall time
// is logged, not gated: at these sizes a ratio of two timings is
// noisier than the bound.
func TestLinearResources(t *testing.T) {
	const maxGrowth = 5.0
	ways := []struct {
		name string
		run  func(string, m2cc.Loader)
	}{
		{"Compile/1", func(m string, l m2cc.Loader) { m2cc.Compile(m, l, m2cc.Options{Workers: 1}) }},
		{"Compile/2", func(m string, l m2cc.Loader) { m2cc.Compile(m, l, m2cc.Options{Workers: 2}) }},
		{"Compile/2/lint", func(m string, l m2cc.Loader) { m2cc.Compile(m, l, m2cc.Options{Workers: 2, Check: true}) }},
		{"Compile/2/cache", func(m string, l m2cc.Loader) {
			m2cc.Compile(m, l, m2cc.Options{Workers: 2, Cache: m2cc.NewCache()})
		}},
		{"CompileSequential", func(m string, l m2cc.Loader) { m2cc.CompileSequential(m, l) }},
		{"Lint", func(m string, l m2cc.Loader) { m2cc.Lint(m, l) }},
	}
	// measure reports the median of three runs' allocation and wall
	// time, after one run that fills the free lists.
	measure := func(module string, loader m2cc.Loader, run func(string, m2cc.Loader)) (uint64, time.Duration) {
		run(module, loader)
		var bytes [3]uint64
		var times [3]time.Duration
		for i := range bytes {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			run(module, loader)
			times[i] = time.Since(start)
			runtime.ReadMemStats(&after)
			bytes[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(bytes[:])
		slices.Sort(times[:])
		return bytes[1], times[1]
	}
	for _, row := range []struct {
		name  string
		shape func(int) (string, m2cc.Loader)
		n     int
	}{
		{"nested", oneModule(nestedProcs), parser.MaxProcNesting / 4},
		{"sibling", oneModule(siblingProcs), 250},
		{"importchain", func(n int) (string, m2cc.Loader) { return importChain(n, false) }, 200},
		{"importdag", func(n int) (string, m2cc.Loader) { return importChain(n, true) }, 200},
	} {
		for _, way := range ways {
			t.Run(row.name+"/"+way.name, func(t *testing.T) {
				m1, l1 := row.shape(row.n)
				m4, l4 := row.shape(4 * row.n)
				b1, t1 := measure(m1, l1, way.run)
				b4, t4 := measure(m4, l4, way.run)
				growth := float64(b4) / float64(b1)
				t.Logf("n=%d: %d B, %v; 4n=%d: %d B, %v; bytes grow %.1f×, time %.1f×",
					row.n, b1, t1, 4*row.n, b4, t4, growth, float64(t4)/float64(t1))
				if growth > maxGrowth {
					t.Errorf("bytes grow %.1f× from n to 4n, want ≤ %.0f×", growth, maxGrowth)
				}
			})
		}
	}
}

// TestParseStrategyNames covers the exported strategy surface.
func TestParseStrategyNames(t *testing.T) {
	s, err := m2cc.ParseStrategy("optimistic")
	if err != nil || s != m2cc.Optimistic {
		t.Fatalf("%v %v", s, err)
	}
	if _, err := m2cc.ParseStrategy("nope"); err == nil {
		t.Fatal("want error")
	}
}
