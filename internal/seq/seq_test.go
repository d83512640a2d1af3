package seq_test

import (
	"strings"
	"testing"

	"m2cc/internal/seq"
	"m2cc/internal/source"
	"m2cc/internal/vm"
)

// runProgram compiles and links the given modules and runs the result,
// returning its output.
func runProgram(t *testing.T, main string, files map[string]string) string {
	t.Helper()
	loader := source.NewMapLoader()
	for name, text := range files {
		kind := source.Impl
		base := name
		if strings.HasSuffix(name, ".def") {
			kind = source.Def
			base = strings.TrimSuffix(name, ".def")
		} else {
			base = strings.TrimSuffix(name, ".mod")
		}
		loader.Add(base, kind, text)
	}
	prog, diags, err := seq.CompileAndLink(main, loader)
	if err != nil {
		t.Fatalf("compile failed: %v\n%s", err, diags)
	}
	var out strings.Builder
	m := vm.NewMachine(prog, nil, &out)
	if err := m.Run(); err != nil {
		t.Fatalf("run failed: %v\noutput so far:\n%s", err, out.String())
	}
	return out.String()
}

func TestHello(t *testing.T) {
	out := runProgram(t, "Hello", map[string]string{
		"Hello.mod": `
MODULE Hello;
BEGIN
  WriteString("hello, world");
  WriteLn
END Hello.
`})
	if out != "hello, world\n" {
		t.Fatalf("got %q", out)
	}
}

func TestArithmeticAndControl(t *testing.T) {
	out := runProgram(t, "Arith", map[string]string{
		"Arith.mod": `
MODULE Arith;
VAR i, sum: INTEGER;

PROCEDURE Fib(n: INTEGER): INTEGER;
BEGIN
  IF n < 2 THEN RETURN n END;
  RETURN Fib(n-1) + Fib(n-2)
END Fib;

BEGIN
  sum := 0;
  FOR i := 1 TO 10 DO
    sum := sum + i
  END;
  WriteInt(sum, 0); WriteLn;
  WriteInt(Fib(10), 0); WriteLn;
  WriteInt((-7) DIV 2, 0); WriteLn;
  WriteInt((-7) MOD 2, 0); WriteLn;
  i := 3;
  CASE i OF
    1:      WriteString("one")
  | 2, 3:   WriteString("two or three")
  | 4 .. 6: WriteString("mid")
  ELSE      WriteString("big")
  END;
  WriteLn
END Arith.
`})
	want := "55\n55\n-4\n1\ntwo or three\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestRecordsArraysSets(t *testing.T) {
	out := runProgram(t, "Data", map[string]string{
		"Data.mod": `
MODULE Data;
TYPE
  Day = (Mon, Tue, Wed, Thu, Fri, Sat, Sun);
  Days = SET OF Day;
  Point = RECORD x, y: INTEGER END;
  Row = ARRAY [0..4] OF INTEGER;
VAR
  p, q: Point;
  r: Row;
  work: Days;
  i: INTEGER;
  d: Day;
BEGIN
  p.x := 3; p.y := 4;
  q := p;
  WITH q DO
    WriteInt(x + y, 0); WriteLn
  END;
  FOR i := 0 TO 4 DO r[i] := i * i END;
  WriteInt(r[3], 0); WriteLn;
  work := Days{Mon .. Fri};
  work := work - Days{Wed};
  i := 0;
  FOR d := Mon TO Sun DO
    IF d IN work THEN INC(i) END
  END;
  WriteInt(i, 0); WriteLn
END Data.
`})
	want := "7\n9\n4\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestPointersAndNestedProcs(t *testing.T) {
	out := runProgram(t, "List", map[string]string{
		"List.mod": `
MODULE List;
TYPE
  Ptr = POINTER TO Node;
  Node = RECORD val: INTEGER; next: Ptr END;
VAR head: Ptr;

PROCEDURE Push(v: INTEGER);
VAR n: Ptr;
BEGIN
  NEW(n);
  n^.val := v;
  n^.next := head;
  head := n
END Push;

PROCEDURE Sum(): INTEGER;
VAR total: INTEGER;

  PROCEDURE Walk(p: Ptr);
  BEGIN
    IF p # NIL THEN
      total := total + p^.val;
      Walk(p^.next)
    END
  END Walk;

BEGIN
  total := 0;
  Walk(head);
  RETURN total
END Sum;

VAR k: INTEGER;
BEGIN
  head := NIL;
  FOR k := 1 TO 5 DO Push(k * 10) END;
  WriteInt(Sum(), 0); WriteLn
END List.
`})
	if out != "150\n" {
		t.Fatalf("got %q", out)
	}
}

func TestSeparateModules(t *testing.T) {
	out := runProgram(t, "Main", map[string]string{
		"Math.def": `
DEFINITION MODULE Math;
CONST Base = 100;
VAR calls: INTEGER;
PROCEDURE Triple(x: INTEGER): INTEGER;
END Math.
`,
		"Math.mod": `
IMPLEMENTATION MODULE Math;
PROCEDURE Triple(x: INTEGER): INTEGER;
BEGIN
  INC(calls);
  RETURN 3 * x
END Triple;
BEGIN
  calls := 0
END Math.
`,
		"Main.mod": `
MODULE Main;
FROM Math IMPORT Triple;
IMPORT Math;
BEGIN
  WriteInt(Triple(Math.Base) + Math.Triple(1), 0); WriteLn;
  WriteInt(Math.calls, 0); WriteLn
END Main.
`})
	want := "303\n2\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestExceptions(t *testing.T) {
	out := runProgram(t, "Exc", map[string]string{
		"Exc.mod": `
MODULE Exc;
EXCEPTION Overflow, Underflow;
VAR depth: INTEGER;

PROCEDURE Push;
BEGIN
  IF depth >= 2 THEN RAISE Overflow END;
  INC(depth)
END Push;

BEGIN
  depth := 0;
  TRY
    Push; Push; Push;
    WriteString("not reached")
  EXCEPT
    Underflow: WriteString("under")
  | Overflow:  WriteString("over")
  END;
  WriteLn;
  WriteInt(depth, 0); WriteLn
END Exc.
`})
	want := "over\n2\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestOpenArraysAndStrings(t *testing.T) {
	out := runProgram(t, "Str", map[string]string{
		"Str.mod": `
MODULE Str;
VAR buf: ARRAY [0..15] OF CHAR;

PROCEDURE Count(s: ARRAY OF CHAR): INTEGER;
VAR i, n: INTEGER;
BEGIN
  n := 0;
  FOR i := 0 TO INTEGER(HIGH(s)) DO
    IF s[i] # 0C THEN INC(n) END
  END;
  RETURN n
END Count;

BEGIN
  buf := "abc";
  WriteInt(Count(buf), 0); WriteLn;
  WriteInt(Count("hello"), 0); WriteLn;
  WriteString(buf); WriteLn
END Str.
`})
	want := "3\n5\nabc\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestCompileErrors(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("Bad", source.Impl, `
MODULE Bad;
VAR x: INTEGER;
BEGIN
  x := y + 1;
  x := "not a number"
END Bad.
`)
	res := seq.Compile("Bad", loader)
	if !res.Failed() {
		t.Fatal("expected compile errors")
	}
	text := res.Diags.String()
	if !strings.Contains(text, "undeclared identifier y") {
		t.Errorf("missing undeclared-identifier error:\n%s", text)
	}
	if !strings.Contains(text, "incompatible assignment") {
		t.Errorf("missing assignment error:\n%s", text)
	}
}

func TestCompileAndLinkRunsWholeProgram(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("Lib", source.Def, "DEFINITION MODULE Lib;\nPROCEDURE Three(): INTEGER;\nEND Lib.")
	loader.Add("Lib", source.Impl, `IMPLEMENTATION MODULE Lib;
PROCEDURE Three(): INTEGER;
BEGIN
  RETURN 3
END Three;
END Lib.`)
	loader.Add("Top", source.Impl, `MODULE Top;
IMPORT Lib;
BEGIN
  WriteInt(Lib.Three() * 14, 0); WriteLn
END Top.`)
	prog, diags, err := seq.CompileAndLink("Top", loader)
	if err != nil {
		t.Fatalf("%v\n%s", err, diags)
	}
	var out strings.Builder
	if err := vm.NewMachine(prog, nil, &out).Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "42\n" {
		t.Fatalf("got %q", out.String())
	}
}

func TestCompileAndLinkPropagatesErrors(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("Top", source.Impl, "MODULE Top;\nBEGIN\n  nope := 1\nEND Top.")
	if _, _, err := seq.CompileAndLink("Top", loader); err == nil {
		t.Fatal("errors must propagate")
	}
	if _, _, err := seq.CompileAndLink("Missing", loader); err == nil {
		t.Fatal("missing main must fail")
	}
}

func TestSequentialCyclicImportDiagnosed(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("A", source.Def, "DEFINITION MODULE A;\nFROM B IMPORT x;\nCONST y = x;\nEND A.")
	loader.Add("B", source.Def, "DEFINITION MODULE B;\nFROM A IMPORT y;\nCONST x = y;\nEND B.")
	loader.Add("C", source.Impl, "MODULE C;\nFROM A IMPORT y;\nEND C.")
	res := seq.Compile("C", loader)
	if !res.Failed() {
		t.Fatal("cyclic imports must fail")
	}
	if !strings.Contains(res.Diags.String(), "import cycle") {
		t.Fatalf("missing cycle diagnostic:\n%s", res.Diags)
	}
}

func TestModuleNameMustMatchFile(t *testing.T) {
	loader := source.NewMapLoader()
	loader.Add("Wrong", source.Impl, "MODULE Other;\nEND Other.")
	res := seq.Compile("Wrong", loader)
	if !strings.Contains(res.Diags.String(), "does not match") {
		t.Fatalf("missing name-mismatch diagnostic:\n%s", res.Diags)
	}
}
