package codegen_test

import (
	"strings"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/seq"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
	"m2cc/internal/vm"
)

// runCase is one end-to-end language-behavior check: the module is
// compiled by BOTH compilers, the concurrent one under every DKY
// strategy (their outputs must agree), linked and
// executed.  Exactly one of want/wantErr/wantTrap is set: expected
// stdout, an expected compile-error substring, or an expected runtime
// trap substring.
type runCase struct {
	name     string
	body     string // module body placed inside "MODULE T; ... END T."
	want     string
	wantErr  string
	wantTrap string
}

func (c runCase) src() string { return "MODULE T;\n" + c.body + "\nEND T.\n" }

func runAll(t *testing.T, cases []runCase) {
	t.Helper()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			loader := source.NewMapLoader()
			loader.Add("T", source.Impl, c.src())

			seqr := seq.Compile("T", loader)
			for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
				conc := core.Compile("T", loader, core.Options{Workers: 4, Strategy: strat})
				if seqr.Diags.String() != conc.Diags.String() {
					t.Fatalf("compilers disagree on diagnostics under %s\nseq:\n%s\nconc:\n%s",
						strat, seqr.Diags, conc.Diags)
				}
				if !seqr.Failed() && seqr.Object.Listing() != conc.Object.Listing() {
					t.Fatalf("listings differ under %s\nseq:\n%s\nconc:\n%s", strat, seqr.Object.Listing(), conc.Object.Listing())
				}
			}
			if c.wantErr != "" {
				if !seqr.Failed() {
					t.Fatalf("expected compile error containing %q", c.wantErr)
				}
				if !strings.Contains(seqr.Diags.String(), c.wantErr) {
					t.Fatalf("want error %q, got:\n%s", c.wantErr, seqr.Diags)
				}
				return
			}
			if seqr.Failed() {
				t.Fatalf("compile failed:\n%s", seqr.Diags)
			}
			prog, err := vm.Link([]*vm.Object{seqr.Object}, "T")
			if err != nil {
				t.Fatalf("link: %v", err)
			}
			var out strings.Builder
			err = vm.NewMachine(prog, strings.NewReader("42 7"), &out).Run()
			if c.wantTrap != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantTrap) {
					t.Fatalf("want trap %q, got err=%v output=%q", c.wantTrap, err, out.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v\noutput: %q", err, out.String())
			}
			if out.String() != c.want {
				t.Fatalf("output %q, want %q", out.String(), c.want)
			}
		})
	}
}

func TestArithmetic(t *testing.T) {
	runAll(t, []runCase{
		{name: "integer ops", body: `
VAR a: INTEGER;
BEGIN
  a := 7;
  WriteInt(a + 3, 0); WriteChar(" ");
  WriteInt(a - 10, 0); WriteChar(" ");
  WriteInt(a * 6, 0); WriteChar(" ");
  WriteInt(a DIV 2, 0); WriteChar(" ");
  WriteInt(a MOD 2, 0); WriteLn`,
			want: "10 -3 42 3 1\n"},
		{name: "floor DIV and MOD on negatives", body: `
VAR a, b: INTEGER;
BEGIN
  a := -7; b := 2;
  WriteInt(a DIV b, 0); WriteChar(" ");
  WriteInt(a MOD b, 0); WriteLn`,
			want: "-4 1\n"},
		{name: "real arithmetic", body: `
VAR x: REAL;
BEGIN
  x := 1.5;
  WriteReal(x * 4.0 + 1.0, 0); WriteLn;
  WriteReal(x / 0.5, 0); WriteLn`,
			want: "7\n3\n"},
		{name: "unary minus and ABS", body: `
VAR i: INTEGER; r: REAL;
BEGIN
  i := -5; r := -2.5;
  WriteInt(ABS(i), 0); WriteChar(" ");
  WriteInt(-i, 0); WriteLn;
  WriteReal(ABS(r), 0); WriteLn`,
			want: "5 5\n2.5\n"},
		{name: "division by zero traps", body: `
VAR a, b: INTEGER;
BEGIN
  a := 1; b := 0;
  WriteInt(a DIV b, 0)`,
			wantTrap: "division by zero"},
		{name: "slash on integers is an error", body: `
VAR a: INTEGER;
BEGIN
  a := 4 / 2`,
			wantErr: "use DIV"},
		{name: "mixed int and real is an error", body: `
VAR a: INTEGER;
BEGIN
  a := 1 + 2.5`,
			wantErr: "incompatible"},
	})
}

func TestComparisonsAndBooleans(t *testing.T) {
	runAll(t, []runCase{
		{name: "integer relations", body: `
PROCEDURE B(x: BOOLEAN);
BEGIN
  IF x THEN WriteChar("T") ELSE WriteChar("F") END
END B;
BEGIN
  B(1 < 2); B(2 <= 2); B(3 > 4); B(4 >= 4); B(1 = 2); B(1 # 2); WriteLn`,
			want: "TFFTFT\n"[0:0] + "TTFTFT\n"},
		{name: "short circuit AND", body: `
VAR n: INTEGER;
PROCEDURE Touch(): BOOLEAN;
BEGIN
  INC(n);
  RETURN TRUE
END Touch;
BEGIN
  n := 0;
  IF (1 > 2) AND Touch() THEN END;
  WriteInt(n, 0); WriteLn`,
			want: "0\n"},
		{name: "short circuit OR", body: `
VAR n: INTEGER;
PROCEDURE Touch(): BOOLEAN;
BEGIN
  INC(n);
  RETURN FALSE
END Touch;
BEGIN
  n := 0;
  IF (1 < 2) OR Touch() THEN END;
  WriteInt(n, 0); WriteLn`,
			want: "0\n"},
		{name: "NOT and ampersand", body: `
BEGIN
  IF NOT (1 > 2) & (2 > 1) THEN WriteString("yes") END; WriteLn`,
			want: "yes\n"},
		{name: "char comparisons adapt literals", body: `
VAR c: CHAR;
BEGIN
  c := "m";
  IF ("a" < c) AND (c <= "z") AND (c # "n") THEN WriteString("mid") END; WriteLn`,
			want: "mid\n"},
		{name: "bool compared with int is an error", body: `
BEGIN
  IF TRUE = 1 THEN END`,
			wantErr: "cannot compare"},
	})
}

func TestControlFlow(t *testing.T) {
	runAll(t, []runCase{
		{name: "if elsif else", body: `
VAR i: INTEGER;
BEGIN
  FOR i := 1 TO 4 DO
    IF i = 1 THEN WriteChar("a")
    ELSIF i = 2 THEN WriteChar("b")
    ELSIF i = 3 THEN WriteChar("c")
    ELSE WriteChar("d")
    END
  END;
  WriteLn`,
			want: "abcd\n"},
		{name: "while and repeat", body: `
VAR i, s: INTEGER;
BEGIN
  i := 0; s := 0;
  WHILE i < 5 DO s := s + i; INC(i) END;
  REPEAT DEC(i); s := s * 2 UNTIL i = 0;
  WriteInt(s, 0); WriteLn`,
			want: "320\n"},
		{name: "loop exit", body: `
VAR i: INTEGER;
BEGIN
  i := 0;
  LOOP
    INC(i);
    IF i >= 3 THEN EXIT END
  END;
  WriteInt(i, 0); WriteLn`,
			want: "3\n"},
		{name: "nested loop exit is innermost", body: `
VAR i, j, n: INTEGER;
BEGIN
  n := 0; i := 0;
  LOOP
    INC(i); j := 0;
    LOOP
      INC(j); INC(n);
      IF j = 2 THEN EXIT END
    END;
    IF i = 3 THEN EXIT END
  END;
  WriteInt(n, 0); WriteLn`,
			want: "6\n"},
		{name: "for with BY and downward", body: `
VAR i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 10 TO 0 BY -2 DO s := s + i END;
  WriteInt(s, 0); WriteLn;
  FOR i := 1 TO 7 BY 3 DO WriteInt(i, 2) END;
  WriteLn`,
			want: "30\n 1 4 7\n"},
		{name: "for loop body skipped when empty range", body: `
VAR i, n: INTEGER;
BEGIN
  n := 0;
  FOR i := 5 TO 1 DO INC(n) END;
  WriteInt(n, 0); WriteLn`,
			want: "0\n"},
		{name: "case with ranges and else", body: `
VAR i: INTEGER;
BEGIN
  FOR i := 0 TO 7 DO
    CASE i OF
      0: WriteChar("z")
    | 1, 3: WriteChar("o")
    | 4 .. 6: WriteChar("m")
    ELSE WriteChar("?")
    END
  END;
  WriteLn`,
			want: "zo?ommm?\n"},
		{name: "case without else traps on no match", body: `
VAR i: INTEGER;
BEGIN
  i := 9;
  CASE i OF 1: WriteChar("a") | 2: WriteChar("b") END`,
			wantTrap: "matches no label"},
		{name: "exit outside loop is an error", body: `
BEGIN
  EXIT`,
			wantErr: "EXIT outside of LOOP"},
	})
}

func TestProceduresAndParameters(t *testing.T) {
	runAll(t, []runCase{
		{name: "value vs VAR parameters", body: `
VAR a, b: INTEGER;
PROCEDURE Swap(VAR x, y: INTEGER);
VAR t: INTEGER;
BEGIN
  t := x; x := y; y := t
END Swap;
PROCEDURE Value(x: INTEGER);
BEGIN
  x := 999
END Value;
BEGIN
  a := 1; b := 2;
  Swap(a, b);
  Value(a);
  WriteInt(a, 0); WriteInt(b, 2); WriteLn`,
			want: "2 1\n"},
		{name: "recursion", body: `
PROCEDURE Fact(n: INTEGER): INTEGER;
BEGIN
  IF n <= 1 THEN RETURN 1 END;
  RETURN n * Fact(n - 1)
END Fact;
BEGIN
  WriteInt(Fact(6), 0); WriteLn`,
			want: "720\n"},
		{name: "mutual recursion with forward reference", body: `
PROCEDURE IsEven(n: INTEGER): BOOLEAN;
BEGIN
  IF n = 0 THEN RETURN TRUE END;
  RETURN IsOdd(n - 1)
END IsEven;
PROCEDURE IsOdd(n: INTEGER): BOOLEAN;
BEGIN
  IF n = 0 THEN RETURN FALSE END;
  RETURN IsEven(n - 1)
END IsOdd;
BEGIN
  IF IsEven(10) THEN WriteString("even") END; WriteLn`,
			want: "even\n"},
		{name: "nested procedures see enclosing locals", body: `
PROCEDURE Outer(base: INTEGER): INTEGER;
VAR acc: INTEGER;
  PROCEDURE Add(n: INTEGER);
  BEGIN
    acc := acc + n + base
  END Add;
BEGIN
  acc := 0;
  Add(1); Add(2);
  RETURN acc
END Outer;
BEGIN
  WriteInt(Outer(10), 0); WriteLn`,
			want: "23\n"},
		{name: "two levels of nesting", body: `
PROCEDURE L1(): INTEGER;
VAR a: INTEGER;
  PROCEDURE L2(): INTEGER;
    PROCEDURE L3(): INTEGER;
    BEGIN
      RETURN a * 2
    END L3;
  BEGIN
    RETURN L3() + 1
  END L2;
BEGIN
  a := 5;
  RETURN L2()
END L1;
BEGIN
  WriteInt(L1(), 0); WriteLn`,
			want: "11\n"},
		{name: "function result must be used", body: `
PROCEDURE F(): INTEGER;
BEGIN
  RETURN 1
END F;
BEGIN
  F`,
			wantErr: "result must be used"},
		{name: "proper procedure in expression is an error", body: `
VAR x: INTEGER;
PROCEDURE P;
BEGIN
END P;
BEGIN
  x := P()`,
			wantErr: "returns no value"},
		{name: "function falling off the end traps", body: `
PROCEDURE F(n: INTEGER): INTEGER;
BEGIN
  IF n > 0 THEN RETURN n END
END F;
BEGIN
  WriteInt(F(-1), 0)`,
			wantTrap: "without RETURN"},
		{name: "wrong argument count", body: `
PROCEDURE F(x: INTEGER): INTEGER;
BEGIN
  RETURN x
END F;
VAR a: INTEGER;
BEGIN
  a := F(1, 2)`,
			wantErr: "expects 1 argument"},
		{name: "VAR argument must be a variable", body: `
PROCEDURE P(VAR x: INTEGER);
BEGIN
  x := 1
END P;
BEGIN
  P(42)`,
			wantErr: "requires a variable"},
	})
}

func TestArraysAndRecords(t *testing.T) {
	runAll(t, []runCase{
		{name: "array indexing and assignment copies", body: `
TYPE A = ARRAY [1..5] OF INTEGER;
VAR x, y: A; i: INTEGER;
BEGIN
  FOR i := 1 TO 5 DO x[i] := i * i END;
  y := x;
  x[3] := 0;
  WriteInt(y[3], 0); WriteInt(x[3], 2); WriteLn`,
			want: "9 0\n"},
		{name: "array bounds trap low and high", body: `
TYPE A = ARRAY [2..4] OF INTEGER;
VAR x: A; i: INTEGER;
BEGIN
  i := 5;
  x[i] := 1`,
			wantTrap: "out of bounds"},
		{name: "multi dimensional arrays", body: `
TYPE M = ARRAY [0..2], [0..2] OF INTEGER;
VAR m: M; i, j, s: INTEGER;
BEGIN
  FOR i := 0 TO 2 DO
    FOR j := 0 TO 2 DO m[i, j] := i * 3 + j END
  END;
  s := m[0][0] + m[1, 1] + m[2][2];
  WriteInt(s, 0); WriteLn`,
			want: "12\n"},
		{name: "records and nested fields", body: `
TYPE Inner = RECORD a, b: INTEGER END;
     Outer = RECORD x: Inner; y: INTEGER END;
VAR o, p: Outer;
BEGIN
  o.x.a := 1; o.x.b := 2; o.y := 3;
  p := o;
  o.x.a := 99;
  WriteInt(p.x.a + p.x.b + p.y, 0); WriteLn`,
			want: "6\n"},
		{name: "record assignment type mismatch", body: `
TYPE R1 = RECORD a: INTEGER END;
     R2 = RECORD a: INTEGER END;
VAR x: R1; y: R2;
BEGIN
  x := y`,
			wantErr: "incompatible assignment"},
		{name: "variant records share storage", body: `
TYPE V = RECORD
  CASE tag: INTEGER OF
    0: i: INTEGER
  | 1: c: CHAR
  END
END;
VAR v: V;
BEGIN
  v.tag := 0;
  v.i := 65;
  WriteChar(v.c); WriteLn`,
			want: "A\n"},
		{name: "with statement caches the address once", body: `
TYPE R = RECORD a, b: INTEGER END;
VAR rs: ARRAY [0..1] OF R; i: INTEGER;
BEGIN
  i := 0;
  WITH rs[i] DO
    a := 7;
    i := 1;   (* must not re-evaluate the designator *)
    b := 8
  END;
  WriteInt(rs[0].a, 0); WriteInt(rs[0].b, 2); WriteInt(rs[1].a, 2); WriteLn`,
			want: "7 8 0\n"},
		{name: "nested with shadows outer with", body: `
TYPE R = RECORD a: INTEGER; inner: RECORD a: INTEGER END END;
VAR r: R;
BEGIN
  WITH r DO
    a := 1;
    WITH inner DO a := 2 END
  END;
  WriteInt(r.a, 0); WriteInt(r.inner.a, 2); WriteLn`,
			want: "1 2\n"},
		{name: "unknown field", body: `
TYPE R = RECORD a: INTEGER END;
VAR r: R;
BEGIN
  r.b := 1`,
			wantErr: "has no field"},
		{name: "indexing a non array", body: `
VAR i: INTEGER;
BEGIN
  i[0] := 1`,
			wantErr: "cannot index"},
	})
}

func TestOpenArraysAndStrings(t *testing.T) {
	runAll(t, []runCase{
		{name: "open array HIGH and element access", body: `
VAR a5: ARRAY [0..4] OF INTEGER;
    a3: ARRAY [0..2] OF INTEGER;
PROCEDURE Sum(a: ARRAY OF INTEGER): INTEGER;
VAR i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 0 TO INTEGER(HIGH(a)) DO s := s + a[i] END;
  RETURN s
END Sum;
VAR i: INTEGER;
BEGIN
  FOR i := 0 TO 4 DO a5[i] := 1 END;
  FOR i := 0 TO 2 DO a3[i] := 10 END;
  WriteInt(Sum(a5), 0); WriteInt(Sum(a3), 3); WriteLn`,
			want: "5 30\n"},
		{name: "VAR open array writes through", body: `
VAR a: ARRAY [0..3] OF INTEGER;
PROCEDURE Clear(VAR x: ARRAY OF INTEGER);
VAR i: INTEGER;
BEGIN
  FOR i := 0 TO INTEGER(HIGH(x)) DO x[i] := -1 END
END Clear;
BEGIN
  a[2] := 42;
  Clear(a);
  WriteInt(a[2], 0); WriteLn`,
			want: "-1\n"},
		{name: "open array forwarding", body: `
PROCEDURE Len(a: ARRAY OF CHAR): INTEGER;
BEGIN
  RETURN INTEGER(HIGH(a)) + 1
END Len;
PROCEDURE Via(a: ARRAY OF CHAR): INTEGER;
BEGIN
  RETURN Len(a)
END Via;
BEGIN
  WriteInt(Via("hello"), 0); WriteLn`,
			want: "5\n"},
		{name: "open array bounds trap", body: `
PROCEDURE First(a: ARRAY OF INTEGER): INTEGER;
BEGIN
  RETURN a[5]
END First;
VAR x: ARRAY [0..2] OF INTEGER;
BEGIN
  WriteInt(First(x), 0)`,
			wantTrap: "out of bounds"},
		{name: "string into char array pads with 0C", body: `
VAR buf: ARRAY [0..7] OF CHAR;
VAR i, n: INTEGER;
BEGIN
  buf := "hi";
  n := 0;
  FOR i := 0 TO 7 DO
    IF buf[i] = 0C THEN INC(n) END
  END;
  WriteInt(n, 0); WriteLn;
  WriteString(buf); WriteLn`,
			want: "6\nhi\n"},
		{name: "string too long for array", body: `
VAR buf: ARRAY [0..2] OF CHAR;
BEGIN
  buf := "overflow"`,
			wantErr: "does not fit"},
		{name: "char array element assignment", body: `
VAR buf: ARRAY [0..3] OF CHAR;
BEGIN
  buf := "abcd";
  buf[1] := "X";
  WriteString(buf); WriteLn`,
			want: "aXcd\n"},
	})
}

func TestSets(t *testing.T) {
	runAll(t, []runCase{
		{name: "set operators", body: `
TYPE S = SET OF [0..15];
VAR a, b: S;
PROCEDURE Count(s: S): INTEGER;
VAR i, n: INTEGER;
BEGIN
  n := 0;
  FOR i := 0 TO 15 DO IF i IN s THEN INC(n) END END;
  RETURN n
END Count;
BEGIN
  a := S{1, 2, 3};
  b := S{3, 4};
  WriteInt(Count(a + b), 0);
  WriteInt(Count(a - b), 2);
  WriteInt(Count(a * b), 2);
  WriteInt(Count(a / b), 2);
  WriteLn`,
			want: "4 2 1 3\n"},
		{name: "INCL EXCL and membership", body: `
VAR s: BITSET;
BEGIN
  s := {};
  INCL(s, 5);
  INCL(s, 9);
  EXCL(s, 5);
  IF 9 IN s THEN WriteChar("y") END;
  IF 5 IN s THEN WriteChar("n") END;
  WriteLn`,
			want: "y\n"},
		{name: "set relations", body: `
VAR a, b: BITSET;
BEGIN
  a := {1, 2}; b := {1, 2, 3};
  IF a <= b THEN WriteChar("s") END;
  IF b >= a THEN WriteChar("S") END;
  IF a # b THEN WriteChar("d") END;
  WriteLn`,
			want: "sSd\n"},
		{name: "runtime set constructor with ranges", body: `
VAR s: BITSET; lo, i, n: INTEGER;
BEGIN
  lo := 2;
  s := {lo .. lo + 3, 9};
  n := 0;
  FOR i := 0 TO 31 DO IF i IN s THEN INC(n) END END;
  WriteInt(n, 0); WriteLn`,
			want: "5\n"},
		{name: "set element out of range traps", body: `
VAR s: BITSET; i: INTEGER;
BEGIN
  i := 99;
  INCL(s, i)`,
			wantTrap: "outside 0..63"},
	})
}

func TestEnumsAndSubranges(t *testing.T) {
	runAll(t, []runCase{
		{name: "enum iteration and ORD", body: `
TYPE Day = (Mon, Tue, Wed, Thu, Fri);
VAR d: Day; s: INTEGER;
BEGIN
  s := 0;
  FOR d := Mon TO Fri DO s := s + INTEGER(ORD(d)) END;
  WriteInt(s, 0); WriteLn`,
			want: "10\n"},
		{name: "enum in case", body: `
TYPE Color = (Red, Green, Blue);
VAR c: Color;
BEGIN
  c := Green;
  CASE c OF
    Red: WriteString("r")
  | Green: WriteString("g")
  | Blue: WriteString("b")
  END;
  WriteLn`,
			want: "g\n"},
		{name: "VAL converts ordinals", body: `
TYPE Color = (Red, Green, Blue);
VAR c: Color;
BEGIN
  c := VAL(Color, 2);
  IF c = Blue THEN WriteString("blue") END; WriteLn`,
			want: "blue\n"},
		{name: "subrange assignment checks range", body: `
VAR s: [1..10]; i: INTEGER;
BEGIN
  i := 11;
  s := i`,
			wantTrap: "outside range 1..10"},
		{name: "subrange accepts in-range values", body: `
VAR s: [1..10];
BEGIN
  s := 10;
  WriteInt(s, 0); WriteLn`,
			want: "10\n"},
		{name: "CHR range checks", body: `
VAR i: INTEGER;
BEGIN
  i := 300;
  WriteChar(CHR(i))`,
			wantTrap: "outside range 0..255"},
		{name: "CAP and ODD", body: `
BEGIN
  WriteChar(CAP("q"));
  IF ODD(7) THEN WriteChar("o") END;
  IF ODD(8) THEN WriteChar("x") END;
  WriteLn`,
			want: "Qo\n"},
	})
}

func TestPointersAndNew(t *testing.T) {
	runAll(t, []runCase{
		{name: "NEW dereference and NIL", body: `
TYPE P = POINTER TO RECORD v: INTEGER END;
VAR p, q: P;
BEGIN
  NEW(p);
  p^.v := 5;
  q := p;
  q^.v := q^.v + 1;
  WriteInt(p^.v, 0); WriteLn;
  IF p = q THEN WriteString("same") END; WriteLn;
  p := NIL;
  IF p = NIL THEN WriteString("nil") END; WriteLn`,
			want: "6\nsame\nnil\n"},
		{name: "NIL dereference traps", body: `
TYPE P = POINTER TO INTEGER;
VAR p: P;
BEGIN
  p := NIL;
  WriteInt(p^, 0)`,
			wantTrap: "NIL dereference"},
		{name: "DISPOSE clears the pointer", body: `
TYPE P = POINTER TO INTEGER;
VAR p: P;
BEGIN
  NEW(p);
  DISPOSE(p);
  IF p = NIL THEN WriteString("cleared") END; WriteLn`,
			want: "cleared\n"},
		{name: "linked structure", body: `
TYPE Node = POINTER TO Rec;
     Rec = RECORD v: INTEGER; next: Node END;
VAR head, n: Node; i, s: INTEGER;
BEGIN
  head := NIL;
  FOR i := 1 TO 4 DO
    NEW(n); n^.v := i; n^.next := head; head := n
  END;
  s := 0;
  n := head;
  WHILE n # NIL DO s := s * 10 + n^.v; n := n^.next END;
  WriteInt(s, 0); WriteLn`,
			want: "4321\n"},
		{name: "REF types allocate like pointers", body: `
TYPE R = REF RECORD v: INTEGER END;
VAR r: R;
BEGIN
  NEW(r);
  r^.v := 77;
  WriteInt(r^.v, 0); WriteLn`,
			want: "77\n"},
	})
}

func TestProcedureValues(t *testing.T) {
	runAll(t, []runCase{
		{name: "procedure variables", body: `
TYPE F = PROCEDURE (INTEGER): INTEGER;
VAR f: F;
PROCEDURE Double(x: INTEGER): INTEGER;
BEGIN
  RETURN 2 * x
END Double;
PROCEDURE Square(x: INTEGER): INTEGER;
BEGIN
  RETURN x * x
END Square;
BEGIN
  f := Double;
  WriteInt(f(10), 0);
  f := Square;
  WriteInt(f(10), 4); WriteLn`,
			want: "20 100\n"},
		{name: "procedure value comparisons", body: `
TYPE F = PROCEDURE (INTEGER): INTEGER;
VAR f: F;
PROCEDURE Id(x: INTEGER): INTEGER;
BEGIN
  RETURN x
END Id;
BEGIN
  f := Id;
  IF f = Id THEN WriteString("eq") END;
  WriteLn`,
			want: "eq\n"},
		{name: "signature mismatch rejected", body: `
TYPE F = PROCEDURE (INTEGER): INTEGER;
VAR f: F;
PROCEDURE Two(x, y: INTEGER): INTEGER;
BEGIN
  RETURN x + y
END Two;
BEGIN
  f := Two`,
			wantErr: "incompatible assignment"},
		{name: "open-array formals through a procedure value", body: `
TYPE Op = PROCEDURE (VAR INTEGER, ARRAY OF CHAR): INTEGER;
  Sum = PROCEDURE (VAR ARRAY OF INTEGER): INTEGER;
VAR op: Op; sum: Sum; m: INTEGER; a: ARRAY [1..4] OF INTEGER;
PROCEDURE Len(VAR n: INTEGER; s: ARRAY OF CHAR): INTEGER;
BEGIN
  n := n + 1;
  RETURN HIGH(s) + 1
END Len;
PROCEDURE Total(VAR v: ARRAY OF INTEGER): INTEGER;
VAR i, t: INTEGER;
BEGIN
  t := 0;
  FOR i := 0 TO HIGH(v) DO t := t + v[i] END;
  RETURN t
END Total;
BEGIN
  m := 10;
  WriteInt(Len(m, "xyz"), 0); WriteInt(m, 3);
  op := Len;
  WriteInt(op(m, "xyz"), 3); WriteInt(m, 3);
  a[1] := 1; a[2] := 2; a[3] := 3; a[4] := 4;
  sum := Total;
  WriteInt(sum(a), 3); WriteLn`,
			want: "3 11  3 12 10\n"},
		{name: "open-array element mismatch rejected", body: `
TYPE Op = PROCEDURE (ARRAY OF INTEGER): INTEGER;
VAR op: Op;
PROCEDURE Len(s: ARRAY OF CHAR): INTEGER;
BEGIN
  RETURN HIGH(s) + 1
END Len;
BEGIN
  op := Len`,
			wantErr: "incompatible assignment"},
		{name: "call through NIL procedure traps", body: `
TYPE F = PROCEDURE;
VAR f: F;
BEGIN
  f`,
			wantTrap: "NIL procedure"},
	})
}

func TestExceptions(t *testing.T) {
	runAll(t, []runCase{
		{name: "raise and matching handler", body: `
EXCEPTION E1, E2;
BEGIN
  TRY
    RAISE E2;
    WriteString("skipped")
  EXCEPT
    E1: WriteString("one")
  | E2: WriteString("two")
  END;
  WriteLn`,
			want: "two\n"},
		{name: "exceptions propagate through calls", body: `
EXCEPTION Deep;
PROCEDURE Inner;
BEGIN
  RAISE Deep
END Inner;
PROCEDURE Middle;
BEGIN
  Inner;
  WriteString("unreached")
END Middle;
BEGIN
  TRY
    Middle
  EXCEPT
    Deep: WriteString("caught")
  END;
  WriteLn`,
			want: "caught\n"},
		{name: "unmatched handler reraises", body: `
EXCEPTION A, B;
BEGIN
  TRY
    TRY
      RAISE A
    EXCEPT
      B: WriteString("wrong")
    END
  EXCEPT
    A: WriteString("outer")
  END;
  WriteLn`,
			want: "outer\n"},
		{name: "else handler catches everything", body: `
EXCEPTION A;
BEGIN
  TRY
    RAISE A
  EXCEPT
    ELSE WriteString("else")
  END;
  WriteLn`,
			want: "else\n"},
		{name: "unhandled exception reported", body: `
EXCEPTION Boom;
BEGIN
  RAISE Boom`,
			wantTrap: "unhandled exception"},
		{name: "nested try restores handlers", body: `
EXCEPTION A;
VAR i: INTEGER;
BEGIN
  FOR i := 1 TO 2 DO
    TRY
      RAISE A
    EXCEPT
      A: WriteInt(i, 0)
    END
  END;
  WriteLn`,
			want: "12\n"},
		{name: "raising a non-exception is an error", body: `
VAR x: INTEGER;
BEGIN
  RAISE x`,
			wantErr: "not an exception"},
	})
}

func TestBuiltinsAndConversions(t *testing.T) {
	runAll(t, []runCase{
		{name: "INC DEC with and without step", body: `
VAR i: INTEGER;
BEGIN
  i := 10;
  INC(i); INC(i, 5); DEC(i, 2); DEC(i);
  WriteInt(i, 0); WriteLn`,
			want: "13\n"},
		{name: "INC evaluates designator once", body: `
VAR a: ARRAY [0..1] OF INTEGER; i: INTEGER;
BEGIN
  i := 0;
  a[0] := 5; a[1] := 50;
  INC(a[i], 1);
  WriteInt(a[0], 0); WriteInt(a[1], 3); WriteLn`,
			want: "6 50\n"},
		{name: "FLOAT TRUNC round trip", body: `
VAR r: REAL; i: INTEGER;
BEGIN
  r := FLOAT(7) / 2.0;
  i := INTEGER(TRUNC(r));
  WriteReal(r, 0); WriteChar(" "); WriteInt(i, 0); WriteLn`,
			want: "3.5 3\n"},
		{name: "math builtins", body: `
VAR r: REAL;
BEGIN
  r := sqrt(16.0) + exp(0.0) + cos(0.0);
  WriteReal(r, 0); WriteLn`,
			want: "6\n"},
		{name: "sqrt of negative traps", body: `
VAR r: REAL;
BEGIN
  r := -4.0;
  WriteReal(sqrt(r), 0)`,
			wantTrap: "sqrt of negative"},
		{name: "SIZE and TSIZE", body: `
TYPE R = RECORD a, b, c: INTEGER END;
VAR r: R;
BEGIN
  WriteInt(INTEGER(SIZE(r)), 0); WriteChar(" ");
  WriteInt(INTEGER(TSIZE(R)), 0); WriteLn`,
			want: "12 12\n"},
		{name: "MIN MAX of types", body: `
TYPE S = [3..9];
BEGIN
  WriteInt(INTEGER(MAX(BOOLEAN)), 0);
  WriteInt(INTEGER(MIN(S)), 2);
  WriteLn`,
			want: "1 3\n"},
		{name: "type transfer reinterprets sets", body: `
VAR s: BITSET; i: INTEGER;
BEGIN
  s := {0, 2};
  i := INTEGER(s);
  WriteInt(i, 0); WriteLn`,
			want: "5\n"},
		{name: "type transfer int to real is an error", body: `
VAR r: REAL;
BEGIN
  r := REAL(1)`,
			wantErr: "use FLOAT"},
		{name: "HALT stops cleanly", body: `
BEGIN
  WriteString("before"); WriteLn;
  HALT;
  WriteString("after")`,
			want: "before\n"},
		{name: "ASSERT failure traps", body: `
BEGIN
  ASSERT(1 > 2)`,
			wantTrap: "assertion failed"},
		{name: "ReadInt reads stdin", body: `
VAR a, b: INTEGER;
BEGIN
  ReadInt(a); ReadInt(b);
  WriteInt(a + b, 0); WriteLn`,
			want: "49\n"},
		{name: "WriteInt field width pads", body: `
BEGIN
  WriteInt(7, 4); WriteInt(-13, 6); WriteLn`,
			want: "   7   -13\n"},
	})
}

func TestTextAndLock(t *testing.T) {
	runAll(t, []runCase{
		{name: "TEXT values and comparisons", body: `
VAR t, u: TEXT;
BEGIN
  t := "alpha";
  u := t;
  IF t = u THEN WriteString("same ") END;
  IF t < "beta" THEN WriteString("ordered") END;
  WriteLn;
  WriteString(t); WriteLn`,
			want: "same ordered\nalpha\n"},
		{name: "LOCK runs its body", body: `
VAR m: MUTEX; n: INTEGER;
BEGIN
  n := 1;
  LOCK m DO n := n + 1 END;
  WriteInt(n, 0); WriteLn`,
			want: "2\n"},
	})
}

func TestNameResolutionRules(t *testing.T) {
	runAll(t, []runCase{
		{name: "procedure body sees later module variables", body: `
PROCEDURE Get(): INTEGER;
BEGIN
  RETURN late
END Get;
VAR late: INTEGER;
BEGIN
  late := 42;
  WriteInt(Get(), 0); WriteLn`,
			want: "42\n"},
		{name: "locals shadow module variables", body: `
VAR x: INTEGER;
PROCEDURE P(): INTEGER;
VAR x: INTEGER;
BEGIN
  x := 5;
  RETURN x
END P;
BEGIN
  x := 1;
  WriteInt(P(), 0); WriteInt(x, 2); WriteLn`,
			want: "5 1\n"},
		{name: "undeclared identifier", body: `
BEGIN
  ghost := 1`,
			wantErr: "undeclared identifier ghost"},
		{name: "builtins usable at every depth", body: `
PROCEDURE A;
  PROCEDURE B;
  BEGIN
    WriteInt(INTEGER(ABS(-3)), 0)
  END B;
BEGIN
  B
END A;
BEGIN
  A; WriteLn`,
			want: "3\n"},
		{name: "assignment to constant is an error", body: `
CONST c = 1;
BEGIN
  c := 2`,
			wantErr: "cannot assign"},
		{name: "redeclaration in same scope", body: `
VAR x: INTEGER;
VAR x: CHAR;
BEGIN
END`,
			wantErr: "redeclared"},
	})
}
