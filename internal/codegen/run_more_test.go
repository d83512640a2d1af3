package codegen_test

import (
	"strings"
	"testing"
)

func TestMoreNumericSemantics(t *testing.T) {
	runAll(t, []runCase{
		{name: "hex octal and char literals", body: `
BEGIN
  WriteInt(0FFH, 0); WriteChar(" ");
  WriteInt(17B, 0); WriteChar(" ");
  WriteChar(101C); WriteLn`,
			want: "255 15 A\n"},
		{name: "CARDINAL and LONGINT interoperate", body: `
VAR c: CARDINAL; l: LONGINT; i: INTEGER;
BEGIN
  c := 10; l := 20; i := 30;
  WriteInt(i + INTEGER(c) + INTEGER(l), 0); WriteLn;
  l := c;
  c := CARDINAL(i);
  WriteInt(INTEGER(l) + INTEGER(c), 0); WriteLn`,
			want: "60\n40\n"},
		{name: "real comparison and negative literals", body: `
VAR r: REAL;
BEGIN
  r := -0.5;
  IF r < 0.0 THEN WriteString("neg") END;
  IF ABS(r) >= 0.5 THEN WriteString(" half") END;
  WriteLn`,
			want: "neg half\n"},
		{name: "integer overflow-free small arithmetic chain", body: `
VAR i, acc: INTEGER;
BEGIN
  acc := 1;
  FOR i := 1 TO 12 DO acc := acc * 2 END;
  WriteInt(acc, 0); WriteLn`,
			want: "4096\n"},
		{name: "MOD with negative divisor follows the divisor sign", body: `
BEGIN
  WriteInt(7 MOD (-2), 0); WriteLn`,
			want: "-1\n"},
		{name: "ln and arctan", body: `
VAR r: REAL;
BEGIN
  r := ln(exp(2.0));
  WriteReal(r, 0); WriteChar(" ");
  WriteReal(arctan(0.0), 0); WriteLn`,
			want: "2 0\n"},
	})
}

func TestMoreAggregateSemantics(t *testing.T) {
	runAll(t, []runCase{
		{name: "array of records", body: `
TYPE P = RECORD x, y: INTEGER END;
VAR pts: ARRAY [0..3] OF P; i, s: INTEGER;
BEGIN
  FOR i := 0 TO 3 DO
    pts[i].x := i;
    pts[i].y := i * 10
  END;
  s := 0;
  FOR i := 0 TO 3 DO s := s + pts[i].x + pts[i].y END;
  WriteInt(s, 0); WriteLn`,
			want: "66\n"},
		{name: "record containing array", body: `
TYPE Buf = RECORD n: INTEGER; data: ARRAY [0..7] OF INTEGER END;
VAR b: Buf;
BEGIN
  b.n := 2;
  b.data[0] := 30; b.data[1] := 12;
  WriteInt(b.data[0] + b.data[b.n - 1], 0); WriteLn`,
			want: "42\n"},
		{name: "aggregate value parameter is a copy", body: `
TYPE A = ARRAY [0..2] OF INTEGER;
VAR a: A;
PROCEDURE Mangle(x: A): INTEGER;
BEGIN
  x[0] := 999;
  RETURN x[0]
END Mangle;
BEGIN
  a[0] := 1;
  WriteInt(Mangle(a), 0); WriteInt(a[0], 2); WriteLn`,
			want: "999 1\n"},
		{name: "VAR record parameter mutates caller", body: `
TYPE P = RECORD x: INTEGER END;
VAR p: P;
PROCEDURE Set(VAR q: P);
BEGIN
  q.x := 5
END Set;
BEGIN
  Set(p);
  WriteInt(p.x, 0); WriteLn`,
			want: "5\n"},
		{name: "char subrange array index", body: `
VAR counts: ARRAY ["a".."e"] OF INTEGER; c: CHAR;
BEGIN
  FOR c := "a" TO "e" DO counts[c] := INTEGER(ORD(c)) - INTEGER(ORD("a")) END;
  WriteInt(counts["d"], 0); WriteLn`,
			want: "3\n"},
		{name: "boolean array indexed by enum", body: `
TYPE Day = (Mon, Tue, Wed);
VAR open: ARRAY Day OF BOOLEAN; d: Day; n: INTEGER;
BEGIN
  open[Mon] := TRUE; open[Tue] := FALSE; open[Wed] := TRUE;
  n := 0;
  FOR d := Mon TO Wed DO IF open[d] THEN INC(n) END END;
  WriteInt(n, 0); WriteLn`,
			want: "2\n"},
		{name: "deep pointer chains through records", body: `
TYPE
  P = POINTER TO R;
  R = RECORD v: INTEGER; next: P END;
VAR a, c: P;
BEGIN
  NEW(a); NEW(a^.next); NEW(a^.next^.next);
  a^.v := 1; a^.next^.v := 2; a^.next^.next^.v := 3;
  a^.next^.next^.next := NIL;
  c := a^.next;
  WriteInt(c^.next^.v, 0); WriteLn`,
			want: "3\n"},
	})
}

func TestMoreControlSemantics(t *testing.T) {
	runAll(t, []runCase{
		{name: "exit from loop inside while", body: `
VAR i, n: INTEGER;
BEGIN
  i := 0; n := 0;
  WHILE i < 3 DO
    INC(i);
    LOOP
      INC(n);
      EXIT
    END
  END;
  WriteInt(n, 0); WriteLn`,
			want: "3\n"},
		{name: "return exits nested control structures", body: `
PROCEDURE Find(limit: INTEGER): INTEGER;
VAR i, j: INTEGER;
BEGIN
  FOR i := 0 TO limit DO
    FOR j := 0 TO limit DO
      IF i * j = 12 THEN RETURN i * 100 + j END
    END
  END;
  RETURN -1
END Find;
BEGIN
  WriteInt(Find(10), 0); WriteLn`,
			want: "206\n"},
		{name: "case on characters", body: `
VAR c: CHAR;
BEGIN
  FOR c := "a" TO "f" DO
    CASE c OF
      "a", "e": WriteChar("V")
    | "b" .. "d": WriteChar(".")
    ELSE WriteChar("?")
    END
  END;
  WriteLn`,
			want: "V...V?\n"},
		{name: "repeat runs at least once", body: `
VAR n: INTEGER;
BEGIN
  n := 100;
  REPEAT INC(n) UNTIL TRUE;
  WriteInt(n, 0); WriteLn`,
			want: "101\n"},
		{name: "for control variable value after loop is usable", body: `
VAR i, last: INTEGER;
BEGIN
  last := -1;
  FOR i := 1 TO 3 DO last := i END;
  WriteInt(last, 0); WriteLn`,
			want: "3\n"},
		{name: "deeply nested ifs", body: `
VAR a, b, c: INTEGER;
BEGIN
  a := 1; b := 2; c := 3;
  IF a < b THEN
    IF b < c THEN
      IF a + b = c THEN WriteString("sum") END
    END
  END;
  WriteLn`,
			want: "sum\n"},
	})
}

func TestMoreProcedureSemantics(t *testing.T) {
	runAll(t, []runCase{
		{name: "procedure value as parameter", body: `
TYPE Fn = PROCEDURE (INTEGER): INTEGER;
PROCEDURE Apply(f: Fn; x: INTEGER): INTEGER;
BEGIN
  RETURN f(f(x))
END Apply;
PROCEDURE Inc1(x: INTEGER): INTEGER;
BEGIN
  RETURN x + 1
END Inc1;
BEGIN
  WriteInt(Apply(Inc1, 40), 0); WriteLn`,
			want: "42\n"},
		{name: "array of procedure values", body: `
TYPE Fn = PROCEDURE (INTEGER): INTEGER;
VAR ops: ARRAY [0..1] OF Fn; i, acc: INTEGER;
PROCEDURE Dbl(x: INTEGER): INTEGER;
BEGIN
  RETURN 2 * x
END Dbl;
PROCEDURE Sqr(x: INTEGER): INTEGER;
BEGIN
  RETURN x * x
END Sqr;
BEGIN
  ops[0] := Dbl; ops[1] := Sqr;
  acc := 3;
  FOR i := 0 TO 1 DO acc := ops[i](acc) END;
  WriteInt(acc, 0); WriteLn`,
			want: "36\n"},
		{name: "parameterless PROC variable", body: `
VAR p: PROC; n: INTEGER;
PROCEDURE Bump;
BEGIN
  INC(n)
END Bump;
BEGIN
  n := 0;
  p := Bump;
  p; p;
  WriteInt(n, 0); WriteLn`,
			want: "2\n"},
		{name: "VAR parameter through two levels", body: `
VAR g: INTEGER;
PROCEDURE Inner(VAR x: INTEGER);
BEGIN
  x := x + 1
END Inner;
PROCEDURE Outer(VAR y: INTEGER);
BEGIN
  Inner(y);
  Inner(y)
END Outer;
BEGIN
  g := 10;
  Outer(g);
  WriteInt(g, 0); WriteLn`,
			want: "12\n"},
		{name: "recursion through nested procedure sharing state", body: `
PROCEDURE Count(n: INTEGER): INTEGER;
VAR total: INTEGER;
  PROCEDURE Walk(k: INTEGER);
  BEGIN
    IF k = 0 THEN RETURN END;
    total := total + k;
    Walk(k - 1)
  END Walk;
BEGIN
  total := 0;
  Walk(n);
  RETURN total
END Count;
BEGIN
  WriteInt(Count(4), 0); WriteLn`,
			want: "10\n"},
		{name: "open array of record elements", body: `
TYPE P = RECORD x, y: INTEGER END;
VAR pts: ARRAY [0..2] OF P;
PROCEDURE SumX(a: ARRAY OF P): INTEGER;
VAR i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 0 TO INTEGER(HIGH(a)) DO s := s + a[i].x END;
  RETURN s
END SumX;
VAR i: INTEGER;
BEGIN
  FOR i := 0 TO 2 DO pts[i].x := i + 1; pts[i].y := 0 END;
  WriteInt(SumX(pts), 0); WriteLn`,
			want: "6\n"},
	})
}

func TestMoreErrorDiagnostics(t *testing.T) {
	runAll(t, []runCase{
		{name: "calling a variable", body: `
VAR x: INTEGER;
BEGIN
  x(1)`,
			wantErr: "not"},
		{name: "IN with non-set right operand", body: `
BEGIN
  IF 1 IN 2 THEN END`,
			wantErr: "requires a set"},
		{name: "WITH over a non-record", body: `
VAR i: INTEGER;
BEGIN
  WITH i DO END`,
			wantErr: "requires a record"},
		{name: "FOR over a non-ordinal", body: `
VAR r: REAL;
BEGIN
  FOR r := 1 TO 3 DO END`,
			wantErr: "ordinal"},
		{name: "FOR with zero step", body: `
VAR i: INTEGER;
BEGIN
  FOR i := 1 TO 3 BY 0 DO END`,
			wantErr: "must not be zero"},
		{name: "dereferencing a non-pointer", body: `
VAR i: INTEGER;
BEGIN
  i := i^`,
			wantErr: "cannot dereference"},
		{name: "NEW of a non-pointer", body: `
VAR i: INTEGER;
BEGIN
  NEW(i)`,
			wantErr: "requires a pointer"},
		{name: "case selector must be ordinal", body: `
VAR r: REAL;
BEGIN
  r := 1.0;
  CASE r OF END`,
			wantErr: "ordinal"},
		{name: "string literal too long for CHAR", body: `
VAR c: CHAR;
BEGIN
  c := "ab"`,
			wantErr: "incompatible assignment"},
		{name: "unknown qualified member", body: `
BEGIN
  WriteInt(INTEGER(Nowhere.thing), 0)`,
			wantErr: "undeclared identifier Nowhere"},
	})
}

func TestMixedFeaturePrograms(t *testing.T) {
	runAll(t, []runCase{
		{name: "binary search over a sorted array", body: `
VAR a: ARRAY [0..9] OF INTEGER; i: INTEGER;
PROCEDURE Find(key: INTEGER): INTEGER;
VAR lo, hi, mid: INTEGER;
BEGIN
  lo := 0; hi := 9;
  WHILE lo <= hi DO
    mid := (lo + hi) DIV 2;
    IF a[mid] = key THEN RETURN mid
    ELSIF a[mid] < key THEN lo := mid + 1
    ELSE hi := mid - 1
    END
  END;
  RETURN -1
END Find;
BEGIN
  FOR i := 0 TO 9 DO a[i] := i * 3 END;
  WriteInt(Find(21), 0); WriteInt(Find(22), 3); WriteLn`,
			want: "7 -1\n"},
		{name: "string reversal in place", body: `
VAR buf: ARRAY [0..15] OF CHAR;
PROCEDURE Reverse(VAR s: ARRAY OF CHAR);
VAR i, j: INTEGER; t: CHAR;
BEGIN
  i := 0;
  WHILE (i <= INTEGER(HIGH(s))) AND (s[i] # 0C) DO INC(i) END;
  j := i - 1; i := 0;
  WHILE i < j DO
    t := s[i]; s[i] := s[j]; s[j] := t;
    INC(i); DEC(j)
  END
END Reverse;
BEGIN
  buf := "stressed";
  Reverse(buf);
  WriteString(buf); WriteLn`,
			want: "desserts\n"},
		{name: "gcd with exceptions for bad input", body: `
EXCEPTION BadArgs;
PROCEDURE Gcd(a, b: INTEGER): INTEGER;
BEGIN
  IF (a <= 0) OR (b <= 0) THEN RAISE BadArgs END;
  WHILE b # 0 DO
    a := a MOD b;
    IF a = 0 THEN RETURN b END;
    b := b MOD a
  END;
  RETURN a
END Gcd;
BEGIN
  WriteInt(Gcd(48, 36), 0); WriteLn;
  TRY
    WriteInt(Gcd(-1, 3), 0)
  EXCEPT
    BadArgs: WriteString("bad args")
  END;
  WriteLn`,
			want: "12\nbad args\n"},
		{name: "set-based prime sieve", body: `
TYPE Bits = SET OF [0..63];
VAR composite: Bits; i, j, count: INTEGER;
BEGIN
  composite := Bits{};
  FOR i := 2 TO 63 DO
    IF NOT (i IN composite) THEN
      j := i + i;
      WHILE j <= 63 DO
        INCL(composite, j);
        j := j + i
      END
    END
  END;
  count := 0;
  FOR i := 2 TO 63 DO
    IF NOT (i IN composite) THEN INC(count) END
  END;
  WriteInt(count, 0); WriteLn`,
			want: "18\n"},
	})
}

func TestTryFinally(t *testing.T) {
	runAll(t, []runCase{
		{name: "finally on the normal path", body: `
EXCEPTION E;
BEGIN
  TRY
    WriteChar("b")
  FINALLY
    WriteChar("f")
  END;
  WriteLn`,
			want: "bf\n"},
		{name: "finally after a matched handler", body: `
EXCEPTION E;
BEGIN
  TRY
    RAISE E
  EXCEPT
    E: WriteChar("h")
  FINALLY
    WriteChar("f")
  END;
  WriteLn`,
			want: "hf\n"},
		{name: "finally runs before propagation", body: `
EXCEPTION A, B;
BEGIN
  TRY
    TRY
      RAISE A
    EXCEPT
      B: WriteChar("x")
    FINALLY
      WriteChar("f")
    END
  EXCEPT
    A: WriteChar("o")
  END;
  WriteLn`,
			want: "fo\n"},
		{name: "finally without except propagates after cleanup", body: `
EXCEPTION A;
BEGIN
  TRY
    TRY
      RAISE A
    FINALLY
      WriteChar("c")
    END
  EXCEPT
    A: WriteChar("a")
  END;
  WriteLn`,
			want: "ca\n"},
		{name: "finally with else handler", body: `
EXCEPTION A;
BEGIN
  TRY
    RAISE A
  EXCEPT
    ELSE WriteChar("e")
  FINALLY
    WriteChar("f")
  END;
  WriteLn`,
			want: "ef\n"},
	})
}

// TestPooledOperands covers the operands that moved out of the
// instruction record into the segment's constant pools (strings,
// ChkRange's bounds, REAL literals as bits), from source text through
// both compilers to the machine.
func TestPooledOperands(t *testing.T) {
	runAll(t, []runCase{
		{name: "subrange bounds beyond int32 accept in-range values", body: `
VAR big: [0..5000000000]; l: LONGINT;
BEGIN
  l := 4999999999;
  big := l;
  WriteInt(INTEGER(big), 0); WriteLn`,
			want: "4999999999\n"},
		{name: "subrange bounds beyond int32 still trap", body: `
VAR big: [0..5000000000]; l: LONGINT;
BEGIN
  l := 5000000001;
  big := l`,
			wantTrap: "value 5000000001 outside range 0..5000000000"},
		{name: "distinct subranges in one segment keep their own bounds", body: `
VAR a: [0..1]; b: [0..2]; c: [0..3]; n: INTEGER;
BEGIN
  n := 1;
  a := n; b := n; c := n;
  n := 2;
  c := n; b := n;
  WriteInt(b + c, 0); WriteLn;
  a := n`,
			wantTrap: "value 2 outside range 0..1"},
		{name: "real literals keep every bit", body: `
VAR r: REAL;
BEGIN
  r := 0.1;
  WriteReal(r + 0.2, 0); WriteChar(" ");
  WriteReal(1.0E100, 0); WriteChar(" ");
  WriteReal(-0.0, 0); WriteChar(" ");
  WriteReal(4.9E-324, 0); WriteLn`,
			want: "0.30000000000000004 1E+100 -0 5E-324\n"},
		{name: "quotes and the empty string", body: `
VAR t: TEXT; buf: ARRAY [0..3] OF CHAR;
BEGIN
  WriteString('say "hi"'); WriteString(""); WriteString("it's"); WriteLn;
  t := "";
  IF t = "" THEN WriteString("empty") END;
  buf := "";
  WriteString(buf); WriteString("|"); WriteLn`,
			want: "say \"hi\"it's\nempty|\n"},
		// Storage sizes travel as the 24-bit A operand of COPY, INDEX,
		// NEW and their kin: one past vm.MaxA is an implementation limit,
		// not a size wrapped at 2^31 or 2^24.
		{name: "an array past the limit is diagnosed, not wrapped", body: `
VAR a: ARRAY [0..4294967299] OF INTEGER; x: INTEGER;
BEGIN x := 1; a[3] := 2`,
			wantErr: "T.mod:3:8: error: implementation limit: the size in slots of ARRAY INTEGER[0..4294967299] OF INTEGER exceeds 8 388 607"},
		{name: "an aggregate copy past the limit is diagnosed", body: `
VAR a, b: ARRAY [1..10000000] OF INTEGER;
BEGIN a := b`,
			wantErr: "T.mod:3:11: error: implementation limit: the size in slots of ARRAY INTEGER[1..10000000] OF INTEGER exceeds 8 388 607"},
		{name: "a record past the limit is diagnosed", body: `
TYPE Half = ARRAY [0..4194303] OF INTEGER;
  R = RECORD a, b: Half END;
VAR r: R;
BEGIN r.a[0] := 1`,
			wantErr: "T.mod:4:7: error: implementation limit: the size in slots of a RECORD exceeds 8 388 607"},
		{name: "variables that fill an area past the limit are diagnosed", body: `
TYPE Half = ARRAY [0..4194303] OF INTEGER;
VAR a, b: Half; c: INTEGER;
BEGIN c := 1`,
			wantErr: "T.mod:4:8: error: implementation limit: the size in slots of the variables up to b exceeds 8 388 607"},
		{name: "a type of exactly the limit compiles and runs", body: `
TYPE Big = ARRAY [1..8388607] OF INTEGER;
VAR p, q: POINTER TO Big;
BEGIN
  p := NIL; q := NIL;
  IF p # NIL THEN p^ := q^ END;
  WriteInt(SIZE(Big) DIV 4, 0); WriteLn`,
			want: "8388607\n"},
		{name: "a trap line past the limit is diagnosed, not truncated", body: `
VAR x: INTEGER;
BEGIN
  x := 1;` + strings.Repeat("\n", 8388608) + `x := x DIV x`,
			wantErr: "T.mod:8388613:1: error: implementation limit: operand 8388613 of DIVI in T..body exceeds 8 388 607"},
	})
}
