package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/obs"
	"m2cc/internal/seq"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
	"m2cc/internal/vm"
	"m2cc/internal/workload"
)

// pooledProgram puts every pooled operand kind into single segments:
// string literals (one empty), external calls and an external procedure
// value, subrange checks with a bound past int32, next to the operands
// the stream cache relocates (local procedure values, globals, an
// exception) and a REAL literal.  Wide holds the operands that do not
// fit an instruction's two int32 fields: integer constants at the int32
// boundaries and past them, a set constant using bit 63, REAL literals,
// an array indexed from beyond int32 and a subrange with both bounds
// wide.  The mode read from the input picks which of its traps fires.
var pooledProgram = map[string]string{
	"Lib.def": `
DEFINITION MODULE Lib;
EXCEPTION Bad;
PROCEDURE Twice(x: INTEGER): INTEGER;
PROCEDURE Note(x: INTEGER);
END Lib.
`,
	"Lib.mod": `
IMPLEMENTATION MODULE Lib;
PROCEDURE Twice(x: INTEGER): INTEGER;
BEGIN
  RETURN 2 * x
END Twice;
PROCEDURE Note(x: INTEGER);
BEGIN
  WriteInt(x, 0); WriteString(";")
END Note;
BEGIN
END Lib.
`,
	"Main.mod": `
MODULE Main;
IMPORT Lib;
TYPE Fn = PROCEDURE (INTEGER): INTEGER; Bits = SET OF [0..63];
CONST Top = Bits{63}; Ends = Bits{0, 63}; Above = 2147483648; Below = -2147483649;
VAR total, mode: INTEGER; wide: [0..5000000000];
  far: ARRAY [5000000000..5000000003] OF INTEGER; both: [-5000000000..5000000000];

PROCEDURE Half(x: INTEGER): INTEGER;
BEGIN
  RETURN x DIV 2
END Half;

PROCEDURE Mix(n: INTEGER): INTEGER;
VAR f: Fn; small: [1..10]; r: REAL;
BEGIN
  WriteString('mix "'); WriteString(""); WriteString('"'); WriteLn;
  f := Lib.Twice;
  small := n;
  wide := f(small);
  f := Half;
  r := 2.5;
  IF r > 1.0E-3 THEN total := total + f(Lib.Twice(INTEGER(wide))) END;
  Lib.Note(total);
  IF total > 1000 THEN RAISE Lib.Bad END;
  RETURN total
END Mix;

PROCEDURE Wide;
VAR l: LONGINT; i: INTEGER; s: Bits; r: REAL;
BEGIN
  i := MAX(INTEGER); WriteInt(i, 0); WriteString(" ");
  i := MIN(INTEGER); WriteInt(i, 0); WriteString(" ");
  l := Above; WriteInt(INTEGER(l - 1), 0); WriteString(" ");
  l := Below; WriteInt(INTEGER(l + 1), 0); WriteString(" ");
  l := 2147483648 * 4; WriteInt(INTEGER(l), 0); WriteString(" ");
  l := -9223372036854775807; WriteInt(INTEGER(l), 0); WriteLn;
  s := Top; IF (63 IN s) AND NOT (0 IN s) THEN WriteString("top ") END;
  s := Ends - Top; IF s = Bits{0} THEN WriteString("ends") END; WriteLn;
  r := 1.5E300; WriteReal(r, 0); WriteString(" "); WriteReal(-2.5E-300, 0); WriteLn;
  far[5000000000] := 1; far[5000000003] := 4; l := 5000000002; far[l] := 3;
  WriteInt(far[5000000000] + far[l] + far[5000000003], 0); WriteLn;
  both := -5000000000; both := 5000000000; l := both; WriteInt(INTEGER(l), 0); WriteLn;
  IF mode = 1 THEN l := 4999999999; far[l] := 9 END;
  IF mode = 2 THEN l := 5000000004; WriteInt(far[l], 0) END;
  IF mode = 3 THEN l := -5000000001; both := l END;
  IF mode = 4 THEN l := 5000000001; both := l END
END Wide;

BEGIN
  total := 0;
  WriteInt(Mix(3) + Mix(4), 0); WriteLn;
  ReadInt(mode); Wide
END Main.
`,
}

// TestPooledSegmentsReplayByteIdentical: a stream-cache warm rebuild
// replays segments whose operands live in all three constant pools.
// The pools are shared with the cache, the code is copied only where a
// registry index moved; listings must equal the cold and sequential
// compiles, and the replayed program must still link and run — in every
// mode, to the same output and the same trap.
func TestPooledSegmentsReplayByteIdentical(t *testing.T) {
	loader := testLoader(pooledProgram)
	mods := []string{"Main", "Lib"}
	want := make(map[string]string)
	var seqObjs []*vm.Object
	for _, m := range mods {
		res := seq.Compile(m, loader)
		if res.Failed() {
			t.Fatalf("%s: %s", m, res.Diags)
		}
		want[m] = res.Object.Listing()
		seqObjs = append(seqObjs, res.Object)
	}
	for _, frag := range []string{`PUSHS     "mix \""`, `PUSHS     ""`, "PUSHPROC  Lib.Twice", "PUSHPROC  Main.Half",
		"CALLX     Lib.Note", "CHKRNG    1..10", "CHKRNG    0..5000000000", "PUSHF     0.001", "RAISE     Lib",
		"PUSHI     2147483647\n", "PUSHI     -2147483648\n", "PUSHI     2147483648\n", "PUSHI     -2147483649\n",
		"PUSHI     -9223372036854775808\n", "PUSHF     1.5E+300", "PUSHF     2.5E-300",
		"INDEX     lo=5000000000 elems=4 size=1", "CHKRNG    -5000000000..5000000000"} {
		if !strings.Contains(want["Main"], frag) {
			t.Fatalf("fixture no longer emits %q:\n%s", frag, want["Main"])
		}
	}
	var wantOut [numModes]string
	for mode := range wantOut {
		wantOut[mode] = runObjects(t, seqObjs, mode)
	}
	const wideOut = "2147483647 -2147483648 2147483647 -2147483648 8589934592 -9223372036854775807\n" +
		"top ends\n1.5E+300 -2.5E-300\n8\n5000000000\n"
	for mode, trap := range []string{"", "array index 4999999999 out of bounds [5000000000..5000000003]",
		"array index 5000000004 out of bounds [5000000000..5000000003]",
		"value -5000000001 outside range -5000000000..5000000000", "value 5000000001 outside range -5000000000..5000000000"} {
		if !strings.Contains(wantOut[mode], wideOut) || !strings.HasSuffix(wantOut[mode], "trap: "+trap) {
			t.Fatalf("mode %d: sequential program printed %q, want %q then trap %q", mode, wantOut[mode], wideOut, trap)
		}
	}

	for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
		for _, workers := range []int{1, 2, 8} {
			for _, hdr := range []core.HeaderMode{core.HeaderShared, core.HeaderReprocess} {
				for _, bs := range []int{1, 256} {
					t.Run(fmt.Sprintf("%s/w%d/hdr%d/bs%d", strat, workers, hdr, bs), func(t *testing.T) {
						opts := core.Options{Workers: workers, Strategy: strat, Headers: hdr,
							StreamCache: streamcache.New(0)}
						core.SetBlockSize(t, bs)
						for pass, name := range []string{"cold", "warm"} {
							var objs []*vm.Object
							for _, m := range mods {
								res := core.Compile(m, loader, opts)
								if got := res.Object.Listing(); got != want[m] {
									t.Fatalf("%s %s: listing differs from sequential\ngot:\n%s\nwant:\n%s", name, m, got, want[m])
								}
								if ta := res.StreamCache; pass == 1 && (ta == nil || ta.Misses != 0 || ta.Installed == 0) {
									t.Fatalf("warm %s did not replay from the cache: %+v", m, ta)
								}
								objs = append(objs, res.Object)
							}
							for mode, want := range wantOut {
								if got := runObjects(t, objs, mode); got != want {
									t.Fatalf("%s mode %d: program printed %q, want %q", name, mode, got, want)
								}
							}
						}
					})
				}
			}
		}
	}
}

// numModes is the number of inputs pooledProgram's Main distinguishes.
const numModes = 5

// runObjects links and runs Main with mode as its input, and returns
// what it printed, then "trap: " and the runtime error's message (empty
// when it ran to completion).
func runObjects(t *testing.T, objs []*vm.Object, mode int) string {
	t.Helper()
	prog, err := vm.Link(objs, "Main")
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	var out strings.Builder
	err = vm.NewMachine(prog, strings.NewReader(fmt.Sprint(mode)), &out).Run()
	var rerr *vm.RuntimeError
	if err != nil && !errors.As(err, &rerr) {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	if rerr != nil {
		return out.String() + "trap: " + rerr.Msg
	}
	return out.String() + "trap: "
}

// TestOneWorkerSynthStartsFewGoroutines: Synth's 400 procedure streams
// never block on DKY lookups, so at one worker the whole compilation —
// some 800 tasks — must ride a handful of resident worker goroutines
// (handoffs), not one goroutine per task.
func TestOneWorkerSynthStartsFewGoroutines(t *testing.T) {
	loader := source.NewMapLoader()
	workload.GenerateSynth(loader, 400, 2, nil)
	o := obs.New()
	res := core.Compile("Synth", loader, core.Options{Workers: 1, Obs: o})
	if res.Failed() {
		t.Fatal(res.Diags)
	}
	c := o.Profile().Sched
	tasks := c.Dispatches
	if tasks < 500 {
		t.Fatalf("expected on the order of 800 dispatches, saw %d: %+v", tasks, c)
	}
	if c.Goroutines > 8 {
		t.Fatalf("one-worker Synth compile started %d goroutines for %d dispatches (resident workers regressed): %+v",
			c.Goroutines, tasks, c)
	}
}
