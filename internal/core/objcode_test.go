package core_test

import (
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
// exception) and a REAL literal.
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
TYPE Fn = PROCEDURE (INTEGER): INTEGER;
VAR total: INTEGER; wide: [0..5000000000];

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

BEGIN
  total := 0;
  WriteInt(Mix(3) + Mix(4), 0); WriteLn
END Main.
`,
}

// TestPooledSegmentsReplayByteIdentical: a stream-cache warm rebuild
// replays segments whose operands live in all three constant pools.
// The pools are shared with the cache, the code is copied only where a
// registry index moved; listings must equal the cold and sequential
// compiles, and the replayed program must still link and run.
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
		"CALLX     Lib.Note", "CHKRNG    1..10", "CHKRNG    0..5000000000", "PUSHF     0.001", "RAISE     Lib"} {
		if !strings.Contains(want["Main"], frag) {
			t.Fatalf("fixture no longer emits %q:\n%s", frag, want["Main"])
		}
	}
	wantOut := runObjects(t, seqObjs)

	for strat := symtab.Avoidance; strat < symtab.NumStrategies; strat++ {
		for _, workers := range []int{1, 2, 8} {
			for _, hdr := range []core.HeaderMode{core.HeaderShared, core.HeaderReprocess} {
				for _, bs := range []int{1, 256} {
					t.Run(fmt.Sprintf("%s/w%d/hdr%d/bs%d", strat, workers, hdr, bs), func(t *testing.T) {
						opts := core.Options{Workers: workers, Strategy: strat, Headers: hdr, BlockSize: bs,
							StreamCache: streamcache.New(0)}
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
							if got := runObjects(t, objs); got != wantOut {
								t.Fatalf("%s: program printed %q, want %q", name, got, wantOut)
							}
						}
					})
				}
			}
		}
	}
}

func runObjects(t *testing.T, objs []*vm.Object) string {
	t.Helper()
	prog, err := vm.Link(objs, "Main")
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	var out strings.Builder
	if err := vm.NewMachine(prog, nil, &out).Run(); err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	return out.String()
}

// TestOneWorkerSynthStartsFewGoroutines: Synth's 400 procedure streams
// never block on DKY lookups, so at one worker the whole compilation —
// some 800 tasks — must ride a handful of resident worker goroutines
// (handoffs), not one goroutine per task.
func TestOneWorkerSynthStartsFewGoroutines(t *testing.T) {
	loader := source.NewMapLoader()
	workload.GenerateSynth(loader, 400, 2, nil)
	o := obs.New()
	o.Begin(1, "skeptical")
	res := core.Compile("Synth", loader, core.Options{Workers: 1, Obs: o})
	o.Finish()
	if res.Failed() {
		t.Fatal(res.Diags)
	}
	c := o.Dump().Sched
	tasks := c.LocalPops + c.Steals + c.OverflowPops
	if tasks < 500 {
		t.Fatalf("expected on the order of 800 dispatches, saw %d: %+v", tasks, c)
	}
	if c.Goroutines > 8 {
		t.Fatalf("one-worker Synth compile started %d goroutines for %d dispatches (resident workers regressed): %+v",
			c.Goroutines, tasks, c)
	}
}
