package m2cc_test

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"m2cc"
	"m2cc/internal/faultinject"
)

// chaosProgram is the fault-injection fixture: three modules with
// enough procedures, imports and lookups that every injection point
// has arrivals — procedure headings for DropFire, definition-module
// compilations for StallLeader/FailInstall, and plenty of symbol
// lookups for PanicLookup.
var chaosProgram = map[string]string{
	"Buffers.def": `
DEFINITION MODULE Buffers;
CONST Cap = 8;
TYPE Buffer;
EXCEPTION Full;
PROCEDURE New(): Buffer;
PROCEDURE Put(b: Buffer; v: INTEGER);
PROCEDURE Take(b: Buffer): INTEGER;
PROCEDURE Count(b: Buffer): INTEGER;
END Buffers.
`,
	"Buffers.mod": `
IMPLEMENTATION MODULE Buffers;
TYPE
  Rep = RECORD
    n: INTEGER;
    a: ARRAY [0..Cap-1] OF INTEGER
  END;
  Buffer = POINTER TO Rep;

PROCEDURE New(): Buffer;
VAR b: Buffer;
BEGIN
  NEW(b);
  b^.n := 0;
  RETURN b
END New;

PROCEDURE Put(b: Buffer; v: INTEGER);
BEGIN
  IF b^.n >= Cap THEN RAISE Full END;
  b^.a[b^.n] := v;
  INC(b^.n)
END Put;

PROCEDURE Take(b: Buffer): INTEGER;
BEGIN
  DEC(b^.n);
  RETURN b^.a[b^.n]
END Take;

PROCEDURE Count(b: Buffer): INTEGER;
BEGIN
  RETURN b^.n
END Count;

END Buffers.
`,
	"Stats.def": `
DEFINITION MODULE Stats;
PROCEDURE Mean3(a, b, c: INTEGER): INTEGER;
END Stats.
`,
	"Stats.mod": `
IMPLEMENTATION MODULE Stats;

PROCEDURE Mean3(a, b, c: INTEGER): INTEGER;
BEGIN
  RETURN (a + b + c) DIV 3
END Mean3;

END Stats.
`,
	"Main.mod": `
MODULE Main;
FROM Buffers IMPORT Put, Take, Count;
IMPORT Buffers, Stats;
VAR b: Buffers.Buffer; v: INTEGER;

PROCEDURE Fill(n: INTEGER);
VAR k: INTEGER;
BEGIN
  FOR k := 1 TO n DO Put(b, (k * 7) MOD 5) END
END Fill;

PROCEDURE Drain(): INTEGER;
VAR sum: INTEGER;
BEGIN
  sum := 0;
  WHILE Count(b) > 0 DO sum := sum + Take(b) END;
  RETURN sum
END Drain;

BEGIN
  b := Buffers.New();
  Fill(6);
  v := Drain();
  WriteInt(v, 0); WriteLn;
  WriteInt(Stats.Mean3(1, 2, 9), 0); WriteLn
END Main.
`,
}

func chaosLoader() *m2cc.MapLoader {
	loader := m2cc.NewMapLoader()
	for name, text := range chaosProgram {
		if base, ok := strings.CutSuffix(name, ".def"); ok {
			loader.Add(base, m2cc.Def, text)
		} else if base, ok := strings.CutSuffix(name, ".mod"); ok {
			loader.Add(base, m2cc.Impl, text)
		}
	}
	return loader
}

// chaosBaseline runs the always-correct sequential compiler and fails
// the test if the fixture itself does not compile cleanly.
func chaosBaseline(t *testing.T, loader m2cc.Loader, module string) (listing, diags string) {
	t.Helper()
	sres := m2cc.CompileSequential(module, loader)
	if sres.Failed() {
		t.Fatalf("chaos fixture %s must compile cleanly:\n%s", module, sres.Diags)
	}
	return sres.Object.Listing(), sres.Diags.String()
}

// chaosSeeds returns the seed list for the seeded matrix: CHAOS_SEEDS
// (comma-separated integers) if set, else a fixed default.
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: bad seed %q: %v", f, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// runChaos compiles module under plan and asserts the differential
// property: whatever the fault did, m2cc.Compile's output and
// diagnostics are byte-identical to the sequential compiler's.
// wantTrip asserts the exact number of points that fired; pass -1 for
// seeded plans, whose arrival index may legitimately exceed the number
// of arrivals (the equality must hold either way).
func runChaos(t *testing.T, loader m2cc.Loader, module string, strat m2cc.Strategy, plan *faultinject.Plan, wantTrip int) {
	t.Helper()
	wantListing, wantDiags := chaosBaseline(t, loader, module)

	opts := m2cc.Options{Workers: 4, Strategy: strat, FaultPlan: plan}

	// PanicCheck kills a static-analysis task and PanicConcMerge kills
	// the merge barrier's interprocedural fixed point, so they only have
	// arrivals when lint streams run.  Check disables the interface
	// cache, which would starve the cache points of arrivals, so it is
	// enabled only for plans that arm one of them.
	if plan.Trigger(faultinject.PanicCheck) > 0 || plan.Trigger(faultinject.PanicConcMerge) > 0 {
		opts.Check = true
	}

	// FailInstall vetoes a cache-closure install, which only happens on
	// a cache hit: warm a cache first so the point has arrivals.
	if plan.Trigger(faultinject.FailInstall) > 0 {
		cache := m2cc.NewCache()
		warm := m2cc.Compile(module, loader, m2cc.Options{Workers: 4, Strategy: strat, Cache: cache})
		if warm.Failed() || warm.Faulted {
			t.Fatalf("cache warm-up failed:\n%s", warm.Diags)
		}
		opts.Cache = cache
	}

	// PanicInstall crashes a cached-stream install task, which only
	// runs on a stream-cache hit: warm a stream cache first so the
	// point has arrivals.
	if plan.Trigger(faultinject.PanicInstall) > 0 {
		scache := m2cc.NewStreamCache(0)
		warm := m2cc.Compile(module, loader, m2cc.Options{Workers: 4, Strategy: strat, StreamCache: scache, Check: opts.Check})
		if warm.Failed() || warm.Faulted {
			t.Fatalf("stream-cache warm-up failed:\n%s", warm.Diags)
		}
		opts.StreamCache = scache
	}

	// StallLeader wedges a leader publishing into a shared cache; give
	// the session a cache to lead so the point has arrivals.
	if plan.Trigger(faultinject.StallLeader) > 0 && opts.Cache == nil {
		opts.Cache = m2cc.NewCache()
	}

	// A tripped StallLeader wedges this session's own leader until
	// Release; un-wedge it as soon as it stalls so the run terminates.
	// (The two-session timeout path has its own test below.)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		select {
		case <-plan.Stalled():
			plan.Release()
		case <-stop:
		}
	}()

	res := m2cc.Compile(module, loader, opts)
	// A steal needs two workers awake at once, which a loaded host does
	// not grant every run; the plan stays armed until its arrival comes,
	// so compile again until the point has had one.
	for i := 0; i < 50 && wantTrip > 0 && plan.Trigger(faultinject.PanicSteal) > 0 && plan.Tripped(faultinject.PanicSteal) == 0; i++ {
		res = m2cc.Compile(module, loader, opts)
	}
	if res.Failed() {
		t.Fatalf("chaos compile failed:\n%s", res.Diags)
	}
	if wantTrip >= 0 {
		tripped := int64(0)
		for _, pt := range faultinject.Points() {
			tripped += plan.Tripped(pt)
		}
		if tripped != int64(wantTrip) {
			t.Fatalf("fault tripped %d times, want %d", tripped, wantTrip)
		}
	}
	if res.FellBack && !res.Faulted {
		t.Fatal("FellBack implies Faulted")
	}
	if got := res.Object.Listing(); got != wantListing {
		t.Fatalf("listing diverges from sequential baseline\ngot:\n%s\nwant:\n%s", got, wantListing)
	}
	if got := res.Diags.String(); got != wantDiags {
		t.Fatalf("diagnostics diverge from sequential baseline\ngot:\n%s\nwant:\n%s", got, wantDiags)
	}
	if opts.Check {
		// A crashed lint stream must degrade to the sequential
		// analyzer without losing or corrupting sibling findings.
		if res.Faulted {
			t.Fatal("a lint fault poisoned the compilation")
		}
		if plan.Tripped(faultinject.PanicCheck) > 0 && !res.CheckFellBack {
			t.Fatal("tripped PanicCheck but CheckFellBack not set")
		}
		if plan.Tripped(faultinject.PanicConcMerge) > 0 && !res.CheckFellBack {
			t.Fatal("tripped PanicConcMerge but CheckFellBack not set")
		}
		want := m2cc.RenderFindings(m2cc.Lint(module, loader))
		if got := m2cc.RenderFindings(res.Findings); got != want {
			t.Fatalf("findings diverge from sequential analyzer\ngot:\n%s\nwant:\n%s", got, want)
		}
	}
}

// TestChaosMatrix hand-arms every injection point under every DKY
// strategy, guaranteeing each fault kind is exercised regardless of
// how the seeded plans happen to land.
func TestChaosMatrix(t *testing.T) {
	loader := chaosLoader()
	plans := []struct {
		name string
		arm  func() *faultinject.Plan
	}{
		{"panic-lookup", func() *faultinject.Plan {
			return faultinject.New().Arm(faultinject.PanicLookup, 5)
		}},
		{"drop-fire", func() *faultinject.Plan {
			return faultinject.New().Arm(faultinject.DropFire, 1)
		}},
		{"fail-install", func() *faultinject.Plan {
			return faultinject.New().Arm(faultinject.FailInstall, 1)
		}},
		{"stall-leader", func() *faultinject.Plan {
			return faultinject.New().Arm(faultinject.StallLeader, 1)
		}},
		{"panic-check", func() *faultinject.Plan {
			return faultinject.New().Arm(faultinject.PanicCheck, 3)
		}},
		{"panic-conc-merge", func() *faultinject.Plan {
			// Kills the merge barrier's interprocedural lockset fixed
			// point mid-flight: the checker must discard the concurrent
			// fact tables and self-recover via the sequential analyzer
			// (CheckFellBack) with byte-identical findings.
			return faultinject.New().Arm(faultinject.PanicConcMerge, 1)
		}},
		{"panic-install", func() *faultinject.Plan {
			// Crashes a warm stream-cache install mid-flight: the
			// half-installed compilation must fault and recover through
			// the sequential fallback, byte-identical.
			return faultinject.New().Arm(faultinject.PanicInstall, 1)
		}},
		{"panic-steal", func() *faultinject.Plan {
			// Trips the first task dispatched by stealing it from
			// another worker's local run queue, before its body runs;
			// recovery must be indistinguishable from any other panic.
			return faultinject.New().Arm(faultinject.PanicSteal, 1)
		}},
		{"panic-split", func() *faultinject.Plan {
			// Kills the Splitter at the second procedure declaration:
			// the main stream's open block holds the first procedure's
			// heading and BodyRef plus the second heading, the first
			// procedure's stream is finished, and the raw queue's reader
			// is mid-block.  The recovery must seal all of it so every
			// parser drains to an EOF before the sequential fallback.
			return faultinject.New().Arm(faultinject.PanicSplit, 2)
		}},
	}
	for strat := m2cc.Avoidance; strat <= m2cc.Optimistic; strat++ {
		for _, p := range plans {
			t.Run(strat.String()+"/"+p.name, func(t *testing.T) {
				runChaos(t, loader, "Main", strat, p.arm(), 1)
			})
		}
	}
}

// TestChaosSeeded runs seed-derived plans (CHAOS_SEEDS overrides the
// default list) under every DKY strategy.
func TestChaosSeeded(t *testing.T) {
	loader := chaosLoader()
	for _, seed := range chaosSeeds(t) {
		for strat := m2cc.Avoidance; strat <= m2cc.Optimistic; strat++ {
			t.Run("seed"+strconv.FormatInt(seed, 10)+"/"+strat.String(), func(t *testing.T) {
				runChaos(t, loader, "Main", strat, faultinject.FromSeed(seed), -1)
			})
		}
	}
}

// TestChaosStalledLeaderTimeout wedges an interface-cache leader in
// one session and checks — through the public API — that a second
// session sharing the cache times out on the foreign leader, compiles
// the interface itself, and still matches the sequential baseline.
func TestChaosStalledLeaderTimeout(t *testing.T) {
	loader := chaosLoader()
	wantListing, _ := chaosBaseline(t, loader, "Main")
	cache := m2cc.NewCache()
	plan := faultinject.New().Arm(faultinject.StallLeader, 1)

	leaderDone := make(chan *m2cc.Result, 1)
	go func() {
		leaderDone <- m2cc.Compile("Main", loader, m2cc.Options{
			Workers: 4, Cache: cache, FaultPlan: plan,
		})
	}()
	select {
	case <-plan.Stalled():
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the stall point")
	}

	waiter := m2cc.Compile("Main", loader, m2cc.Options{
		Workers: 4, Cache: cache, StallTimeout: 20 * time.Millisecond,
	})
	if waiter.Failed() || waiter.Faulted {
		t.Fatalf("waiter must abandon the stalled leader and succeed:\n%s", waiter.Diags)
	}
	if got := waiter.Object.Listing(); got != wantListing {
		t.Fatalf("waiter listing diverges\ngot:\n%s\nwant:\n%s", got, wantListing)
	}

	plan.Release()
	leader := <-leaderDone
	if leader.Failed() || leader.Faulted {
		t.Fatalf("released leader must finish cleanly:\n%s", leader.Diags)
	}
	if got := leader.Object.Listing(); got != wantListing {
		t.Fatalf("leader listing diverges\ngot:\n%s\nwant:\n%s", got, wantListing)
	}
}

// TestChaosBatchFaultIsolation injects a panic into a batch
// compilation: exactly the wounded module falls back, its siblings are
// untouched, and every result matches its sequential baseline.
func TestChaosBatchFaultIsolation(t *testing.T) {
	loader := chaosLoader()
	mods := []string{"Main", "Buffers", "Stats"}
	want := make(map[string]string, len(mods))
	for _, m := range mods {
		want[m], _ = chaosBaseline(t, loader, m)
	}

	plan := faultinject.New().Arm(faultinject.PanicLookup, 5)
	results := m2cc.CompileBatch(mods, loader, m2cc.Options{
		Workers: 4, FaultPlan: plan,
	})
	if plan.Tripped(faultinject.PanicLookup) != 1 {
		t.Fatalf("fault tripped %d times, want 1", plan.Tripped(faultinject.PanicLookup))
	}
	fellBack := 0
	for i, res := range results {
		if res.Failed() {
			t.Fatalf("%s failed:\n%s", mods[i], res.Diags)
		}
		if res.FellBack {
			fellBack++
		}
		if got := res.Object.Listing(); got != want[mods[i]] {
			t.Fatalf("%s diverges from sequential baseline\ngot:\n%s\nwant:\n%s", mods[i], got, want[mods[i]])
		}
	}
	if fellBack != 1 {
		t.Fatalf("%d modules fell back, want exactly the wounded one", fellBack)
	}
}

// chaosTicks looks up identifiers only in statement bodies (its
// headings name no types), so an armed PanicLookup trips inside a
// StmtCG task, after every stream has parsed its body into an arena.
const chaosTicks = `MODULE Ticks;
PROCEDURE A;
BEGIN WriteInt(1, 0); WriteLn END A;
PROCEDURE B;
BEGIN WriteInt(2, 0); WriteLn END B;
BEGIN A; B; WriteInt(3, 0); WriteLn END Ticks.
`

// TestChaosArenaRecycle ends a compilation in each of the three ways
// that leave its statement-tree arenas and keyer record chunks
// unreturned, a StmtCG panic, a Splitter panic and a Cancel while it is
// mid-flight, and follows each at once by a clean compilation of
// another program in the same process.  Its output must equal the
// sequential compiler's: an arena or chunk recycled while the wounded
// compilation still referenced it would corrupt the clean one.
func TestChaosArenaRecycle(t *testing.T) {
	loader := chaosLoader()
	loader.Add("Ticks", m2cc.Impl, chaosTicks)
	for strat := m2cc.Avoidance; strat <= m2cc.Optimistic; strat++ {
		for _, c := range []struct {
			name  string
			point faultinject.Point
			n     int64
		}{{"panic-stmtcg", faultinject.PanicLookup, 2}, {"panic-split", faultinject.PanicSplit, 2}} {
			t.Run(strat.String()+"/"+c.name, func(t *testing.T) {
				want, _ := chaosBaseline(t, loader, "Ticks")
				plan := faultinject.New().Arm(c.point, c.n)
				res := m2cc.Compile("Ticks", loader, m2cc.Options{
					Workers: 4, Strategy: strat, FaultPlan: plan, StreamCache: m2cc.NewStreamCache(0),
				})
				if plan.Tripped(c.point) != 1 || !res.FellBack {
					t.Fatalf("the panic must trip once and fall back (tripped %d, fellBack %v)", plan.Tripped(c.point), res.FellBack)
				}
				if got := res.Object.Listing(); got != want {
					t.Fatalf("fallback listing diverges\ngot:\n%s\nwant:\n%s", got, want)
				}
				compileCleanAfter(t, loader, "Main", strat)
			})
		}
		t.Run(strat.String()+"/cancel", func(t *testing.T) {
			// A stalled interface-cache leader holds Main mid-flight while
			// its own procedure streams parse and generate code.
			plan := faultinject.New().Arm(faultinject.StallLeader, 1)
			cancel := make(chan struct{})
			done := make(chan *m2cc.Result, 1)
			go func() {
				done <- m2cc.Compile("Main", loader, m2cc.Options{
					Workers: 4, Strategy: strat, Cache: m2cc.NewCache(), StreamCache: m2cc.NewStreamCache(0),
					FaultPlan: plan, Cancel: cancel, StallTimeout: 100 * time.Millisecond,
				})
			}()
			select {
			case <-plan.Stalled():
			case <-time.After(10 * time.Second):
				t.Fatal("leader never reached the stall point")
			}
			close(cancel)
			plan.Release()
			if res := <-done; !res.Canceled {
				t.Fatal("mid-flight cancellation must mark the result Canceled")
			}
			compileCleanAfter(t, loader, "Ticks", strat)
		})
	}
}

// compileCleanAfter compiles module concurrently, with static analysis
// and a stream cache on, and requires the listing and findings of the
// sequential tools.
func compileCleanAfter(t *testing.T, loader m2cc.Loader, module string, strat m2cc.Strategy) {
	t.Helper()
	want, _ := chaosBaseline(t, loader, module)
	res := m2cc.Compile(module, loader, m2cc.Options{Workers: 4, Strategy: strat, Check: true, StreamCache: m2cc.NewStreamCache(0)})
	if res.Failed() || res.Faulted || res.CheckFellBack {
		t.Fatalf("clean %s after the fault: faulted=%v checkFellBack=%v\n%s", module, res.Faulted, res.CheckFellBack, res.Diags)
	}
	if got := res.Object.Listing(); got != want {
		t.Fatalf("clean %s diverges from the sequential compiler\ngot:\n%s\nwant:\n%s", module, got, want)
	}
	if got, want := m2cc.RenderFindings(res.Findings), m2cc.RenderFindings(m2cc.Lint(module, loader)); got != want {
		t.Fatalf("clean %s findings diverge from the sequential analyzer\ngot:\n%s\nwant:\n%s", module, got, want)
	}
}
