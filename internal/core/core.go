// Package core is the concurrent Modula-2+ compiler: the paper's
// primary contribution, wiring streams and tasks exactly as Figure 5
// describes.
//
// A compilation of module M begins with the lexical analysis of M.mod;
// the compiler "optimistically anticipates the existence of a file
// M.def and tries to start processing this file as soon as possible"
// (§3).  The main token stream feeds the Splitter and Importer tasks;
// the Importer starts a stream per directly or indirectly imported
// definition module (a once-only table deduplicates); the Splitter
// starts a stream per procedure.  Each stream runs 2–5 tasks — Lexor,
// Importer, Splitter, Parser/Declarations-Analyzer, Statement-Analyzer/
// Code-Generator — under the Supervisor, and a final Merge task
// concatenates the per-stream code segments into the object.
package core

import (
	"sort"
	"sync"
	"time"

	"m2cc/internal/ast"
	"m2cc/internal/check"
	"m2cc/internal/codegen"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/event"
	"m2cc/internal/faultinject"
	"m2cc/internal/ifacecache"
	"m2cc/internal/impscan"
	"m2cc/internal/lexer"
	"m2cc/internal/obs"
	"m2cc/internal/parser"
	"m2cc/internal/pool"
	"m2cc/internal/sched"
	"m2cc/internal/sema"
	"m2cc/internal/source"
	"m2cc/internal/splitter"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
	"m2cc/internal/vm"
)

// DefaultStallTimeout bounds waits on events owned by foreign
// compilations (interface-cache leaders in other sessions) when
// Options.StallTimeout is zero.  A healthy leader publishes or fails
// its entry in well under a second; a leader silent this long is
// treated as wedged and the waiter compiles the interface itself.
const DefaultStallTimeout = 30 * time.Second

// HeaderMode selects how procedure headings are shared between parent
// and child scopes (§2.4).
type HeaderMode uint8

const (
	// HeaderShared is alternative 1 (the paper's choice): the parent
	// processes the heading and copies the entries into the child scope;
	// the child stream starts only once its heading is processed.
	HeaderShared HeaderMode = iota
	// HeaderReprocess is alternative 3: parent and child each process
	// the heading, trading ~3% redundant work for no sharing.
	HeaderReprocess
)

// LongProcTokens is the stream size (in tokens) from which a
// procedure's statement-analysis/code-generation task is classed as
// "long" and therefore scheduled before short ones (§2.3.4).
const LongProcTokens = 300

// Options configure one concurrent compilation.
type Options struct {
	// Workers is the number of worker slots — "one compiler process for
	// each real hardware processor" (§2.3.2).
	Workers int
	// Strategy selects DKY handling (default Skeptical).
	Strategy symtab.Strategy
	// Headers selects §2.4 heading sharing (default HeaderShared).
	Headers HeaderMode
	// CollectStats enables the Table 2 lookup statistics.
	CollectStats bool
	// Trace attaches a schedule-independent trace recorder; collect
	// traces with Workers=1 for deterministic replays.
	Trace bool
	// BlockSize overrides the token-queue block size (tests).
	BlockSize int
	// Cache, when non-nil, shares completed definition-module
	// compilations across compilations: the once-only interface table
	// consults it before spawning a def stream, and publishes cleanly
	// compiled interfaces back.  Caching is correctness-transparent —
	// diagnostics and listings are byte-identical with or without it.
	Cache *ifacecache.Cache
	// StreamCache, when non-nil, enables incremental recompilation at
	// stream granularity: each procedure stream (and the module body)
	// is keyed by a content hash of its token layout, its enclosing
	// declarations, and the compilation's interface closure; hits
	// replay the stream's cached object code, diagnostics, and lint
	// facts instead of re-running its parse/analysis/codegen tasks,
	// and fresh streams are published back.  Caching is correctness-
	// transparent — output is byte-identical to a cold build.  Unlike
	// Cache, the stream cache composes with Check (fact tables are
	// part of the cached payload).  The sequential compiler ignores
	// it.
	StreamCache *streamcache.Cache
	// StallTimeout bounds how long any task may wait on an event owned
	// by a foreign compilation (another session's interface-cache
	// leader).  On expiry the waiter abandons the cache entry and
	// compiles the interface itself, mirroring the cache's
	// failed-leader retry.  Zero selects DefaultStallTimeout; negative
	// disables the bound (waits forever, the pre-fault-tolerance
	// behavior).
	StallTimeout time.Duration
	// Check runs the concurrent static-analysis (lint) passes alongside
	// the compilation: one KindAnalysis task per stream publishes a
	// fact table, and a barrier-gated merge task joins them into
	// Result.Findings.  Lint compilations bypass the interface cache —
	// a cached interface install carries no ASTs to analyze.
	Check bool
	// FaultPlan arms the compiler's deterministic fault-injection
	// points (see internal/faultinject).  Production callers leave it
	// nil, which reduces every injection site to a pointer check.
	FaultPlan *faultinject.Plan
	// Obs, when non-nil, attaches the live-observability layer
	// (internal/obs): wall-clock spans for every Supervisor task,
	// fault and watchdog markers, scheduler and cache metrics.  One
	// Observer may span a whole CompileBatch.  Nil costs a pointer
	// check per scheduler transition.
	Obs *obs.Observer
	// Cancel, when non-nil, aborts the compilation when the channel is
	// closed — guards: nothing itself; it is a read-only broadcast
	// (pass a context's Done channel to propagate a deadline):
	// no new stream does work, blocked tasks unwind through the
	// panic-isolation teardown, every worker slot is released, and any
	// interface-cache entries this compilation led are failed so
	// waiters in other sessions retry instead of stranding.  The
	// Result comes back with Canceled set and must be discarded —
	// cancellation asks the compiler to stop, not to answer.
	Cancel <-chan struct{}
}

// Result is the outcome of one concurrent compilation.
type Result struct {
	Object  *vm.Object
	Diags   *diag.Bag
	Files   *source.Set
	Stats   *symtab.Stats
	Trace   *ctrace.Trace
	Streams int // main module + procedures + imported interfaces (Table 1)

	// Faulted marks a poisoned result: a stream task panicked or the
	// deadlock watchdog had to force-fire events, so the object program
	// and diagnostics may be incomplete.  Callers that need a correct
	// answer re-run the module through the sequential compiler
	// (m2cc.Compile does this transparently).
	Faulted bool
	// FellBack reports that this result was produced by the sequential
	// fallback after a faulted concurrent attempt (set by m2cc, never
	// by core.Compile itself).
	FellBack bool
	// Canceled reports that Options.Cancel fired before the
	// compilation finished: the object and diagnostics are partial and
	// must be discarded.  Canceled results never take the sequential
	// fallback — the request was abandoned, not wounded.
	Canceled bool

	// StreamCache is this compilation's stream-cache traffic
	// (Options.StreamCache); nil when no stream cache was attached.
	StreamCache *streamcache.Tally

	// Findings holds the static-analysis findings (Options.Check),
	// sorted and deduplicated; byte-identical to the sequential
	// analyzer's output under every strategy and worker count.
	Findings []diag.Diagnostic
	// CheckFellBack reports that an analysis task panicked and the
	// findings were recomputed by the sequential analyzer over the
	// registered units.  The compilation itself is unaffected.
	CheckFellBack bool
}

// Failed reports whether the compilation produced errors.
func (r *Result) Failed() bool { return r.Diags.HasErrors() }

// driver owns the shared state of one concurrent compilation.
type driver struct {
	opts   Options
	loader source.Loader
	module string

	files *source.Set
	diags *diag.Bag
	tab   *symtab.Table
	reg   *vm.Registry
	rec   *ctrace.Recorder
	sup   *sched.Supervisor

	cache  *ifacecache.Cache
	inject *faultinject.Plan
	obs    *obs.Observer
	stall  time.Duration // resolved StallTimeout (0 = unbounded)

	check *check.Checker // non-nil when Options.Check

	// Stream-cache machinery (Options.StreamCache; all nil/zero when
	// disabled).  scache, keyer, verdictEv and scacheBase are set before
	// any task spawns and immutable after; the per-stream verdict state
	// below lives under d.mu.
	scache     *streamcache.Cache
	keyer      *streamcache.Keyer
	verdictEv  *event.Event      // fired by the CacheProbe task; gates every ProcParse and the body StmtCG
	scacheBase streamcache.Stats // shared-cache counters at compilation start (eviction delta)

	mu         sync.Mutex             // guards: every driver field below, mutated from task goroutines
	cacheSeen  obs.CacheCounters      // this compilation's own Acquire outcomes
	ifaces     map[string]*ifaceEntry // the once-only table (§3)
	procs      map[int32]*procStream
	nstream    int32
	allTasks   []*sched.Task
	checkTasks []*sched.Task // per-stream analysis tasks (the lint-merge gates)
	findings   []diag.Diagnostic
	checkFell  bool // checker degraded to the sequential analyzer
	mainKind   ast.ModKind
	poisoned   bool                    // deadlock watchdog fired; publish nothing
	faulted    bool                    // a stream task panicked and was isolated
	canceled   bool                    // Options.Cancel fired; result is abandoned
	resolving  map[string]*event.Event // per-name guard for in-flight cache resolution
	arenas     []*ast.Arena            // statement-tree arenas taken from ast.Arenas (see bodyArena)
	idle       []*ast.Arena            // those of arenas no parser is filling now

	// Stream-cache verdict state (under d.mu).
	closureOK bool                         // the probe derived keys (closure hashed, split complete)
	verdicts  map[int32]*streamcache.Entry // stream id → hit entry (absent = miss)
	procKeys  map[int32]streamcache.Key    // stream id → cache key (for recording misses)
	bodyKey   streamcache.Key              // module-body cache key
	bodyEnt   *streamcache.Entry           // module-body hit entry
	bodyMeta  *vm.ProcMeta                 // module-body registry meta (for recording)
	bodyBag   *diag.Bag                    // module-body diagnostic tee (fresh codegen)
	covered   map[int32]bool               // streams installed via an ancestor's hit entry
	pending   []pendingInstall             // cached code awaiting fixup application at merge
	tally     streamcache.Tally            // this compilation's stream-cache traffic
}

// pendingInstall is one cached code segment adopted by this compilation;
// the Merge task re-resolves its symbolic fixups against the current
// registry and attaches the result to meta.
type pendingInstall struct {
	meta *vm.ProcMeta
	rec  *streamcache.ProcRecord
}

// ifaceEntry is one once-only table entry for a definition module.
// optional/failed/resolved are guarded by the driver mutex; load
// failures are reported after the compilation settles so the
// diagnostics do not depend on which import path found the module
// first.
type ifaceEntry struct {
	name     string
	scope    *symtab.Scope
	optional bool // own-def prefetch: absence is not an error
	failed   bool // load failed (set by the Lexor task before queue close)

	cacheEnt *ifacecache.Entry // cache entry this session leads or installed
	cached   bool              // scope was installed from a cache hit
	resolved bool              // Publish/Fail decision has been made
}

// procStream is a procedure stream created by the Splitter.
type procStream struct {
	id     int32
	name   string
	q      *tokq.Queue
	parent int32

	// headingReady is the avoided event fired by the parent's
	// declarations analyzer once the heading is processed (§2.4 alt 1)
	// or as soon as the heading entries exist (alt 3).
	headingReady *event.Event
	child        *sema.ChildProc // set before headingReady fires

	// Stream-cache capture for fresh streams (under d.mu): the stream's
	// own diagnostics (a Bag child teeing into the compilation bag) and
	// its published lint fact table.
	tee   *diag.Bag
	facts *check.Facts
}

// Compile runs the concurrent compiler on the named module.
func Compile(module string, loader source.Loader, opts Options) *Result {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Check {
		// Cached interface installs have no ASTs to analyze; lint
		// compilations compile every interface fresh.
		opts.Cache = nil
	}
	d := &driver{
		// One snapshot per compilation: each file is loaded once and each
		// .def hashed once, whichever of the Lexors, the interface cache
		// and the stream-cache probe asks first.
		opts: opts, loader: source.NewSnapshot(loader), module: module,
		files:  source.NewSet(),
		diags:  diag.NewBag(200),
		reg:    vm.NewRegistry(module),
		ifaces: make(map[string]*ifaceEntry),
		procs:  make(map[int32]*procStream),
		cache:  opts.Cache,
		inject: opts.FaultPlan,
		obs:    opts.Obs,
	}
	switch {
	case opts.StallTimeout > 0:
		d.stall = opts.StallTimeout
	case opts.StallTimeout == 0:
		d.stall = DefaultStallTimeout
	}
	if d.cache != nil {
		d.resolving = make(map[string]*event.Event)
	}
	if opts.StreamCache != nil {
		d.scache = opts.StreamCache
		d.keyer = streamcache.NewKeyer()
		d.verdictEv = event.New()
		d.verdicts = make(map[int32]*streamcache.Entry)
		d.procKeys = make(map[int32]streamcache.Key)
		d.covered = make(map[int32]bool)
		d.scacheBase = d.scache.Stats()
	}
	if opts.Check {
		d.check = check.NewChecker(d.inject)
	}
	var stats *symtab.Stats
	if opts.CollectStats {
		// The Table 2 collector tallies every identifier lookup under a
		// lock — real cost, so it stays strictly opt-in.  An attached
		// observer reuses the tallies when they are being collected
		// anyway (NoteLookups below) but never forces them on.
		stats = symtab.NewStats()
	}
	if opts.Trace {
		d.rec = ctrace.NewRecorder()
	}
	d.obs.Begin(opts.Workers, opts.Strategy.String())
	d.tab = symtab.NewTable(opts.Strategy, stats, d.rec)
	d.tab.Inject = d.inject
	d.sup = newSupervisor(opts.Workers, d.rec)
	d.sup.Inject = d.inject
	d.sup.StallTimeout = d.stall
	d.sup.Obs = d.obs
	d.sup.OnDeadlock = func(msg string) {
		d.mu.Lock()
		d.poisoned = true
		d.mu.Unlock()
		d.diags.Errorf(module+".mod", token.Pos{}, "%s", msg)
	}
	d.sup.OnPanic = func(t *sched.Task, recovered any, stack []byte) {
		d.mu.Lock()
		d.faulted = true
		d.mu.Unlock()
		d.diags.Errorf(module+".mod", token.Pos{},
			"internal: %s task %q (stream %d) panicked: %v",
			t.Kind(), t.Label, t.Stream(), recovered)
	}

	if opts.Cancel != nil {
		// The cancel watcher lives exactly as long as this call: the
		// deferred close retires it whether the compilation finished,
		// faulted, or was torn down by the cancellation itself.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-opts.Cancel:
				d.cancelNow()
			case <-watchDone:
			}
		}()
	}

	d.startMainStream()
	// Optimistic prefetch of the module's own interface (§3).
	d.iface(module, true, nil)
	d.sup.Wait()
	d.reportLoadFailures()
	d.runCheckMerge()
	d.runMerge()
	d.sup.Wait()
	d.release()
	d.failUnpublished()
	d.recordStreams()

	if d.obs != nil {
		if d.cache != nil {
			// This driver's own Acquire outcomes — not a delta of the
			// shared cache's counters, which concurrent batch siblings
			// would pollute.
			d.mu.Lock()
			cc := d.cacheSeen
			d.mu.Unlock()
			d.obs.NoteCache(cc)
		}
		if d.scache != nil {
			d.mu.Lock()
			ta := d.tally
			d.mu.Unlock()
			delta := d.scache.Stats().Sub(d.scacheBase)
			d.obs.NoteStreams(obs.StreamCounters{
				Probed: int64(ta.Probed), Hits: int64(ta.Hits),
				Misses: int64(ta.Misses), Installed: int64(ta.Installed),
				Covered: int64(ta.Covered), Recorded: int64(ta.Recorded),
				Evictions: delta.Evictions,
			})
		}
		d.obs.NoteSched(d.sup.Counters())
		d.obs.NoteLookups(stats)
		d.obs.Finish()
	}
	// Final cancellation check: the watcher goroutine races the
	// compilation's own completion, so a Cancel that fired before this
	// point may not have been delivered yet.  Context semantics decide
	// the tie — a request whose deadline expired is canceled even if
	// the work happened to finish, so callers see a deterministic
	// Canceled bit instead of a scheduling coin flip.
	d.pollCancel()
	res := &Result{
		Object: d.reg.Object(),
		Diags:  d.diags,
		Files:  d.files,
		Stats:  stats,
	}
	d.mu.Lock()
	res.Streams = int(d.nstream) + 1
	res.Faulted = d.poisoned || d.faulted
	res.Canceled = d.canceled
	res.Findings = d.findings
	res.CheckFellBack = d.checkFell
	if d.scache != nil {
		ta := d.tally
		res.StreamCache = &ta
	}
	d.mu.Unlock()
	if d.rec != nil {
		res.Trace = d.rec.Trace()
	}
	return res
}

// cancelNow marks the compilation abandoned and tells the Supervisor:
// tasks not yet started are discharged unrun, blocked waits unwind
// through the panic-isolation teardown (whose deferred seals close the
// token queues), and the end-of-compilation sweeps (failUnpublished)
// still run, so no cache waiter in another session is stranded.
func (d *driver) cancelNow() {
	d.mu.Lock()
	if d.canceled {
		d.mu.Unlock()
		return
	}
	d.canceled = true
	d.mu.Unlock()
	d.sup.Cancel()
}

// Tests substitute these to watch the driver's hand-back rule and its
// worker goroutines.
var getArena, putArena, newSupervisor = ast.GetArena, ast.PutArena, sched.New

// bodyArena lends a body parse an arena.  A compilation's trees all die
// at once, so its streams share arenas one parse after another and it
// takes about one per parse in flight.  A tree's readers (its StmtCG
// task, lint unit and the lint merge) finish before the final Wait.
func (d *driver) bodyArena() *ast.Arena {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.idle); n > 0 {
		a := d.idle[n-1]
		d.idle = d.idle[:n-1]
		return a
	}
	a := getArena()
	d.arenas = append(d.arenas, a)
	return a
}

// parkArena takes back an arena whose parse has finished; its tree
// stays live until the compilation ends.
func (d *driver) parkArena(a *ast.Arena) {
	d.mu.Lock()
	d.idle = append(d.idle, a)
	d.mu.Unlock()
}

// release hands back the compilation's arenas and keyer chunks once no
// task is left to read them.  A poisoned, faulted or canceled one
// returns nothing: a panic can leave a half-built tree or a non-empty
// scratch stack, a cancel running tasks, so its buffers are left to the
// garbage collector rather than trusted to the next compilation.
func (d *driver) release() {
	d.pollCancel()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.poisoned && !d.faulted && !d.canceled {
		for _, a := range d.arenas {
			putArena(a)
		}
		d.keyer.Release()
	}
	d.arenas, d.idle = nil, nil
	pool.Age()
}

// pollCancel delivers a Cancel that fired but that the watcher
// goroutine has not delivered yet.
func (d *driver) pollCancel() {
	if d.opts.Cancel != nil {
		select {
		case <-d.opts.Cancel:
			d.cancelNow()
		default:
		}
	}
}

// spawn registers a task with the Supervisor and tracks it for the
// final merge gate.
func (d *driver) spawn(kind ctrace.TaskKind, stream int32, label string,
	priority int64, gates []*event.Event, parent *ctrace.TaskCtx, run func(*sched.Task)) *sched.Task {
	t := d.sup.Spawn(kind, stream, label, priority, gates, parent, run)
	d.mu.Lock()
	d.allTasks = append(d.allTasks, t)
	d.mu.Unlock()
	return t
}

// spawnCheck schedules a stream's static-analysis task (KindAnalysis).
// The unit's ASTs are complete when this is called, so the task is
// ungated; its kind ranks it behind code generation, so lint work
// never delays the compile proper.
func (d *driver) spawnCheck(stream int32, parent *ctrace.TaskCtx, u *check.Unit, sink func(*check.Facts)) {
	if d.check == nil {
		return
	}
	d.check.AddUnit(u)
	t := d.spawn(ctrace.KindAnalysis, stream, "Lint "+u.Path,
		sched.Priority(ctrace.KindAnalysis, 0), nil, parent,
		func(t *sched.Task) {
			out := d.check.RunUnit(t.Ctx, u)
			if sink != nil && out != nil {
				sink(out)
			}
		})
	d.mu.Lock()
	d.checkTasks = append(d.checkTasks, t)
	d.mu.Unlock()
}

// runCheckMerge spawns the lint-merge task, barrier-gated on every
// analysis task's completion event: the per-stream fact tables join
// into the final findings (or, if any analysis task faulted, the
// sequential analyzer re-runs over the registered units).
func (d *driver) runCheckMerge() {
	if d.check == nil {
		return
	}
	d.mu.Lock()
	gates := make([]*event.Event, len(d.checkTasks))
	for i, t := range d.checkTasks {
		gates[i] = t.Done()
	}
	d.mu.Unlock()
	d.spawn(ctrace.KindMerge, 0, "LintMerge "+d.module,
		sched.Priority(ctrace.KindMerge, 0), gates, nil, func(t *sched.Task) {
			fnd := d.check.Merge(t.Ctx)
			fell := d.check.Faulted()
			d.mu.Lock()
			d.findings = fnd
			d.checkFell = fell
			d.mu.Unlock()
		})
}

// env builds a per-task analysis environment.
func (d *driver) env(t *sched.Task, file string) *sema.Env {
	return d.envBag(t, file, d.diags)
}

// envBag is env with an explicit diagnostic bag — stream-cached
// compilations give each procedure stream a Bag child so its own
// diagnostics can be recorded alongside its code.
func (d *driver) envBag(t *sched.Task, file string, bag *diag.Bag) *sema.Env {
	return &sema.Env{
		Tab:    d.tab,
		Search: &symtab.Searcher{Tab: d.tab, Ctx: t.Ctx, Wait: t.HandledWait},
		Ctx:    t.Ctx,
		Diags:  bag,
		File:   file,
		Reg:    d.reg,
	}
}

// sealOnPanic is deferred by token-queue producer tasks (Lexors, the
// Splitter).  Barrier waits hold their worker slot and are invisible to
// the deadlock watchdog, so a producer that dies leaving its queue open
// would hang every consumer forever.  On panic the queue is sealed with
// a terminating EOF — post-Close Appends are safe no-ops, so racing an
// already-closed queue is harmless — and the panic is re-raised for the
// Supervisor's isolation layer to report.
func sealOnPanic(qs ...*tokq.Queue) {
	r := recover()
	if r == nil {
		return
	}
	for _, q := range qs {
		q.Append(token.Token{Kind: token.EOF})
		q.Close()
	}
	panic(r)
}

// sealProcStreams closes every procedure stream's queue with an EOF;
// deferred by the Splitter so its consumers terminate if it panics
// mid-split.
func (d *driver) sealProcStreams() {
	d.mu.Lock()
	qs := make([]*tokq.Queue, 0, len(d.procs))
	for _, ps := range d.procs {
		qs = append(qs, ps.q)
	}
	d.mu.Unlock()
	for _, q := range qs {
		q.Append(token.Token{Kind: token.EOF})
		q.Close()
	}
}

// newStream allocates the next stream number.
func (d *driver) newStream() int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nstream++
	return d.nstream
}

// ---------------------------------------------------------------------
// Main module stream

func (d *driver) startMainStream() {
	rawQ := tokq.New(d.opts.BlockSize)
	rawQ.Retain(2) // Importer + Splitter
	mainQ := tokq.New(d.opts.BlockSize)
	mainQ.Retain(1) // ModParse
	lexStarted := event.New()
	splitStarted := event.New()

	label := d.module + ".mod"

	// Lexor: never blocks; fires lexStarted as its first action so that
	// barrier waits downstream always have a live producer (§2.3.3).
	d.spawn(ctrace.KindLexor, 0, "Lexor "+label,
		sched.Priority(ctrace.KindLexor, 0), nil, nil, func(t *sched.Task) {
			defer sealOnPanic(rawQ)
			t.Ctx.FireEvent(lexStarted)
			rawQ.SetFireHook(t.Ctx.FireEvent)
			text, err := d.loader.Load(d.module, source.Impl)
			if err != nil {
				d.diags.Errorf(label, token.Pos{}, "cannot load module: %v", err)
				rawQ.Append(token.Token{Kind: token.EOF})
				rawQ.Close()
				return
			}
			lexer.Run(d.files.Add(d.module, source.Impl, text), t.Ctx, d.diags, rawQ)
		})

	// Importer: scans the raw token stream for imports (§3).
	d.spawn(ctrace.KindImporter, 0, "Importer "+label,
		sched.Priority(ctrace.KindImporter, 0), []*event.Event{lexStarted}, nil,
		func(t *sched.Task) {
			r := rawQ.NewReader(t.BarrierWait)
			defer r.Detach()
			impscan.Run(t.Ctx, r, func(name string, pos token.Pos) {
				d.iface(name, false, t)
			})
		})

	// Splitter: divides the stream into procedure streams (§2.1).
	splitTask := d.spawn(ctrace.KindSplitter, 0, "Splitter "+label,
		sched.Priority(ctrace.KindSplitter, 0), []*event.Event{lexStarted}, nil,
		func(t *sched.Task) {
			defer func() {
				if r := recover(); r != nil {
					// Seal the main queue and every procedure stream the
					// splitter produces, so their parsers terminate.
					d.sealProcStreams()
					mainQ.Append(token.Token{Kind: token.EOF})
					mainQ.Close()
					panic(r)
				}
			}()
			t.Ctx.FireEvent(splitStarted)
			r := rawQ.NewReader(t.BarrierWait)
			defer r.Detach()
			if d.keyer != nil {
				splitter.RunObserved(t.Ctx, r, mainQ, d.startProcStream(t),
					d.opts.Headers == HeaderReprocess, d.keyer)
			} else {
				splitter.Run(t.Ctx, r, mainQ, d.startProcStream(t),
					d.opts.Headers == HeaderReprocess)
			}
		})

	if d.scache != nil {
		// CacheProbe: once the split settles, hash every stream's layout,
		// look the keys up, and fire the verdict event the proc-parse and
		// body tasks are gated on.  A panicked splitter still completes
		// its Done event, so the probe always runs; an incomplete split
		// simply yields an all-miss verdict.
		probe := d.spawn(ctrace.KindImporter, 0, "CacheProbe "+label,
			sched.Priority(ctrace.KindImporter, 0),
			[]*event.Event{splitTask.Done()}, nil,
			func(t *sched.Task) { d.runCacheProbe(t) })
		d.sup.SetProducer(d.verdictEv, probe)
	}

	// Module Parser / Declarations Analyzer (priority class 5).
	d.spawn(ctrace.KindModParseDecl, 0, "ModParse "+label,
		sched.Priority(ctrace.KindModParseDecl, 0), []*event.Event{splitStarted}, nil,
		func(t *sched.Task) {
			d.runModParse(t, mainQ, label)
		})
}

// startProcStream is the splitter's StartProc callback: it creates the
// stream bookkeeping and spawns the stream's Parser/Decl-Analyzer task,
// gated on the heading event.
func (d *driver) startProcStream(splitterTask *sched.Task) splitter.StartProc {
	return func(name string, pos token.Pos, parent int32) (int32, *tokq.Queue) {
		d.inject.Panic(faultinject.PanicSplit, name)
		id := d.newStream()
		ps := &procStream{
			id: id, name: name, parent: parent,
			q:            tokq.New(d.opts.BlockSize),
			headingReady: event.New(),
		}
		ps.q.Retain(1) // ProcParse
		d.mu.Lock()
		d.procs[id] = ps
		d.mu.Unlock()

		gates := []*event.Event{ps.headingReady}
		if d.scache != nil {
			// The stream must not parse before the probe's verdict: a hit
			// replays the cached compilation instead.
			gates = append(gates, d.verdictEv)
		}
		d.spawn(ctrace.KindProcParseDecl, id, "ProcParse "+name,
			sched.Priority(ctrace.KindProcParseDecl, 0),
			gates, splitterTask.Ctx,
			func(t *sched.Task) { d.runProcParse(t, ps) })
		return id, ps.q
	}
}

// bindChildren wires a declaration analyzer to the stream map: as each
// procedure heading is processed, the matching stream learns its
// ChildProc and its avoided heading event fires.
func (d *driver) bindChildren(t *sched.Task, a *sema.DeclAnalyzer) {
	a.OnChild = func(cp *sema.ChildProc) {
		if cp.Decl.BodyStream == 0 {
			// Inline body (should not happen in concurrent mode); the
			// sequential walker would handle it.  Ignore defensively.
			return
		}
		d.mu.Lock()
		ps := d.procs[cp.Decl.BodyStream]
		d.mu.Unlock()
		if ps == nil {
			d.diags.Errorf(t.Label, cp.Sym.Pos, "internal: unknown stream %d", cp.Decl.BodyStream)
			return
		}
		ps.child = cp
		if d.inject.Hit(faultinject.DropFire) {
			// Injected: the heading-ready fire is dropped, wedging the
			// procedure stream until the deadlock watchdog breaks it and
			// poisons the result.
			return
		}
		t.Ctx.FireEvent(ps.headingReady)
	}
}

// runModParse is the main module's Parser/Declarations-Analyzer task.
func (d *driver) runModParse(t *sched.Task, mainQ *tokq.Queue, label string) {
	env := d.env(t, label)
	mr := mainQ.NewReader(t.BarrierWait)
	defer mr.Detach()
	p := parser.New(mr, label, t.Ctx, d.diags)
	m := p.ParsePrologue()

	var parent *symtab.Scope
	entry := d.iface(d.module, true, t)
	switch m.Kind {
	case ast.ImplMod:
		parent = entry.scope
		d.setMainKind(ast.ImplMod)
	case ast.DefMod:
		d.diags.Errorf(label, m.Pos, "%s.mod must be an IMPLEMENTATION or program MODULE", d.module)
	}
	if m.Name.Text != d.module {
		d.diags.Errorf(label, m.Name.Pos, "module name %s does not match file %s", m.Name.Text, label)
	}

	scope := d.tab.NewScope(symtab.ModuleScope, d.module, parent, 0)
	d.sup.SetProducer(scope.CompletionEvent(), t)
	if d.rec != nil && parent != nil {
		d.rec.NoteScopeGate(t.Ctx.ID, parent.CompletionEvent())
	}
	a := sema.NewModuleAnalyzer(env, scope, d.module+".mod", d.module, d.module+".mod", false)
	a.ShareHeadings = d.opts.Headers == HeaderShared
	d.bindChildren(t, a)
	a.AnalyzeImports(m.Imports, func(name string) *symtab.Scope {
		return d.iface(name, false, t).scope
	})
	decls := p.ParseDeclarations()
	a.Analyze(decls)
	a.ResolveForwardRefs()
	d.reg.SetAreaSlots(a.Area, a.NextOff)
	// §3: the symbol table is marked complete before the statement
	// parse tree is built, so DKY blockages resolve as early as possible.
	scope.Complete(t.Ctx)
	p.Arena = d.bodyArena()
	p.ParseBody(m)
	d.parkArena(p.Arena)
	d.spawnCheck(0, t.Ctx, &check.Unit{
		Kind: check.ModuleUnit, File: label, Module: d.module, Path: label,
		Imports: m.Imports, Decls: decls, Body: m.Body,
	}, nil)

	if m.Body != nil {
		size := int64(mainQ.Len())
		kind := ctrace.KindShortStmtCG
		if size >= LongProcTokens {
			kind = ctrace.KindLongStmtCG
		}
		bodyMeta := sema.NewBodyMeta(env)
		var gates []*event.Event
		if d.scache != nil {
			d.mu.Lock()
			d.bodyMeta = bodyMeta
			d.mu.Unlock()
			gates = []*event.Event{d.verdictEv}
		}
		d.spawn(kind, 0, "StmtCG "+label+" body",
			sched.Priority(kind, size), gates, t.Ctx, func(t2 *sched.Task) {
				if d.scache != nil {
					d.runBodyStmtCG(t2, scope, bodyMeta, m.Body, label)
					return
				}
				env2 := d.env(t2, label)
				codegen.Compile(env2, scope, bodyMeta, nil, 0, m.Body)
			})
	}
}

// runBodyStmtCG is the module body's code-generation task under a
// stream cache: a verdict hit replays the cached body, a miss runs the
// generator with a diagnostic tee so the body can be recorded.
func (d *driver) runBodyStmtCG(t *sched.Task, scope *symtab.Scope, bodyMeta *vm.ProcMeta, body *ast.StmtList, label string) {
	d.mu.Lock()
	ent := d.bodyEnt
	d.mu.Unlock()
	if ent != nil {
		rec := &ent.Records[0]
		bodyMeta.Frame = rec.Frame
		d.addPending(bodyMeta, rec)
		d.replayRecord(rec)
		d.mu.Lock()
		d.tally.Installed++
		d.mu.Unlock()
		t.Ctx.Add(ctrace.CostMergeSegment)
		return
	}
	bag := d.diags.Child()
	d.mu.Lock()
	d.bodyBag = bag
	d.mu.Unlock()
	env := d.envBag(t, label, bag)
	codegen.Compile(env, scope, bodyMeta, nil, 0, body)
}

// runProcParse is a procedure stream's Parser/Declarations-Analyzer
// task (§3, right column of Figure 5).
func (d *driver) runProcParse(t *sched.Task, ps *procStream) {
	cp := ps.child
	if d.scache != nil {
		d.mu.Lock()
		cov := d.covered[ps.id]
		ent := d.verdicts[ps.id]
		d.mu.Unlock()
		if cov {
			// An ancestor's hit entry already installed this stream's
			// compilation; drain the queue for recycle accounting.
			r := ps.q.NewReader(t.BarrierWait)
			r.Detach()
			d.mu.Lock()
			d.tally.Covered++
			d.mu.Unlock()
			return
		}
		if ent != nil && cp != nil {
			d.installStream(t, ps, ent)
			return
		}
	}
	if cp == nil {
		// The heading never arrived (its producer faulted or the fire
		// was dropped) and the watchdog force-fired our gate; the
		// result is already poisoned — nothing to parse.
		return
	}
	label := cp.Meta.Module + ".mod"
	bag := d.diags
	if d.scache != nil {
		// Tee the stream's own diagnostics so a recorded entry can
		// replay them; the child forwards to the compilation bag, so
		// user-visible behavior is unchanged.
		bag = d.diags.Child()
		d.mu.Lock()
		ps.tee = bag
		d.mu.Unlock()
	}
	env := d.envBag(t, label, bag)
	d.sup.SetProducer(cp.Scope.CompletionEvent(), t)
	if d.rec != nil && cp.Scope.Parent != nil {
		d.rec.NoteScopeGate(t.Ctx.ID, cp.Scope.Parent.CompletionEvent())
	}

	pr := ps.q.NewReader(t.BarrierWait)
	defer pr.Detach()
	p := parser.New(pr, label, t.Ctx, bag)
	frameBase := cp.FrameBase
	if d.opts.Headers == HeaderReprocess {
		// Alternative 3: this stream re-processes its own heading (the
		// splitter copied the heading tokens into this queue).
		head := p.ParseProcHead()
		p.AcceptSemicolon()
		frameBase = sema.AnalyzeOwnHeading(env, cp, head)
	}

	a := sema.NewProcAnalyzer(env, cp)
	a.NextOff = frameBase
	a.ShareHeadings = d.opts.Headers == HeaderShared
	d.bindChildren(t, a)
	decls := p.ParseDeclarations()
	a.Analyze(decls)
	a.ResolveForwardRefs()
	cp.Scope.Complete(t.Ctx)
	p.Arena = d.bodyArena()
	tail := p.ParseProcTail(ps.name)
	d.parkArena(p.Arena)
	var sink func(*check.Facts)
	if d.scache != nil {
		sink = func(f *check.Facts) {
			d.mu.Lock()
			ps.facts = f
			d.mu.Unlock()
		}
	}
	d.spawnCheck(ps.id, t.Ctx, &check.Unit{
		Kind: check.ProcUnit, File: label, Module: cp.Meta.Module, Path: cp.ScopePath,
		ProcName: cp.Decl.Head.Name.Text, Head: cp.Decl.Head,
		Decls: decls, Body: tail.Body,
	}, sink)

	size := int64(ps.q.Len())
	kind := ctrace.KindShortStmtCG
	if size >= LongProcTokens {
		kind = ctrace.KindLongStmtCG
	}
	frameAfterDecls := a.NextOff
	d.spawn(kind, ps.id, "StmtCG "+cp.Meta.FullName(),
		sched.Priority(kind, size), nil, t.Ctx, func(t2 *sched.Task) {
			env2 := d.envBag(t2, label, bag)
			codegen.Compile(env2, cp.Scope, cp.Meta, cp.Sym.Type, frameAfterDecls, tail.Body)
		})
}

// installStream replays a hit entry in place of parsing the stream: the
// procedure's registry meta (created by the parent's heading analysis)
// adopts the cached frame and code, descendant procedures are
// re-registered from their records, every record's diagnostics and lint
// facts are replayed verbatim, and the descendants' streams are marked
// covered and released.
func (d *driver) installStream(t *sched.Task, ps *procStream, ent *streamcache.Entry) {
	cp := ps.child
	r := ps.q.NewReader(t.BarrierWait)
	r.Detach()
	d.sup.SetProducer(cp.Scope.CompletionEvent(), t)
	d.inject.Panic(faultinject.PanicInstall, ps.name)
	// The scope completes empty: only this procedure's descendants could
	// search it, and they are covered below, never analyzed.
	cp.Scope.Complete(t.Ctx)

	own := &ent.Records[0]
	cp.Meta.Frame = own.Frame
	d.addPending(cp.Meta, own)
	d.replayRecord(own)
	for i := 1; i < len(ent.Records); i++ {
		rec := &ent.Records[i]
		meta := d.reg.NewProc(rec.Name, rec.Exported, rec.IsBody,
			rec.Level, rec.ArgSlots, rec.HasRet, rec.Pos)
		meta.Frame = rec.Frame
		d.addPending(meta, rec)
		d.replayRecord(rec)
	}

	// Release the covered descendants: nobody will ever bind their
	// headings, so their gates are fired here (their parse tasks see
	// covered and return).
	desc := d.keyer.Descendants(ps.id)
	var fire []*event.Event
	d.mu.Lock()
	for _, id := range desc {
		d.covered[id] = true
		if dps := d.procs[id]; dps != nil {
			fire = append(fire, dps.headingReady)
		}
	}
	d.tally.Installed++
	d.mu.Unlock()
	for _, ev := range fire {
		t.Ctx.FireEvent(ev)
	}
	t.Ctx.Add(float64(len(ent.Records)) * ctrace.CostMergeSegment)
}

// replayRecord re-emits a cached record's diagnostics into the
// compilation bag and pins its lint facts, both as recorded.
func (d *driver) replayRecord(rec *streamcache.ProcRecord) {
	for _, dg := range rec.Diags {
		d.diags.Add(dg)
	}
	if d.check != nil && rec.Facts != nil {
		d.check.AddPinned(rec.Facts)
	}
}

// addPending queues one cached code segment for fixup application by
// the Merge task.
func (d *driver) addPending(meta *vm.ProcMeta, rec *streamcache.ProcRecord) {
	d.mu.Lock()
	d.pending = append(d.pending, pendingInstall{meta: meta, rec: rec})
	d.mu.Unlock()
}

// ---------------------------------------------------------------------
// Definition module streams

// iface returns the once-only table entry for a definition module,
// starting its stream (Lexor, Importer, Parser/Decl-Analyzer) on first
// reference.  With a cache attached it consults the cache first: a hit
// installs the sealed closure with zero spawned tasks; a miss makes
// this compilation the single-flight leader; concurrent leaders in
// other compilations are waited out (t supplies the external-wait
// discipline; nil — the prefetch from the main goroutine — waits
// inline).
func (d *driver) iface(name string, optional bool, t *sched.Task) *ifaceEntry {
	d.mu.Lock()
	for {
		if e, ok := d.ifaces[name]; ok {
			if !optional && e.optional {
				e.optional = false
			}
			d.mu.Unlock()
			return e
		}
		if d.cache == nil || d.canceled {
			// No cache — or an abandoned compilation, which must not
			// take cache leadership it would only fail at the sweep.
			d.mu.Unlock()
			return d.startIface(name, optional, nil)
		}
		ev, busy := d.resolving[name]
		if !busy {
			break
		}
		// Another task of this compilation is resolving the same name
		// against the cache; wait for its verdict and re-check.
		d.mu.Unlock()
		if !d.extWait(t, ev) {
			// The resolving task stalled past the deadline (wedged on a
			// foreign leader, or lost to a fault); stop waiting on it and
			// compile the interface without the cache.  startIface
			// re-checks the once-only table, so if the resolver did land
			// meanwhile its entry is reused.
			d.obs.StallAbandoned(obsTaskID(t))
			return d.startIface(name, optional, nil)
		}
		d.mu.Lock()
	}
	resolved := event.New()
	d.resolving[name] = resolved
	d.mu.Unlock()

	var e *ifaceEntry
	for e == nil {
		ent, ev, st := d.cache.Acquire(name, d.loader)
		switch st {
		case ifacecache.Wait:
			d.cacheTally(&d.cacheSeen.Waits)
			if d.extWait(t, ev) {
				continue // re-acquire: the leader published or failed
			}
			// The foreign leader stalled past StallTimeout.  Abandon the
			// cache entry and compile the interface ourselves — the same
			// degradation the cache applies to a failed leader, except
			// this session does not wait for the verdict.
			d.cacheTally(&d.cacheSeen.Abandoned)
			d.cache.NoteAbandoned()
			d.obs.StallAbandoned(obsTaskID(t))
			e = d.startIface(name, optional, nil)
		case ifacecache.Hit:
			d.cacheTally(&d.cacheSeen.Hits)
			e = d.installCached(name, optional, ent)
			if e == nil {
				// A closure member conflicts with a scope this session
				// already holds; compile fresh without the cache so all
				// references keep pointer-identical types.
				e = d.startIface(name, optional, nil)
			}
		case ifacecache.Lead:
			d.cacheTally(&d.cacheSeen.Misses)
			e = d.startIface(name, optional, ent)
		default: // Bypass
			d.cacheTally(&d.cacheSeen.Bypasses)
			e = d.startIface(name, optional, nil)
		}
	}

	d.mu.Lock()
	delete(d.resolving, name)
	d.mu.Unlock()
	// A driver-owned fire (task 0): observed waiters on the resolution
	// guard get a matching fire edge instead of an unexplained unblock.
	d.obs.EventFired(0, resolved)
	resolved.Fire() // vet:allowfire driver-owned fire; EventFired above is the trace record
	return e
}

// cacheTally bumps one counter of d.cacheSeen (field address is stable;
// the increment itself needs d.mu).  Skipped entirely when no observer
// is attached — the counters exist only for the metrics snapshot.
func (d *driver) cacheTally(counter *int64) {
	if d.obs == nil {
		return
	}
	d.mu.Lock()
	*counter++
	d.mu.Unlock()
}

// obsTaskID maps a possibly-nil task (nil = the prefetch running on the
// main goroutine) to its observability ID; 0 means unobserved.
func obsTaskID(t *sched.Task) int {
	if t == nil {
		return 0
	}
	return t.ObsID()
}

// extWait parks on an event owned outside this task's supervisor
// (another compilation's cache leader, or another task's resolution),
// bounded by the resolved stall timeout.  It reports whether the event
// fired; false means the wait was abandoned at the deadline.
func (d *driver) extWait(t *sched.Task, ev *event.Event) bool {
	if t == nil {
		// The prefetch from the main goroutine waits inline, under the
		// same deadline and cancellation discipline as supervised tasks
		// (a nil Cancel channel never fires).
		if d.stall > 0 {
			timer := time.NewTimer(d.stall)
			defer timer.Stop()
			select {
			case <-ev.Done():
				return true
			case <-timer.C:
				return ev.Fired()
			case <-d.opts.Cancel:
				return ev.Fired()
			}
		}
		select {
		case <-ev.WaitChan():
			return true
		case <-d.opts.Cancel:
			return ev.Fired()
		}
	}
	return t.ExternalWait(ev)
}

// installCached installs a ready cache entry's whole closure into the
// once-only table: for each member not yet known to this compilation,
// the sealed scope is adopted, its storage area and imports registered,
// and the scope marked pre-fired for the trace (a cache hit spawns no
// tasks and its completion predates every task).  Returns nil without
// installing anything if any member's name is already bound to a
// *different* scope — mixing scope generations would break
// pointer-identity type compatibility.
func (d *driver) installCached(name string, optional bool, ent *ifacecache.Entry) *ifaceEntry {
	if d.inject.Hit(faultinject.FailInstall) {
		return nil // injected: decline the hit, forcing the compile-fresh path
	}
	closure := ent.Closure()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range closure {
		if ex, ok := d.ifaces[m.Name()]; ok && ex.scope != m.Scope() {
			return nil
		}
	}
	var result *ifaceEntry
	for _, m := range closure {
		mname := m.Name()
		if ex, ok := d.ifaces[mname]; ok {
			if mname == name {
				if !optional && ex.optional {
					ex.optional = false
				}
				result = ex
			}
			continue
		}
		opt := false
		if mname == name {
			opt = optional
		}
		e := &ifaceEntry{
			name: mname, scope: m.Scope(), optional: opt,
			cacheEnt: m, cached: true, resolved: true,
		}
		d.ifaces[mname] = e
		d.reg.SetAreaSlots(d.reg.AreaIdx(m.AreaName()), m.AreaSlots())
		for _, imp := range m.Imports() {
			d.reg.AddImport(imp)
		}
		d.tab.MarkPrefired(m.Scope())
		if d.rec != nil {
			d.rec.NotePrefired(m.Scope().CompletionEvent())
		}
		if mname == name {
			result = e
		}
	}
	return result
}

// startIface inserts the once-only entry for name and spawns its def
// stream.  ent, when non-nil, is the cache entry this compilation
// leads; the DefParse task publishes it on clean completion.
func (d *driver) startIface(name string, optional bool, ent *ifacecache.Entry) *ifaceEntry {
	d.mu.Lock()
	if e, ok := d.ifaces[name]; ok {
		// Installed meanwhile by another task's closure install; yield
		// any leadership we hold so its waiters are not stranded.
		if !optional && e.optional {
			e.optional = false
		}
		d.mu.Unlock()
		if ent != nil {
			ent.Fail()
		}
		return e
	}
	scope := d.tab.NewScope(symtab.DefScope, name, nil, 0)
	e := &ifaceEntry{name: name, scope: scope, optional: optional, cacheEnt: ent}
	d.ifaces[name] = e
	d.nstream++
	stream := d.nstream
	d.mu.Unlock()

	label := name + ".def"
	q := tokq.New(d.opts.BlockSize)
	q.Retain(2) // Importer + DefParse
	lexStarted := event.New()

	d.spawn(ctrace.KindLexor, stream, "Lexor "+label,
		sched.Priority(ctrace.KindLexor, 0), nil, nil, func(t *sched.Task) {
			defer sealOnPanic(q)
			t.Ctx.FireEvent(lexStarted)
			q.SetFireHook(t.Ctx.FireEvent)
			text, err := d.loader.Load(name, source.Def)
			if err != nil {
				d.mu.Lock()
				e.failed = true
				d.mu.Unlock()
				q.Append(token.Token{Kind: token.EOF})
				q.Close()
				return
			}
			f := d.files.Add(name, source.Def, text)
			lexer.Run(f, t.Ctx, d.diags, q)
		})

	d.spawn(ctrace.KindImporter, stream, "Importer "+label,
		sched.Priority(ctrace.KindImporter, 0), []*event.Event{lexStarted}, nil,
		func(t *sched.Task) {
			r := q.NewReader(t.BarrierWait)
			defer r.Detach()
			impscan.Run(t.Ctx, r, func(imp string, pos token.Pos) {
				d.iface(imp, false, t)
			})
		})

	parseTask := d.spawn(ctrace.KindDefParseDecl, stream, "DefParse "+label,
		sched.Priority(ctrace.KindDefParseDecl, 0), []*event.Event{lexStarted}, nil,
		func(t *sched.Task) {
			defer func() {
				if !scope.Completed() {
					scope.Complete(t.Ctx)
				}
				// Early returns (load failure, empty file) leave the
				// entry unpublished; fail it so cache waiters move on.
				d.failEntryIfUnresolved(e)
			}()
			r := q.NewReader(t.BarrierWait)
			defer r.Detach()
			if r.Peek().Kind == token.EOF {
				// Load failed (or empty file): nothing to analyze; the
				// failure is reported once the compilation settles.
				return
			}
			env := d.env(t, label)
			p := parser.New(r, label, t.Ctx, d.diags)
			m := p.ParsePrologue()
			if m.Kind != ast.DefMod {
				d.diags.Errorf(label, m.Pos, "%s is not a DEFINITION MODULE", label)
			}
			a := sema.NewModuleAnalyzer(env, scope, name+".def", name, name+".def", true)
			var directImps []string
			impSeen := make(map[string]bool)
			a.AnalyzeImports(m.Imports, func(imp string) *symtab.Scope {
				if !impSeen[imp] {
					impSeen[imp] = true
					directImps = append(directImps, imp)
				}
				return d.iface(imp, false, t).scope
			})
			decls := p.ParseDeclarations()
			a.Analyze(decls)
			a.ResolveForwardRefs()
			d.reg.SetAreaSlots(a.Area, a.NextOff)
			scope.Complete(t.Ctx)
			d.finishEntry(e, t, a, directImps, label)
			p.ParseBody(m)
			d.spawnCheck(stream, t.Ctx, &check.Unit{
				Kind: check.DefUnit, File: label, Module: name, Path: label,
				Imports: m.Imports, Decls: decls,
			}, nil)
		})
	d.sup.SetProducer(scope.CompletionEvent(), parseTask)
	return e
}

// finishEntry decides the fate of the cache entry this compilation
// leads for e: publish if the interface compiled cleanly (no
// diagnostics against its file, no load failure, no deadlock poison,
// every direct import itself cache-resolved), otherwise fail so the
// next requester retries.  The cost recorded is the def stream's
// deterministic work units at scope completion.
func (d *driver) finishEntry(e *ifaceEntry, t *sched.Task, a *sema.DeclAnalyzer, directImps []string, label string) {
	ent := e.cacheEnt
	if ent == nil {
		return
	}
	// Injected: wedge this leader before it publishes or fails, so
	// foreign waiters exercise their stall timeout.  This session's own
	// tasks are already unblocked — the scope completed above.
	d.inject.Stall(faultinject.StallLeader)
	d.mu.Lock()
	if e.resolved {
		d.mu.Unlock()
		return
	}
	e.resolved = true
	ok := !d.poisoned && !e.failed
	var deps []ifacecache.Dep
	if ok {
		for _, imp := range directImps {
			ie := d.ifaces[imp]
			if ie == nil || ie.cacheEnt == nil {
				ok = false // an uncacheable import makes us uncacheable
				break
			}
			deps = append(deps, ifacecache.Dep{Ent: ie.cacheEnt, Scope: ie.scope})
		}
	}
	scope := e.scope
	d.mu.Unlock()
	if ok && d.diags.HasFor(label) {
		ok = false
	}
	if !ok {
		ent.Fail()
		return
	}
	ent.Publish(scope, a.AreaName, a.NextOff, directImps, deps, t.Ctx.Units)
}

// failEntryIfUnresolved fails e's cache entry if no Publish/Fail
// decision was ever made (early-exit def streams, compiler shutdown).
func (d *driver) failEntryIfUnresolved(e *ifaceEntry) {
	d.mu.Lock()
	ent := e.cacheEnt
	unresolved := ent != nil && !e.resolved
	if unresolved {
		e.resolved = true
	}
	d.mu.Unlock()
	if unresolved {
		ent.Fail()
	}
}

// failUnpublished sweeps the once-only table at compilation end,
// failing any led cache entries that never resolved, so no waiter in
// another compilation is stranded on this session's events.
func (d *driver) failUnpublished() {
	d.mu.Lock()
	entries := make([]*ifaceEntry, 0, len(d.ifaces))
	for _, e := range d.ifaces {
		entries = append(entries, e)
	}
	d.mu.Unlock()
	for _, e := range entries {
		d.failEntryIfUnresolved(e)
	}
}

// setMainKind records the compilation unit's kind for the settled
// load-failure check.
func (d *driver) setMainKind(k ast.ModKind) {
	d.mu.Lock()
	d.mainKind = k
	d.mu.Unlock()
}

// reportLoadFailures emits deterministic diagnostics for interface
// files that could not be loaded, in name order, once all tasks have
// settled (so the result does not depend on which importer found a
// module first).
func (d *driver) reportLoadFailures() {
	d.mu.Lock()
	var failed []*ifaceEntry
	for _, e := range d.ifaces {
		if e.failed {
			failed = append(failed, e)
		}
	}
	mainKind := d.mainKind
	d.mu.Unlock()
	sort.Slice(failed, func(i, j int) bool { return failed[i].name < failed[j].name })
	for _, e := range failed {
		if e.optional {
			if e.name == d.module && mainKind == ast.ImplMod {
				d.diags.Errorf(d.module+".mod", token.Pos{},
					"IMPLEMENTATION MODULE %s requires %s.def", d.module, d.module)
			}
			continue
		}
		d.diags.Errorf(e.name+".def", token.Pos{}, "cannot load module: interface not found")
	}
}

// runMerge spawns the Merge task (§2.1): per-procedure code segments
// concatenate in any order, so it simply freezes the registry, charging
// the concatenation cost.
func (d *driver) runMerge() {
	d.mu.Lock()
	gates := make([]*event.Event, len(d.allTasks))
	for i, t := range d.allTasks {
		gates[i] = t.Done()
	}
	d.mu.Unlock()
	d.spawn(ctrace.KindMerge, 0, "Merge "+d.module,
		sched.Priority(ctrace.KindMerge, 0), gates, nil, func(t *sched.Task) {
			d.applyPendingInstalls()
			obj := d.reg.Object()
			t.Ctx.Add(float64(len(obj.Procs)) * ctrace.CostMergeSegment)
		})
}

// ---------------------------------------------------------------------
// Stream cache: probe, install fixups, record

// runCacheProbe derives every stream's cache key from the completed
// split and looks the keys up; runProcParse and the body task act on
// the verdicts once verdictEv fires (deferred, so a panic here still
// releases the gated tasks into the cold path).
func (d *driver) runCacheProbe(t *sched.Task) {
	defer t.Ctx.FireEvent(d.verdictEv)
	if !d.keyer.Complete() {
		return // split faulted: cold-compile everything, record nothing
	}
	// Closure roots: the module's own interface (when present) plus
	// every import named anywhere in the split, in stream order.
	var roots []string
	seen := make(map[string]bool)
	addRoot := func(name string) {
		if !seen[name] {
			seen[name] = true
			roots = append(roots, name)
		}
	}
	if _, err := d.loader.Load(d.module, source.Def); err == nil {
		addRoot(d.module)
	}
	ids := d.keyer.ProcStreams()
	for _, id := range append([]int32{0}, ids...) {
		for _, imp := range d.keyer.Imports(id) {
			addRoot(imp)
		}
	}
	closure, ok := d.scache.ClosureHash(d.loader, roots)
	if !ok {
		return // unhashable closure (load failure or import cycle): uncacheable
	}
	kp := streamcache.KeyParams{
		Reprocess: d.opts.Headers == HeaderReprocess,
		Check:     d.opts.Check,
		Closure:   closure,
	}
	verdicts := make(map[int32]*streamcache.Entry, len(ids))
	keys := make(map[int32]streamcache.Key, len(ids))
	var ta streamcache.Tally
	for _, id := range ids {
		k := d.keyer.ProcKey(id, kp)
		keys[id] = k
		ta.Probed++
		if ent, hit := d.scache.Get(k); hit {
			verdicts[id] = ent
			ta.Hits++
		} else {
			ta.Misses++
		}
	}
	bodyKey := d.keyer.BodyKey(kp)
	ta.Probed++
	bodyEnt, bodyHit := d.scache.Get(bodyKey)
	if bodyHit {
		ta.Hits++
	} else {
		ta.Misses++
	}
	d.mu.Lock()
	d.closureOK = true
	d.verdicts = verdicts
	d.procKeys = keys
	d.bodyKey = bodyKey
	d.bodyEnt = bodyEnt
	d.tally = ta
	d.mu.Unlock()
	t.Ctx.Add(float64(len(ids)+1) * ctrace.CostMergeSegment)
}

// applyPendingInstalls re-resolves every adopted cached code segment's
// symbolic fixups against this compilation's registry and attaches the
// rewritten code.  Runs inside the Merge task, after every stream task
// has completed (so the registry's name tables are final).
func (d *driver) applyPendingInstalls() {
	d.mu.Lock()
	pending := d.pending
	d.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	obj := d.reg.Object()
	byName := make(map[string]int32, len(obj.Procs))
	for _, p := range obj.Procs {
		byName[p.FullName()] = p.Idx
	}
	procIdx := func(name string) (int32, bool) {
		i, ok := byName[name]
		return i, ok
	}
	for _, pi := range pending {
		code, ok := streamcache.ApplyFixups(pi.rec.Code, pi.rec.Fixups,
			procIdx, d.reg.AreaIdx, d.reg.ExcIdx)
		if !ok {
			d.mu.Lock()
			d.faulted = true
			d.mu.Unlock()
			d.diags.Errorf(d.module+".mod", token.Pos{},
				"internal: cached stream %s references unknown procedure", pi.rec.Name)
			return
		}
		pi.meta.Segment = pi.rec.Segment
		pi.meta.Code = code
	}
}

// recordStreams publishes every freshly compiled stream back to the
// cache: one entry per missed, uncovered stream holding its own record
// plus its whole subtree (descendant subtrees that were themselves hits
// contribute their cached records unchanged).  Runs on the main
// goroutine after all tasks have settled; a wounded compilation —
// faulted, poisoned, canceled, incomplete split, failed closure hash,
// or a degraded checker — publishes nothing.
func (d *driver) recordStreams() {
	if d.scache == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closureOK || d.faulted || d.poisoned || d.canceled ||
		!d.keyer.Complete() || (d.check != nil && d.checkFell) {
		return
	}
	obj := d.reg.Object()
	procName := func(i int32) string { return obj.Procs[i].FullName() }
	areaName := func(i int32) string { return obj.Areas[i].Name }
	excName := func(i int32) string { return obj.Excs[i] }
	// record captures one freshly compiled stream as it was produced.
	record := func(meta *vm.ProcMeta, tee *diag.Bag, facts *check.Facts) []streamcache.ProcRecord {
		return []streamcache.ProcRecord{{
			Name: meta.Name, Exported: meta.Exported, IsBody: meta.IsBody,
			Level: meta.Level, ArgSlots: meta.ArgSlots, Frame: meta.Frame,
			HasRet: meta.HasRet, Pos: meta.Pos, Segment: meta.Segment,
			Fixups: streamcache.ExtractFixups(meta.Code, procName, areaName, excName),
			Diags:  tee.Recorded(), Facts: facts,
		}}
	}

	memo := make(map[int32][]streamcache.ProcRecord)
	var collect func(id int32) []streamcache.ProcRecord
	collect = func(id int32) []streamcache.ProcRecord {
		if rs, ok := memo[id]; ok {
			return rs
		}
		var rs []streamcache.ProcRecord
		if ent := d.verdicts[id]; ent != nil {
			rs = ent.Records
		} else if ps := d.procs[id]; ps != nil && ps.child != nil && ps.tee != nil && (d.check == nil || ps.facts != nil) {
			rs = record(ps.child.Meta, ps.tee, ps.facts)
			for _, c := range d.keyer.Children(id) {
				crs := collect(c)
				if crs == nil {
					rs = nil
					break
				}
				rs = append(rs, crs...)
			}
		}
		memo[id] = rs
		return rs
	}
	for _, id := range d.keyer.ProcStreams() {
		if d.verdicts[id] != nil || d.covered[id] {
			continue
		}
		rs := collect(id)
		if rs == nil {
			continue
		}
		d.scache.Put(d.procKeys[id], &streamcache.Entry{Records: rs})
		d.tally.Recorded++
	}
	if d.bodyEnt == nil && d.bodyMeta != nil {
		d.scache.Put(d.bodyKey, &streamcache.Entry{Records: record(d.bodyMeta, d.bodyBag, nil)})
		d.tally.Recorded++
	}
}
