// Package m2cc is a concurrent compiler for Modula-2+, a Go
// reproduction of Wortman & Junkin, "A Concurrent Compiler for
// Modula-2+" (PLDI 1992).
//
// The compiler splits a source program into separately compilable
// streams — the main module body, one stream per procedure, one per
// directly or indirectly imported definition module — and compiles the
// streams concurrently under a Supervisor scheduler with avoided,
// handled and barrier events.  Symbol tables are per-scope and may be
// searched while still under construction; the Doesn't Know Yet
// condition that results is handled by one of four strategies
// (Avoidance, Pessimistic, Skeptical, Optimistic).  Per-procedure code
// segments are merged by concatenation into an object file, and a small
// linker turns a set of objects into a runnable program for the
// package's abstract stack machine.
//
// # Quick start
//
//	loader := m2cc.NewMapLoader()
//	loader.Add("Hello", m2cc.Impl, `
//	MODULE Hello;
//	BEGIN WriteString("hello"); WriteLn END Hello.`)
//
//	res := m2cc.Compile("Hello", loader, m2cc.Options{Workers: 8})
//	if res.Failed() {
//	    fmt.Print(res.Diags)
//	}
//	prog, _ := m2cc.BuildProgram("Hello", loader, m2cc.Options{Workers: 8})
//	m2cc.Execute(prog, os.Stdin, os.Stdout)
//
// The paper's sequential baseline, CompileSequential, shares every
// phase with Compile but no state: it never uses a Cache.  It is the
// oracle Compile's output is held to, and what a faulted compilation
// (and m2cd, for a client whose compilations keep faulting) falls back
// to.
//
// # Reproduction artifacts
//
// The workload generator (internal/workload), trace recorder
// (internal/ctrace), Firefly-substitute simulator (internal/sim) and
// experiment harness (internal/bench) regenerate every table and
// figure of the paper's evaluation in deterministic work units; see
// DESIGN.md and EXPERIMENTS.md, and the cmd/m2bench tool.  Wall-clock
// performance is measured by the separate benchmark module
// (`go run -C benchmark .`).
package m2cc

import (
	"fmt"
	"io"
	"sync"

	"m2cc/internal/check"
	"m2cc/internal/core"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/ifacecache"
	"m2cc/internal/obs"
	"m2cc/internal/profile"
	"m2cc/internal/seq"
	"m2cc/internal/sim"
	"m2cc/internal/source"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
	"m2cc/internal/vm"
)

// Strategy selects DKY handling (§2.2 of the paper).
type Strategy = symtab.Strategy

// The four DKY strategies, ordered as in the paper.
const (
	Avoidance   = symtab.Avoidance
	Pessimistic = symtab.Pessimistic
	Skeptical   = symtab.Skeptical // the paper's recommendation (Figure 6)
	Optimistic  = symtab.Optimistic
)

// ParseStrategy converts a strategy name to a Strategy.
func ParseStrategy(name string) (Strategy, error) { return symtab.ParseStrategy(name) }

// HeaderMode selects §2.4 procedure-heading sharing.
type HeaderMode = core.HeaderMode

// Heading-sharing alternatives.
const (
	HeaderShared    = core.HeaderShared    // alternative 1 (the paper's choice)
	HeaderReprocess = core.HeaderReprocess // alternative 3 (~3% slower)
)

// FileKind distinguishes definition (.def) from implementation (.mod)
// files.
type FileKind = source.FileKind

// File kinds.
const (
	Def  = source.Def
	Impl = source.Impl
)

// Loader resolves module names to source text.
type Loader = source.Loader

// MapLoader is an in-memory Loader.
type MapLoader = source.MapLoader

// NewMapLoader returns an empty in-memory loader.
func NewMapLoader() *MapLoader { return source.NewMapLoader() }

// DirLoader loads modules from directories.
type DirLoader = source.DirLoader

// Options configure a concurrent compilation.
type Options = core.Options

// DefaultStallTimeout bounds waits on foreign interface-cache leaders
// when Options.StallTimeout is not positive; see ifacecache.DefaultStallTimeout.
const DefaultStallTimeout = ifacecache.DefaultStallTimeout

// Result is a concurrent compilation's outcome.
type Result = core.Result

// Finding is one static-analysis finding (a warning-severity
// diagnostic with a line+column span).  Produced by Options.Check
// (Result.Findings) and by Lint.
type Finding = diag.Diagnostic

// RenderFindings formats findings one per line, the byte-comparable
// form the differential tests use.
func RenderFindings(findings []Finding) string { return check.Render(findings) }

// WriteFindingsJSON emits findings as a JSON array with full spans.
func WriteFindingsJSON(w io.Writer, findings []Finding) error {
	return check.WriteJSON(w, findings)
}

// FindingCodes lists every finding-family code the analyzer can emit
// (diag.Diagnostic.Code), in documentation order; m2c validates its
// -enable/-disable lint filters against it.
func FindingCodes() []string { return check.FindingCodes() }

// SeqResult is a sequential compilation's outcome.
type SeqResult = seq.Result

// Object is a compiled module (symbolic cross-references, linked by
// Link).
type Object = vm.Object

// Program is a linked, runnable image.
type Program = vm.Program

// Trace is a schedule-independent compilation trace for the simulator.
type Trace = ctrace.Trace

// SimOptions configure a Firefly-substitute simulation.
type SimOptions = sim.Options

// SimResult is a simulation outcome.
type SimResult = sim.Result

// Stats are Table 2 identifier-lookup statistics.
type Stats = symtab.Stats

// Cache is a shared interface-compilation cache.  One Cache may serve
// any number of concurrent compilations (Options.Cache; the sequential
// compiler never uses one): completed definition-module scopes are
// keyed by the content hash of their transitive .def closure, and
// concurrent requests for the same uncached interface are
// single-flighted — one compilation leads, the rest wait on its
// completion event.  Output is byte-identical with or without a cache.
type Cache = ifacecache.Cache

// CacheStats is a snapshot of a Cache's hit/miss/wait/bypass counters.
type CacheStats = ifacecache.Stats

// NewCache returns an empty shared interface cache.
func NewCache() *Cache { return ifacecache.New() }

// StreamCache is a shared incremental-recompilation cache at the
// paper's stream granularity: each procedure stream (and module body)
// is keyed by a content hash of its token layout, its enclosing
// declarations and the compilation's interface closure; a recompile
// after a one-procedure edit re-runs only the changed streams and
// replays the rest — object code, diagnostics and lint facts — from the
// cache.  Attach one via Options.StreamCache; output is byte-identical
// to a cold build.  One StreamCache may serve any number of
// compilations (the m2cd daemon shares one per process).
type StreamCache = streamcache.Cache

// StreamCacheStats is a snapshot of a StreamCache's cumulative
// hit/miss/eviction counters.
type StreamCacheStats = streamcache.Stats

// StreamTally is one compilation's stream-cache traffic
// (Result.StreamCache).
type StreamTally = streamcache.Tally

// NewStreamCache returns an empty stream cache capped at limit entries
// (0 = unbounded) with LRU eviction.
func NewStreamCache(limit int) *StreamCache { return streamcache.New(limit) }

// Observer is the live-observability layer: attach one via
// Options.Obs and each compilation is traced by its Recorder, which
// times every Supervisor task on its worker slot and records its
// waits, fires and faults; the Observer keeps those traces beside the
// cache, scheduler and lookup counters.  One Observer may span a whole
// CompileBatch.  Its views are renderings of the traces:
// WriteChromeTrace (Perfetto-loadable), WriteMetrics (JSON),
// RenderTimeline (Figure 7-style ASCII) and BuildProfile; see
// internal/obs.
type Observer = obs.Observer

// ObsMetrics is an Observer's aggregated metrics snapshot.  Its Sched
// section (JSON "sched") is the Supervisor's dispatch traffic: tasks
// taken off the single ready queue, direct slot handoffs, and worker
// goroutines started.
type ObsMetrics = obs.Metrics

// NewObserver returns an Observer ready to attach to Options.Obs.
// The zero epoch is the moment of creation.
func NewObserver() *Observer { return obs.New() }

// Profile is a measured critical-path profile: the dependency-DAG walk
// over one observed run, with blocked time attributed per event and
// the serial fraction / P→∞ speedup bound derived; see
// internal/profile.
type Profile = profile.Profile

// BuildProfile computes the critical-path profile of the run(s) o
// observed: reconstructs the task/event dependency DAG from the traced
// stretches, fires and waits, walks the critical path, and attributes
// every unit of blocked time to the event that caused it.  Render the
// result with Profile.Render or Profile.WriteJSON.
func BuildProfile(o *Observer) *Profile { return o.Profile() }

// Compile runs the concurrent compiler on the named implementation
// module.  Set Options.Cache to share interface compilations across
// calls.
//
// Compile never lets a wounded concurrent compilation reach the
// caller: if the attempt faulted (a stream task panicked and was
// isolated, or the deadlock watchdog had to force-fire events), the
// module is transparently re-run through the always-correct sequential
// compiler, so the result is either a correct object program or
// ordinary source diagnostics — never a crash and never a poisoned
// object.  Such results carry Faulted and FellBack set.
//
// Set Options.Cancel (a context's Done channel) to abandon the
// compilation early: the result comes back promptly with Canceled set
// and must be discarded — canceled compilations take no fallback.
func Compile(module string, loader Loader, opts Options) *Result {
	res := core.Compile(module, loader, opts)
	if res.Canceled {
		// An abandoned request (Options.Cancel fired): no sequential
		// fallback and no lint recomputation — the caller asked the
		// compilation to stop, not to produce an answer.  The partial
		// result must be discarded.
		return res
	}
	if res.Faulted {
		fb := sequentialFallback(module, loader, res)
		if opts.Check {
			// The faulted attempt's findings (if any) came from a
			// wounded schedule; recompute them with the sequential
			// analyzer, which parses afresh from source.
			fb.Findings = check.Analyze(module, loader)
			fb.CheckFellBack = true
		}
		return fb
	}
	if opts.Check && res.Findings == nil {
		// The lint merge never ran (its task was lost to a shutdown
		// path that did not poison the result); degrade to the
		// sequential analyzer rather than report nothing.
		res.Findings = check.Analyze(module, loader)
		res.CheckFellBack = true
	}
	return res
}

// Lint runs the sequential static analyzer over the named module and
// its interface closure without compiling it — the baseline the
// concurrent checker (Options.Check) byte-matches.
func Lint(module string, loader Loader) []Finding {
	return check.Analyze(module, loader)
}

// sequentialFallback re-runs a faulted concurrent compilation through
// seq.Compile.  The fallback deliberately runs without a cache: a
// fault may have interrupted cache publication mid-flight, and the
// sequential path's independence is the point.  Stats and Trace are
// dropped — measurements of a poisoned schedule would be lies — while
// Streams keeps the concurrent attempt's count for reporting.
func sequentialFallback(module string, loader Loader, faulted *Result) *Result {
	sres := seq.Compile(module, loader)
	return &Result{
		Object:   sres.Object,
		Diags:    sres.Diags,
		Files:    sres.Files,
		Streams:  faulted.Streams,
		Faulted:  true,
		FellBack: true,
	}
}

// CompileSequential runs the traditional sequential compiler (the
// paper's baseline); its output is byte-identical to Compile's.
func CompileSequential(module string, loader Loader) *SeqResult {
	return seq.Compile(module, loader)
}

// CompileBatch compiles several implementation modules concurrently,
// sharing one interface cache so each definition module in the batch is
// compiled exactly once.  If opts.Cache is nil a fresh cache is used
// for the batch; pass an existing cache to warm-start.  Results are
// returned in input order.  Faulted compilations fall back to the
// sequential compiler individually (see Compile); one wounded module
// never poisons its batch siblings.
func CompileBatch(modules []string, loader Loader, opts Options) []*Result {
	if opts.Cache == nil {
		opts.Cache = NewCache()
	}
	results := make([]*Result, len(modules))
	var wg sync.WaitGroup
	for i, mod := range modules {
		wg.Add(1)
		go func(i int, mod string) {
			defer wg.Done()
			results[i] = Compile(mod, loader, opts)
		}(i, mod)
	}
	wg.Wait()
	return results
}

// Link resolves symbolic references across objects into a runnable
// Program whose main module is named.
func Link(objects []*Object, main string) (*Program, error) {
	return vm.Link(objects, main)
}

// BuildProgram compiles the main module and every transitively imported
// module that has an implementation — each with the concurrent compiler
// — and links the results.
func BuildProgram(main string, loader Loader, opts Options) (*Program, error) {
	var objects []*Object
	seen := map[string]bool{}
	queue := []string{main}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		seen[name] = true
		if _, err := loader.Load(name, Impl); err != nil {
			if name == main {
				return nil, fmt.Errorf("main module %s has no implementation", main)
			}
			continue // interface-only module
		}
		res := Compile(name, loader, opts)
		if res.Failed() {
			return nil, fmt.Errorf("compilation of %s failed:\n%s", name, res.Diags)
		}
		objects = append(objects, res.Object)
		queue = append(queue, res.Object.Imports...)
	}
	return Link(objects, main)
}

// Execute runs a linked program on the abstract machine.
func Execute(prog *Program, stdin io.Reader, stdout io.Writer) error {
	return vm.NewMachine(prog, stdin, stdout).Run()
}

// Simulate replays a compilation trace on a simulated multiprocessor
// under the Supervisor scheduling policy.  Collect traces with
// Options{Workers: 1, Trace: true} for deterministic replays in work
// units; replay trace.Measured() for the same run on its measured
// clock, in microseconds of execution (m2c -whatif).
func Simulate(trace *Trace, opts SimOptions) *SimResult {
	return sim.New(trace, opts).Run()
}
