// Command m2c is the concurrent Modula-2+ compiler driver.
//
// Usage:
//
//	m2c [flags] Module
//
// The module's implementation is read from Module.mod in the include
// path; imported interfaces from <Name>.def.  By default the module is
// compiled concurrently and its object listing written to stdout.
//
//	m2c -run Main              # compile Main + imported impls, link, execute
//	                           # (one shared interface cache across the batch;
//	                           # -nocache compiles every interface per module)
//	m2c -workers 8 -dky optimistic -stats Sort
//	m2c -seq Sort              # the sequential baseline compiler
//	m2c -compare Sort          # compile both ways and diff the outputs
//	m2c -watch Sort            # WatchTool-style activity view (simulated P=workers)
//	m2c -ast Sort              # canonical source render of the parse tree
//	m2c -trace out.json Sort   # Chrome trace-event JSON of the live schedule
//	m2c -metrics Sort          # machine-readable observability metrics
//	m2c -timeline Sort         # measured per-worker activity timeline
//	m2c -profile Sort          # critical-path profile + blocked-time blame report
//	m2c -whatif Sort           # replay the run on its measured clock at P=1..workers
//	m2c -lint Sort             # concurrent static analysis; findings to stdout
//	m2c -lint-json Sort        # the same findings as a JSON array
//	m2c -seq -lint Sort        # the sequential analyzer (byte-identical findings)
//	m2c -lint -werror -enable conc-guard,uninit -disable uninit Sort
//
// -enable and -disable take finding codes (printed in brackets after
// each finding) and filter what -lint reports; -disable wins.  Exit
// status: 0 success; 1 a failed compilation or output, or under -werror
// a finding the filters kept; 2 a usage error (bad flag, strategy or
// finding code, or a lint filter without -lint).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"m2cc"
	"m2cc/internal/ast"
	"m2cc/internal/bench"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/parser"
	"m2cc/internal/source"
)

func main() {
	var (
		include = flag.String("I", ".", "colon-separated include path for .def/.mod files")
		workers = flag.Int("workers", 8, "worker slots (one per simulated processor)")
		dky     = flag.String("dky", "skeptical", "DKY strategy: avoidance|pessimistic|skeptical|optimistic")
		headers = flag.Bool("reprocess-headers", false, "use §2.4 alternative 3 (child streams re-process headings)")
		seqMode = flag.Bool("seq", false, "use the sequential baseline compiler")
		compare = flag.Bool("compare", false, "compile both ways and verify identical output")
		run     = flag.Bool("run", false, "compile, link and execute the program")
		listing = flag.Bool("S", false, "print the object listing")
		stats   = flag.Bool("stats", false, "print identifier lookup statistics (Table 2)")
		watch   = flag.Bool("watch", false, "render a WatchTool-style processor activity view")
		astMode = flag.Bool("ast", false, "print the canonical source render of the parse tree")
		nocache = flag.Bool("nocache", false, "disable the shared interface cache in batch modes (-run)")
		incr    = flag.Bool("incr", false, "attach a stream cache and verify a warm rebuild replays unchanged streams byte-identically")
		quiet   = flag.Bool("q", false, "suppress the success message")
		stall   = flag.Duration("stall-timeout", m2cc.DefaultStallTimeout,
			"bound on waits for a foreign interface-cache leader before self-compiling (0 selects the default; must not be negative)")

		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON `file` of the live schedule (open in Perfetto)")
		metrics  = flag.Bool("metrics", false, "print the observability metrics snapshot as JSON")
		timeline = flag.Bool("timeline", false, "render the measured per-worker activity timeline (Figure 7 style)")

		lintF    = flag.Bool("lint", false, "run the static-analysis streams and print findings")
		lintJSON = flag.Bool("lint-json", false, "like -lint, but print findings as a JSON array")
		werror   = flag.Bool("werror", false, "with -lint: exit 1 when any finding is reported")
		enable   = flag.String("enable", "", "with -lint: comma-separated finding `codes` to report exclusively")
		disable  = flag.String("disable", "", "with -lint: comma-separated finding `codes` to suppress")

		profileF    = flag.Bool("profile", false, "print the measured critical-path profile and blame report")
		profileJSON = flag.String("profile-json", "", "write the critical-path profile as JSON to `file`")
		whatif      = flag.Bool("whatif", false, "replay the run's trace on its measured clock at every processor count (what-if speedup curve)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: m2c [flags] Module")
		flag.Usage()
		os.Exit(2)
	}
	module := flag.Arg(0)
	loader := &m2cc.DirLoader{Dirs: strings.Split(*include, ":")}

	strategy, err := m2cc.ParseStrategy(*dky)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *whatif && *run {
		fmt.Fprintln(os.Stderr, "m2c: -whatif replays one module's compilation and cannot be combined with -run")
		flag.Usage()
		os.Exit(2)
	}
	lint := *lintF || *lintJSON
	enableSet, err1 := parseCodes(*enable)
	disableSet, err2 := parseCodes(*disable)
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !lint && (*werror || enableSet != nil || disableSet != nil) {
		fmt.Fprintln(os.Stderr, "m2c: -werror, -enable and -disable filter lint findings and need -lint or -lint-json")
		os.Exit(2)
	}
	if *stall < 0 {
		fmt.Fprintf(os.Stderr, "m2c: -stall-timeout must not be negative (got %v); 0 selects the default bound\n", *stall)
		os.Exit(2)
	}
	opts := m2cc.Options{
		Workers:      *workers,
		Strategy:     strategy,
		StallTimeout: *stall,
		// -metrics piggybacks on the Table 2 collector for its
		// per-strategy lookup section.
		CollectStats: *stats || *metrics,
		Trace:        *whatif,
	}
	if *headers {
		opts.Headers = m2cc.HeaderReprocess
	}
	if *incr {
		opts.StreamCache = m2cc.NewStreamCache(0)
	}
	opts.Check = lint
	// printFindings writes the lint findings that survive -enable and
	// -disable to stdout in whichever format was requested, and reports
	// whether -werror fails the run on them.  Findings are warnings:
	// without -werror they never fail the build.
	printFindings := func(findings []m2cc.Finding) bool {
		if !lint {
			return false
		}
		var kept []m2cc.Finding
		for _, f := range findings {
			if (enableSet == nil || enableSet[f.Code]) && !disableSet[f.Code] {
				kept = append(kept, f)
			}
		}
		if *lintJSON {
			if err := m2cc.WriteFindingsJSON(os.Stdout, kept); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			fmt.Print(m2cc.RenderFindings(kept))
		}
		return *werror && len(kept) > 0
	}
	var observer *m2cc.Observer
	if *traceOut != "" || *metrics || *timeline || *profileF || *profileJSON != "" {
		observer = m2cc.NewObserver()
		opts.Obs = observer
	}
	// obsReport writes whichever observability views were requested; it
	// runs even for failed compilations — a trace of a failure is
	// exactly when you want one.
	obsReport := func() {
		if observer == nil {
			return
		}
		if *traceOut != "" {
			// Render in full before touching the file, so a trace that
			// fails validation leaves no partial or truncated file.
			var buf bytes.Buffer
			err := observer.WriteChromeTrace(&buf)
			if err == nil {
				err = os.WriteFile(*traceOut, buf.Bytes(), 0o666)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
			}
		}
		if *timeline {
			fmt.Print(observer.RenderTimeline(110))
		}
		if *metrics {
			if err := observer.WriteMetrics(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *profileF || *profileJSON != "" {
			p := m2cc.BuildProfile(observer)
			if *profileF {
				fmt.Print(p.Render(12))
			}
			if *profileJSON != "" {
				f, err := os.Create(*profileJSON)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				werr := p.WriteJSON(f)
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					fmt.Fprintln(os.Stderr, werr)
					os.Exit(1)
				}
				if !*quiet {
					fmt.Fprintf(os.Stderr, "profile written to %s\n", *profileJSON)
				}
			}
		}
	}

	switch {
	case *astMode:
		text, err := loader.Load(module, m2cc.Impl)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		files := source.NewSet()
		f := files.Add(module, source.Impl, text)
		diags := diag.NewBag(0)
		ctx := &ctrace.TaskCtx{}
		toks := lexer.ScanAll(f, ctx, diags)
		m := parser.New(parser.NewSliceSource(toks), f.Label(), ctx, diags).ParseUnit()
		os.Stderr.WriteString(diags.String())
		fmt.Print(ast.Print(m))
		if diags.HasErrors() {
			os.Exit(1)
		}
		return

	case *watch:
		wopts := opts
		wopts.Workers, wopts.Trace, wopts.Obs = 1, true, nil
		res := m2cc.Compile(module, loader, wopts)
		os.Stderr.WriteString(res.Diags.String())
		if res.Failed() {
			os.Exit(1)
		}
		r := m2cc.Simulate(res.Trace, m2cc.SimOptions{
			Processors: *workers, Strategy: strategy,
			LongBeforeShort: true, BoostResolver: true, CollectTimeline: true,
		})
		fmt.Print(bench.RenderTimeline(r.Timeline, *workers, r.Makespan, 110))
		fmt.Println("legend: L lexical  S splitter  I importer  P parser/decl  G stmt/codegen  M merge  . idle")
		base := m2cc.Simulate(res.Trace, m2cc.SimOptions{
			Processors: 1, Strategy: strategy, LongBeforeShort: true, BoostResolver: true,
		})
		fmt.Printf("simulated speedup on %d processors: %.2f (utilization %.0f%%)\n",
			*workers, base.Makespan/r.Makespan, 100*r.Utilization(*workers))
		return

	case *run:
		// One interface cache across the whole batch: each definition
		// module is compiled once, not once per importing module.
		// Output is byte-identical either way (-nocache to verify).
		if !*nocache {
			opts.Cache = m2cc.NewCache()
		}
		prog, err := m2cc.BuildProgram(module, loader, opts)
		obsReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := m2cc.Execute(prog, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return

	case *compare:
		conc := m2cc.Compile(module, loader, opts)
		seqr := m2cc.CompileSequential(module, loader)
		if conc.Diags.String() != seqr.Diags.String() {
			fmt.Fprintf(os.Stderr, "DIAGNOSTICS DIFFER\nconcurrent:\n%s\nsequential:\n%s\n",
				conc.Diags, seqr.Diags)
			os.Exit(1)
		}
		if !conc.Failed() && conc.Object.Listing() != seqr.Object.Listing() {
			fmt.Fprintln(os.Stderr, "LISTINGS DIFFER")
			os.Exit(1)
		}
		fmt.Printf("%s: concurrent (workers=%d, %s) and sequential outputs identical\n",
			module, *workers, strategy)
		return

	case *seqMode:
		res := m2cc.CompileSequential(module, loader)
		os.Stderr.WriteString(res.Diags.String())
		if lintFailed := lint && printFindings(m2cc.Lint(module, loader)); res.Failed() || lintFailed {
			os.Exit(1)
		}
		if *listing {
			fmt.Print(res.Object.Listing())
		} else if !*quiet {
			fmt.Printf("%s: ok (sequential, %.0f work units)\n", module, res.Units)
		}
		return

	default:
		res := m2cc.Compile(module, loader, opts)
		os.Stderr.WriteString(res.Diags.String())
		obsReport()
		if *whatif && res.Trace != nil {
			whatIf(res.Trace, strategy, *workers)
		}
		if lintFailed := printFindings(res.Findings); res.Failed() || lintFailed {
			os.Exit(1)
		}
		if *listing {
			fmt.Print(res.Object.Listing())
		} else if !*quiet && !lint {
			fmt.Printf("%s: ok (%d streams, workers=%d, %s)\n",
				module, res.Streams, *workers, strategy)
		}
		if *stats && res.Stats != nil {
			fmt.Print(res.Stats)
		}
		if *incr {
			// Warm rebuild against the stream cache the cold build just
			// populated: every unchanged stream must replay, and the
			// output must be byte-identical.
			warm := m2cc.Compile(module, loader, opts)
			if warm.Diags.String() != res.Diags.String() ||
				(!warm.Failed() && warm.Object.Listing() != res.Object.Listing()) {
				fmt.Fprintln(os.Stderr, "m2c: incremental rebuild diverged from the cold build")
				os.Exit(1)
			}
			if ta := warm.StreamCache; ta != nil && !*quiet {
				fmt.Printf("%s: warm rebuild: %d/%d stream probes hit (%d installed, %d covered, %d recompiled)\n",
					module, ta.Hits, ta.Probed, ta.Installed, ta.Covered, ta.Misses)
			}
		}
	}
}

// parseCodes reads a comma-separated list of finding codes, each one
// the analyzer can emit, skipping empty entries; nil for an empty list.
func parseCodes(list string) (map[string]bool, error) {
	if list == "" {
		return nil, nil
	}
	set := map[string]bool{}
	for _, c := range strings.Split(list, ",") {
		if c = strings.TrimSpace(c); c == "" {
			continue
		} else if !slices.Contains(m2cc.FindingCodes(), c) {
			return nil, fmt.Errorf("m2c: unknown finding code %q (known: %s)", c, strings.Join(m2cc.FindingCodes(), ", "))
		}
		set[c] = true
	}
	return set, nil
}

// whatIf replays the run's trace on its measured clock at every
// processor count up to workers, makespans in measured µs, then prints
// each task kind's measured µs per work unit: the simulator's per-kind
// residual on this host.
func whatIf(tr *m2cc.Trace, strategy m2cc.Strategy, workers int) {
	m := tr.Measured()
	var base float64
	fmt.Printf("what-if replay of the measured run (%s; units = measured µs of execution):\n", strategy)
	fmt.Printf("  %3s  %12s  %8s  %s\n", "P", "makespan(ms)", "speedup", "utilization")
	for p := 1; p <= workers; p++ {
		r := m2cc.Simulate(m, m2cc.SimOptions{
			Processors: p, Strategy: strategy, LongBeforeShort: true, BoostResolver: true,
		})
		if p == 1 {
			base = r.Makespan
		}
		fmt.Printf("  %3d  %12.3f  %8.2f  %10.0f%%\n",
			p, r.Makespan/1000, base/r.Makespan, 100*r.Utilization(p))
	}
	var units, micros [ctrace.NumTaskKinds]float64
	var tasks [ctrace.NumTaskKinds]int
	for i, ti := range tr.Tasks {
		units[ti.Kind] += ti.Cost
		micros[ti.Kind] += m.Tasks[i].Cost
		tasks[ti.Kind]++
	}
	fmt.Println("  measured µs per work unit, by task kind:")
	for k, n := range tasks {
		if n > 0 {
			fmt.Printf("    %-15s %7.3f  (%d tasks, %.0f units)\n",
				ctrace.TaskKind(k), micros[k]/units[k], n, units[k])
		}
	}
}
