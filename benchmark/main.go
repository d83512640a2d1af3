// Command benchmark is the repository's one trusted benchmark: four
// named workloads, end-to-end metrics from an untraced run and
// per-layer metrics from a traced run, every output checked against a
// reference that does not come from the compiler under test.
// BENCHMARK.json at the repository root fixes the names, units,
// directions and regression bounds; README.md explains the choices.
//
//	go run -C benchmark . -seed 1992             every workload, untraced then traced
//	go run -C benchmark . --workload suite.cold --seed 7 --seconds 20 --trace 0
//	go run -C benchmark . -compare a.json b.json
//	go run -C benchmark . -selfcheck
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// buildDir is where everything the benchmark writes goes: the daemon
// binary, its ready file, traces and result files.  It is relative to
// the repository root and ignored by git.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run this one workload in this process and print one JSON result line; empty runs them all")
		seed      = fs.Int64("seed", goldenSeed, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 0, "timed window per run in seconds (default: run_seconds of BENCHMARK.json)")
		trace     = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (with -workload)")
		scale     = fs.Float64("scale", 1, "corpus scale in (0,1]; below 1 is for tests, results are not comparable")
		reps      = fs.Int("reps", 1, "repetitions of the whole set in one result file (quartiles for -compare need several)")
		out       = fs.String("out", "", "result file of a full run (default "+buildDir+"/result-<seed>.json)")
		compare   = fs.Bool("compare", false, "compare two result files given as arguments: base then candidate")
		selfcheck = fs.Bool("selfcheck", false, "run the full set twice and fail if the two disagree beyond the bounds")
		update    = fs.Bool("update-golden", false, "rewrite golden/*.json from the sequential compiler at seed 1992 and exit")
		detail    = fs.String("detail", "", "with -workload: also write the run's full result, side figures included, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *scale <= 0 || *scale > 1 {
		return fail(fmt.Errorf("-scale must be in (0,1], got %g", *scale))
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return fail(err)
	}
	cfg := config{root: root, seed: *seed, seconds: *seconds, scale: *scale, workers: runtime.GOMAXPROCS(0)}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files: base then candidate"))
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1))
	case *update:
		return updateGolden(cfg)
	case *selfcheck:
		return selfCheck(spec, cfg)
	case *workload != "":
		res, err := runWorkload(spec, *workload, cfg, *trace != 0)
		if err != nil {
			return fail(err)
		}
		if *detail != "" {
			if err := (&resultFile{Host: hostBlock(cfg), Runs: []*runResult{res}}).write(*detail); err != nil {
				return fail(err)
			}
		}
		res.print(spec)
		fmt.Println(res.driverLine())
		return 0
	default:
		if *out == "" {
			*out = filepath.Join(root, buildDir, fmt.Sprintf("result-%d.json", *seed))
		}
		file, err := runAll(spec, cfg, *reps)
		if err != nil {
			return fail(err)
		}
		if err := file.write(*out); err != nil {
			return fail(err)
		}
		fmt.Printf("\nresults written to %s\n", *out)
		if !file.allCorrect() {
			return 1
		}
		return 0
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// runWorkload runs one workload in this process, untraced or traced.
func runWorkload(spec *benchSpec, name string, cfg config, traced bool) (*runResult, error) {
	known := false
	for _, n := range spec.workloadNames() {
		known = known || n == name
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json names %v)", name, spec.workloadNames())
	}
	var res *runResult
	var err error
	switch {
	case name == wlServeMix:
		res, err = runServe(cfg, traced)
	case traced:
		res, err = traceCompile(name, cfg)
	default:
		res, err = runCompile(name, cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := res.attachUnits(spec); err != nil {
		return nil, err
	}
	return res, nil
}
