package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultFile is what a full run writes: where it was measured and every
// run of every workload, untraced and traced, repetition by repetition.
type resultFile struct {
	Host host         `json:"host"`
	Runs []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) allCorrect() bool {
	for _, r := range f.Runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

// values returns the metric's value in every run of the workload in the
// given mode, in run order.
func (f *resultFile) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedShare is failed operations over attempted ones across the
// workload's runs.
func (f *resultFile) failedShare(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return share(float64(failed), float64(attempted))
}

// runAll runs every workload untraced and then traced, each run in a
// child process of its own so that it starts with a clean heap and has
// its own peak memory.
func runAll(spec *benchSpec, cfg config, reps int) (*resultFile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	file := &resultFile{Host: hostBlock(cfg)}
	fmt.Printf("host: %+v\n", file.Host)
	for rep := 0; rep < reps; rep++ {
		for _, name := range spec.workloadNames() {
			for _, traced := range []bool{false, true} {
				res, err := runChild(exe, cfg, name, traced)
				if err != nil {
					return nil, err
				}
				res.print(spec)
				file.Runs = append(file.Runs, res)
			}
		}
	}
	return file, nil
}

// runChild re-executes this program for one workload and reads the full
// result the child leaves in the build directory.
func runChild(exe string, cfg config, workload string, traced bool) (*runResult, error) {
	detail := filepath.Join(cfg.root, buildDir, "detail.json")
	if err := os.Remove(detail); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"--trace", strconv.Itoa(btoi(traced)),
		"--detail", detail)
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr // the child's stdout repeats what the parent prints from the detail file
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (traced=%v): %w", workload, traced, err)
	}
	f, err := readResultFile(detail)
	if err != nil {
		return nil, err
	}
	if len(f.Runs) != 1 {
		return nil, fmt.Errorf("%s holds %d runs, want 1", detail, len(f.Runs))
	}
	return f.Runs[0], nil
}

// comparable reports whether two result files were measured under the
// same conditions; the commit is what a comparison is about and may
// differ.
func (h host) comparable(o host) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// row is one line of a comparison.
type row struct {
	workload, metric string
	base, cand       []float64
	bound            float64
	worse            float64 // share by which the candidate's median is worse than the base's
	verdict          string
}

// judgeRow compares the medians in the metric's direction.  A spread on
// either side wider than the bound means the runs cannot tell a change
// of that size from noise, whatever the medians say.
func judgeRow(m metricSpec, workload string, base, cand []float64) row {
	r := row{workload: workload, metric: m.Name, base: base, cand: cand, bound: m.Bound}
	mb, mc := median(base), median(cand)
	if mb != 0 {
		r.worse = (mc - mb) / math.Abs(mb)
	}
	if m.Better == "higher" {
		r.worse = -r.worse
	}
	switch {
	case spread(base) > m.Bound || spread(cand) > m.Bound:
		r.verdict = verdictUnresolved
	case r.worse > m.Bound:
		r.verdict = verdictRegressed
	default:
		r.verdict = verdictOK
	}
	return r
}

func (r row) String() string {
	bq1, bq3 := quartiles(r.base)
	cq1, cq3 := quartiles(r.cand)
	mb, mc := median(r.base), median(r.cand)
	return fmt.Sprintf("%-11s %-13s base %12.4f [%12.4f %12.4f] n=%d  cand %12.4f [%12.4f %12.4f] n=%d  cand/base %6.4f of %.4f  bound %4.1f%%  %s",
		r.workload, r.metric, mb, bq1, bq3, len(r.base), mc, cq1, cq3, len(r.cand), share(mc, mb), mb, 100*r.bound, r.verdict)
}

// compareResults returns one row per (end-to-end metric, workload) and
// the workloads whose share of failed operations rose.
func compareResults(spec *benchSpec, base, cand *resultFile) (rows []row, moreFailures []string) {
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			b, c := base.values(w, m.Name, false), cand.values(w, m.Name, false)
			if len(b) > 0 && len(c) > 0 {
				rows = append(rows, judgeRow(m, w, b, c))
			}
		}
		if cand.failedShare(w) > base.failedShare(w) {
			moreFailures = append(moreFailures, w)
		}
	}
	return rows, moreFailures
}

// compareFiles prints the comparison of two result files and returns
// the exit code: 0 when nothing regressed, 1 when something did, 2
// when the files cannot be compared.
func compareFiles(spec *benchSpec, basePath, candPath string) int {
	base, err := readResultFile(basePath)
	if err != nil {
		return fail(err)
	}
	cand, err := readResultFile(candPath)
	if err != nil {
		return fail(err)
	}
	if !base.Host.comparable(cand.Host) {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare results measured under different conditions\n  base: %+v\n  cand: %+v\n", base.Host, cand.Host)
		return 2
	}
	fmt.Printf("base %s (commit %s)\ncand %s (commit %s)\n", basePath, base.Host.Commit, candPath, cand.Host.Commit)
	fmt.Println("each row: median [first quartile, third quartile] over the file's runs")
	rows, moreFailures := compareResults(spec, base, cand)
	code := 0
	for _, r := range rows {
		fmt.Println(r)
		if r.verdict == verdictRegressed {
			code = 1
		}
	}
	for _, w := range moreFailures {
		fmt.Printf("%-11s failed_share   base %.6f  cand %.6f  %s\n", w, base.failedShare(w), cand.failedShare(w), verdictRegressed)
		code = 1
	}
	return code
}

// selfCheck runs the full set twice on the same commit.  The benchmark
// is fit to judge changes only if the two sets agree within its own
// bounds and the instruction counts repeat exactly.
func selfCheck(spec *benchSpec, cfg config) int {
	if err := checkDeterminism(cfg); err != nil {
		return fail(err)
	}
	fmt.Println("determinism: same seed gave byte-identical corpus and listings")
	var files [2]*resultFile
	for i := range files {
		f, err := runAll(spec, cfg, 1)
		if err != nil {
			return fail(err)
		}
		path := filepath.Join(cfg.root, buildDir, fmt.Sprintf("selfcheck-%c.json", 'a'+i))
		if err := f.write(path); err != nil {
			return fail(err)
		}
		fmt.Printf("\nset %d written to %s\n\n", i+1, path)
		files[i] = f
	}
	code := 0
	if !files[0].allCorrect() || !files[1].allCorrect() {
		fmt.Println("selfcheck: some outputs were wrong")
		code = 1
	}
	rows, _ := compareResults(spec, files[0], files[1])
	for _, r := range rows {
		verdict := "agree"
		exact := r.metric == "code_instrs"
		if (exact && median(r.base) != median(r.cand)) || math.Abs(r.worse) > r.bound {
			verdict = "DISAGREE"
			code = 1
		}
		fmt.Printf("%-11s %-13s first %12.4f  second %12.4f  differ %+6.2f%%  bound %4.1f%%  %s\n",
			r.workload, r.metric, median(r.base), median(r.cand), 100*r.worse, 100*r.bound, verdict)
	}
	return code
}

// checkDeterminism generates the corpus twice and compiles it twice:
// the texts and the listings must be byte-identical, or no count the
// benchmark reports could be expected to repeat.
func checkDeterminism(cfg config) error {
	var hashes [2]map[string]string
	for i := range hashes {
		c, err := suiteCorpus(cfg.seed, cfg.scale)
		if err != nil {
			return err
		}
		hashes[i] = map[string]string{}
		_, results := coldPass(c, cfg.workers, true, true)
		for j, p := range c.progs {
			if results[j].Failed() {
				return fmt.Errorf("%s failed to compile:\n%s", p.Name, results[j].Diags)
			}
			hashes[i][p.Name+".mod"] = sha256Hex(p.Text)
			hashes[i][p.Name+".listing"] = sha256Hex(results[j].Object.Listing())
		}
	}
	for name, h := range hashes[0] {
		if hashes[1][name] != h {
			return fmt.Errorf("seed %d is not deterministic: %s differs between two generations", cfg.seed, name)
		}
	}
	return nil
}

// updateGolden rewrites the committed listing hashes from the
// sequential compiler.
func updateGolden(cfg config) int {
	cfg.seed, cfg.scale = goldenSeed, 1
	suite, err := suiteCorpus(cfg.seed, cfg.scale)
	if err != nil {
		return fail(err)
	}
	synth, err := synthCorpus(cfg.scale)
	if err != nil {
		return fail(err)
	}
	for name, c := range map[string]*corpus{"suite": suite, "synth": synth} {
		refs, err := seqReferences(c)
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath(cfg.root, name)), 0o755); err != nil {
			return fail(err)
		}
		if err := writeGolden(cfg.root, name, refs); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s (%d listings)\n", goldenPath(cfg.root, name), len(refs))
	}
	return 0
}
