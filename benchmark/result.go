package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only
}

// benchSpec is BENCHMARK.json: the one place where workload names,
// metric names, units, directions and regression bounds are fixed.  The
// program reads it instead of repeating it, so what it prints and
// compares cannot drift from what the driver checks.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (the built binary run from the repository root) or its
// parent (`go run -C benchmark .`).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent: run from the repository root or with `go run -C benchmark .`", wd)
}

func loadSpec(root string) (*benchSpec, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// metrics returns the specs of the metrics a run in the given mode
// must report.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload reports.  The driver
// reads Correct, Attempted, Failed and Metrics from the last line of
// standard output; Extras are side figures that carry no bound.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failure   string                 `json:"first_failure,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extras    map[string]metricValue `json:"extras,omitempty"`

	values map[string]float64 // measured, before units are attached
}

func newRunResult(workload string, traced bool) *runResult {
	return &runResult{
		Workload: workload, Traced: traced,
		Extras: map[string]metricValue{}, values: map[string]float64{},
	}
}

func (r *runResult) set(name string, v float64) { r.values[name] = v }

func (r *runResult) finish(tl tally) {
	r.Attempted, r.Failed, r.Failure = tl.attempted, tl.failed, tl.firstFailure
	r.Correct = tl.failed == 0
}

// attachUnits turns the measured values into Metrics: exactly the
// metrics the spec lists for this mode, each with the spec's unit.  A
// spec metric that was not measured is an error, not a silent zero.
func (r *runResult) attachUnits(spec *benchSpec) error {
	r.Metrics = map[string]metricValue{}
	for _, m := range spec.metrics(r.Traced) {
		v, ok := r.values[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is in BENCHMARK.json but was not measured", r.Workload, m.Name)
		}
		r.Metrics[m.Name] = metricValue{v, m.Unit}
		delete(r.values, m.Name)
	}
	for name := range r.values {
		return fmt.Errorf("%s: metric %s was measured but is not in BENCHMARK.json", r.Workload, name)
	}
	return nil
}

// driverLine is the last line of standard output.
func (r *runResult) driverLine() string {
	buf, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(buf)
}

// print writes every metric by name with its unit, in the spec's order,
// then the side figures.
func (r *runResult) print(spec *benchSpec) {
	mode := "end-to-end (untraced)"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s · %s ==\n", r.Workload, mode)
	for _, m := range spec.metrics(r.Traced) {
		fmt.Printf("  %-28s %14.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	names := make([]string, 0, len(r.Extras))
	for name := range r.Extras {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %14.4f %s\n", "("+name+")", r.Extras[name].Value, r.Extras[name].Unit)
	}
	fmt.Printf("  %-28s %14.4f (%d of %d)\n", "failed_share", share(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	if r.Failure != "" {
		fmt.Printf("  first failure: %s\n", r.Failure)
	}
}
