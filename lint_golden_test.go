package m2cc_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"m2cc"
)

// exampleLoader reads the shipped example modules, the same tree the
// `make lint` target points m2c -lint at.
func exampleLoader() *m2cc.DirLoader {
	return &m2cc.DirLoader{Dirs: []string{filepath.Join("examples", "modules")}}
}

// TestLintGoldenFindings byte-matches the analyzer's output on the
// LintFindings fixture (one instance of every finding class, including
// the cross-module unused-export in Shapes.def) against the checked-in
// golden file, for the sequential analyzer and for the concurrent
// checker under every DKY strategy.
func TestLintGoldenFindings(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("examples", "modules", "LintFindings.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	loader := exampleLoader()
	if got := m2cc.RenderFindings(m2cc.Lint("LintFindings", loader)); got != want {
		t.Errorf("sequential analyzer diverges from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, dky := range []string{"avoidance", "pessimistic", "skeptical", "optimistic"} {
		strategy, err := m2cc.ParseStrategy(dky)
		if err != nil {
			t.Fatal(err)
		}
		res := m2cc.Compile("LintFindings", loader, m2cc.Options{
			Workers: 4, Strategy: strategy, Check: true,
		})
		if res.Failed() {
			t.Fatalf("%s: compile failed:\n%s", dky, res.Diags)
		}
		if got := m2cc.RenderFindings(res.Findings); got != want {
			t.Errorf("%s: concurrent findings diverge from golden file\ngot:\n%s\nwant:\n%s", dky, got, want)
		}
	}
}

// TestLintGoldenClean: the clean fixture produces no findings at all.
func TestLintGoldenClean(t *testing.T) {
	loader := exampleLoader()
	if got := m2cc.RenderFindings(m2cc.Lint("LintClean", loader)); got != "" {
		t.Errorf("sequential analyzer reports on the clean fixture:\n%s", got)
	}
	res := m2cc.Compile("LintClean", loader, m2cc.Options{Workers: 4, Check: true})
	if res.Failed() {
		t.Fatalf("compile failed:\n%s", res.Diags)
	}
	if got := m2cc.RenderFindings(res.Findings); got != "" {
		t.Errorf("concurrent checker reports on the clean fixture:\n%s", got)
	}
}

// TestLintJSONShape: the JSON export round-trips and mirrors the text
// rendering's count and order.
func TestLintJSONShape(t *testing.T) {
	findings := m2cc.Lint("LintFindings", exampleLoader())
	var buf bytes.Buffer
	if err := m2cc.WriteFindingsJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Severity string `json:"severity"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(decoded) != len(findings) {
		t.Fatalf("JSON has %d findings, analyzer produced %d", len(decoded), len(findings))
	}
	for i, d := range decoded {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Severity == "" || d.Message == "" {
			t.Errorf("finding %d incomplete: %+v", i, d)
		}
	}
}

// TestLintGoldenConcFindings byte-matches the concurrency analyzer's
// output on the ConcFindings fixture (one instance of every conc
// finding family: guarded-by violation, cross-procedure lock-order
// cycle, double acquire) against the checked-in golden file, for the
// sequential analyzer and for the concurrent checker under every DKY
// strategy.
func TestLintGoldenConcFindings(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("examples", "modules", "ConcFindings.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	loader := exampleLoader()
	if got := m2cc.RenderFindings(m2cc.Lint("ConcFindings", loader)); got != want {
		t.Errorf("sequential analyzer diverges from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, dky := range []string{"avoidance", "pessimistic", "skeptical", "optimistic"} {
		strategy, err := m2cc.ParseStrategy(dky)
		if err != nil {
			t.Fatal(err)
		}
		res := m2cc.Compile("ConcFindings", loader, m2cc.Options{
			Workers: 4, Strategy: strategy, Check: true,
		})
		if res.Failed() {
			t.Fatalf("%s: compile failed:\n%s", dky, res.Diags)
		}
		if got := m2cc.RenderFindings(res.Findings); got != want {
			t.Errorf("%s: concurrent findings diverge from golden file\ngot:\n%s\nwant:\n%s", dky, got, want)
		}
	}
}

// TestLintGoldenConcClean: a module with a consistent locking
// discipline produces no findings at all.
func TestLintGoldenConcClean(t *testing.T) {
	loader := exampleLoader()
	if got := m2cc.RenderFindings(m2cc.Lint("ConcClean", loader)); got != "" {
		t.Errorf("sequential analyzer reports on the clean fixture:\n%s", got)
	}
	res := m2cc.Compile("ConcClean", loader, m2cc.Options{Workers: 4, Check: true})
	if res.Failed() {
		t.Fatalf("compile failed:\n%s", res.Diags)
	}
	if got := m2cc.RenderFindings(res.Findings); got != "" {
		t.Errorf("concurrent checker reports on the clean fixture:\n%s", got)
	}
}

// TestLintConcWarmReplay: a warm streamcache rebuild replays cached
// concurrency fact tables (no re-parse of the hit streams) and must
// reproduce the cold build's findings byte-for-byte.
func TestLintConcWarmReplay(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("examples", "modules", "ConcFindings.mod"))
	if err != nil {
		t.Fatal(err)
	}
	loader := m2cc.NewMapLoader()
	loader.Add("ConcFindings", m2cc.Impl, string(text))

	cache := m2cc.NewStreamCache(0)
	opts := m2cc.Options{Workers: 4, Check: true, StreamCache: cache}
	cold := m2cc.Compile("ConcFindings", loader, opts)
	if cold.Failed() {
		t.Fatalf("cold compile failed:\n%s", cold.Diags)
	}
	warm := m2cc.Compile("ConcFindings", loader, opts)
	if warm.Failed() {
		t.Fatalf("warm compile failed:\n%s", warm.Diags)
	}
	if warm.StreamCache == nil || warm.StreamCache.Hits == 0 {
		t.Fatalf("warm rebuild did not hit the stream cache: %+v", warm.StreamCache)
	}
	got := m2cc.RenderFindings(warm.Findings)
	want := m2cc.RenderFindings(cold.Findings)
	if got != want {
		t.Errorf("warm findings diverge from cold\ngot:\n%s\nwant:\n%s", got, want)
	}
	if want == "" {
		t.Error("fixture produced no findings; replay test is vacuous")
	}
}
