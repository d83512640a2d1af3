package m2cc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"m2cc"
	"m2cc/internal/source"
	"m2cc/internal/workload"
)

// TestListingsMatchGolden pins listing bytes across any change to the
// object-code encoding: the suite and Synth programs at seed 1992,
// compiled sequentially and concurrently, must hash to the SHA-256s the
// benchmark commits under benchmark/golden (read here, never written).
// The fmt reference renderer in internal/vm moves with the encoding;
// these hashes do not.
func TestListingsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full generated suite")
	}
	suite := workload.GenerateSuite(1992, 1)
	var suiteNames []string
	for _, p := range suite.Programs {
		suiteNames = append(suiteNames, p.Name)
	}
	synth := source.NewMapLoader()
	synthName := workload.GenerateSynth(synth, 400, 8, nil).Name
	for _, c := range []struct {
		golden string
		loader source.Loader
		names  []string
	}{
		{"suite", suite.Loader, suiteNames},
		{"synth", synth, []string{synthName}},
	} {
		want := readGoldenListings(t, c.golden)
		if len(want) != len(c.names) {
			t.Fatalf("golden/%s.json names %d listings, the corpus has %d programs", c.golden, len(want), len(c.names))
		}
		for _, name := range c.names {
			seqRes := m2cc.CompileSequential(name, c.loader)
			if seqRes.Failed() {
				t.Fatalf("sequential %s:\n%s", name, seqRes.Diags)
			}
			concRes := m2cc.Compile(name, c.loader, m2cc.Options{Workers: 4})
			if concRes.Failed() {
				t.Fatalf("concurrent %s:\n%s", name, concRes.Diags)
			}
			for mode, o := range map[string]*m2cc.Object{"sequential": seqRes.Object, "concurrent": concRes.Object} {
				sum := sha256.Sum256([]byte(o.Listing()))
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("%s %s: listing SHA-256 %s, golden/%s.json has %s", mode, name, got, c.golden, want[name])
				}
			}
		}
	}
}

func readGoldenListings(t *testing.T, corpus string) map[string]string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("benchmark", "golden", corpus+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Seed     int64             `json:"seed"`
		Listings map[string]string `json:"listings"`
	}
	if err := json.Unmarshal(buf, &g); err != nil {
		t.Fatal(err)
	}
	if g.Seed != 1992 {
		t.Fatalf("golden/%s.json is for seed %d, want 1992", corpus, g.Seed)
	}
	return g.Listings
}
