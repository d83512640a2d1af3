package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"m2cc"
	"m2cc/internal/source"
)

// goldenSeed is the seed whose listings are committed under golden/.
const goldenSeed = 1992

// reference is what the sequential compiler — the paper's baseline and
// this repository's reference implementation — makes of one program.
type reference struct {
	Hash   string // SHA-256 of the object listing
	Instrs int
}

func sha256Hex(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// instrCount is the number of VM instructions in an object.
func instrCount(o *m2cc.Object) int {
	n := 0
	for _, p := range o.Procs {
		n += len(p.Code)
	}
	return n
}

// seqReference compiles the module sequentially, with no cache.
func seqReference(module string, loader source.Loader) (reference, error) {
	res := m2cc.CompileSequential(module, loader)
	if res.Failed() {
		return reference{}, fmt.Errorf("sequential compile of %s failed:\n%s", module, res.Diags)
	}
	return reference{Hash: sha256Hex(res.Object.Listing()), Instrs: instrCount(res.Object)}, nil
}

// seqReferences compiles every program of the corpus sequentially.
func seqReferences(c *corpus) (map[string]reference, error) {
	out := make(map[string]reference, len(c.progs))
	for _, p := range c.progs {
		ref, err := seqReference(p.Name, c.loader)
		if err != nil {
			return nil, err
		}
		out[p.Name] = ref
	}
	return out, nil
}

// synthExpected evaluates the synthetic module's arithmetic in Go and
// returns what the compiled program must print: the reference output
// owes nothing to the compiler or the VM under test.
func synthExpected(procs, reps int) string {
	work := func(x, y int) int {
		acc := x
		for rep := 0; rep < reps; rep++ {
			for i := 0; i <= 9; i++ {
				for j := 0; j <= 4; j++ {
					acc += i*j + y
				}
			}
			if acc%2 != 0 {
				acc++
			} else {
				acc /= 2
			}
			for acc > 1000 {
				acc /= 3
			}
		}
		return acc
	}
	total := 0
	for k := 0; k < procs; k++ {
		total += work(k+1, (k*7)%5+1)
	}
	return fmt.Sprintf("%8d\n", total)
}

// golden is one committed file of listing hashes.
type golden struct {
	Seed     int64             `json:"seed"`
	Listings map[string]string `json:"listings"` // module → SHA-256 of its listing
}

func goldenPath(root, corpusName string) string {
	return filepath.Join(root, "benchmark", "golden", corpusName+".json")
}

func readGolden(root, corpusName string) (*golden, error) {
	buf, err := os.ReadFile(goldenPath(root, corpusName))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(buf, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root, corpusName), err)
	}
	return &g, nil
}

func writeGolden(root, corpusName string, refs map[string]reference) error {
	g := golden{Seed: goldenSeed, Listings: map[string]string{}}
	for name, ref := range refs {
		g.Listings[name] = ref.Hash
	}
	buf, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root, corpusName), append(buf, '\n'), 0o644)
}

// checkGolden counts the programs whose reference listing differs from
// the committed hash.  Programs the golden file does not name count as
// mismatches: the file is regenerated whenever the generator changes.
func checkGolden(g *golden, refs map[string]reference) (checked, mismatched int, first string) {
	names := make([]string, 0, len(refs))
	for name := range refs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checked++
		if g.Listings[name] != refs[name].Hash {
			mismatched++
			if first == "" {
				first = name
			}
		}
	}
	return checked, mismatched, first
}
