package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"m2cc"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/impscan"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/workload"
)

// program is one implementation module of a corpus.
type program struct {
	Name  string
	Text  string
	Defs  []string    // transitive .def closure, sorted
	Edits []editPoint // one per top-level procedure that has an editable literal
}

// corpus is the generated input of one workload: the loader every
// compilation reads from and the programs one pass compiles, in order.
type corpus struct {
	loader *m2cc.MapLoader
	lib    *workload.Library // nil for the synthetic module
	progs  []*program
	known  *defImports // interface imports scanned so far; nil for the synthetic module
}

// bytes is the source size of one pass: the implementation modules only
// (interfaces are shared and compiled at most once per pass).
func (c *corpus) bytes() int {
	n := 0
	for _, p := range c.progs {
		n += len(p.Text)
	}
	return n
}

// streams is the number of streams the programs split into: one per
// procedure, nested ones included, and one module body each.
func (c *corpus) streams() int {
	n := 0
	for _, p := range c.progs {
		n += 1 + strings.Count(p.Text, "PROCEDURE ")
	}
	return n
}

// defNames returns the union of the programs' interface closures.
func (c *corpus) defNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range c.progs {
		for _, d := range p.Defs {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}

// suiteCorpus generates the 37-program suite of Table 1.
func suiteCorpus(seed int64, scale float64) (*corpus, error) {
	s := workload.GenerateSuite(seed, scale)
	c := &corpus{loader: s.Loader, lib: s.Library, known: newDefImports()}
	for _, info := range s.Programs {
		p, err := newProgram(info.Name, s.Loader, c.known)
		if err != nil {
			return nil, err
		}
		c.progs = append(c.progs, p)
	}
	return c, nil
}

// synthProcs and synthReps size the §4.2 best-case module at scale 1.
const (
	synthProcs = 400
	synthReps  = 8
)

func synthProcCount(scale float64) int {
	if procs := int(math.Round(synthProcs * scale)); procs > 8 {
		return procs
	}
	return 8
}

// synthCorpus generates the synthetic best-case module.  The generator
// takes no seed: the module is the same on every run by construction.
func synthCorpus(scale float64) (*corpus, error) {
	loader := m2cc.NewMapLoader()
	workload.GenerateSynth(loader, synthProcCount(scale), synthReps, nil)
	p, err := newProgram("Synth", loader, newDefImports())
	if err != nil {
		return nil, err
	}
	return &corpus{loader: loader, progs: []*program{p}}, nil
}

func newProgram(name string, loader source.Loader, known *defImports) (*program, error) {
	text, err := loader.Load(name, source.Impl)
	if err != nil {
		return nil, err
	}
	defs, err := known.closure(text, loader)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &program{Name: name, Text: text, Defs: defs, Edits: findEditPoints(text)}, nil
}

// directImports returns the modules text imports, in order.
func directImports(name string, kind source.FileKind, text string) []string {
	toks := lexer.ScanAll(source.NewSet().Add(name, kind, text), &ctrace.TaskCtx{}, diag.NewBag(0))
	return impscan.Names(toks)
}

// defImports remembers the direct imports of interfaces already scanned:
// the programs of a suite share most of their closures.  It is safe for
// concurrent use (serve.mix builds requests on every connection).
type defImports struct {
	mu sync.Mutex // guards: m
	m  map[string][]string
}

func newDefImports() *defImports { return &defImports{m: map[string][]string{}} }

// of returns the direct imports of the named interface.
func (known *defImports) of(name string, loader source.Loader) ([]string, error) {
	known.mu.Lock()
	defer known.mu.Unlock()
	if imports, ok := known.m[name]; ok {
		return imports, nil
	}
	def, err := loader.Load(name, source.Def)
	if err != nil {
		return nil, fmt.Errorf("interface closure: %w", err)
	}
	known.m[name] = directImports(name, source.Def, def)
	return known.m[name], nil
}

// closure returns the sorted names of every definition module the text
// imports directly or indirectly — what a served request must carry
// beside the module itself.
func (known *defImports) closure(text string, loader source.Loader) ([]string, error) {
	seen := map[string]bool{}
	queue := directImports("", source.Impl, text)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		seen[name] = true
		imports, err := known.of(name, loader)
		if err != nil {
			return nil, err
		}
		queue = append(queue, imports...)
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// editPoint locates one integer literal inside a top-level procedure
// body: text[Start:End] are its digits.
type editPoint struct {
	Proc       string
	Start, End int
}

// editMarker precedes the literal an edit replaces: the bound of the
// WHILE loop that closes every statement group the generator emits.
const editMarker = "WHILE acc > "

// findEditPoints returns one edit point per top-level procedure: the
// first WHILE bound between its heading and its END.  Nested procedures
// carry no WHILE, so the literal always belongs to the outer body.
func findEditPoints(text string) []editPoint {
	var out []editPoint
	pos := 0
	for {
		i := strings.Index(text[pos:], "\nPROCEDURE ")
		if i < 0 {
			return out
		}
		head := pos + i + len("\nPROCEDURE ")
		nameEnd := head + strings.IndexAny(text[head:], "(;")
		name := text[head:nameEnd]
		closing := "\nEND " + name + ";"
		j := strings.Index(text[nameEnd:], closing)
		if j < 0 {
			return out
		}
		end := nameEnd + j
		if m := strings.Index(text[nameEnd:end], editMarker); m >= 0 {
			s := nameEnd + m + len(editMarker)
			e := s
			for e < end && text[e] >= '0' && text[e] <= '9' {
				e++
			}
			if e > s {
				out = append(out, editPoint{Proc: name, Start: s, End: e})
			}
		}
		pos = end + len(closing)
	}
}

// editor makes one-procedure edits.  Every edit replaces one literal
// with a value no earlier edit and no generated program has used, so no
// recompile can be answered from an earlier pass's cache entries.
type editor struct {
	rng  *rand.Rand
	next int
}

// firstFreshLiteral is above every literal the generators emit.
const firstFreshLiteral = 1000000

func newEditor(seed int64) *editor {
	return &editor{rng: rand.New(rand.NewSource(seed)), next: firstFreshLiteral}
}

// edit returns p's text with the literal of one seeded-random procedure
// replaced, and that procedure's name.  The edit adds and removes no
// line.
func (e *editor) edit(p *program) (text, proc string) {
	pt := p.Edits[e.rng.Intn(len(p.Edits))]
	e.next++
	return p.Text[:pt.Start] + strconv.Itoa(e.next) + p.Text[pt.End:], pt.Proc
}

// overlay is a loader that serves one edited implementation module over
// an unchanged base.
type overlay struct {
	base source.Loader
	name string
	text string
}

func (o *overlay) Load(name string, kind source.FileKind) (string, error) {
	if kind == source.Impl && name == o.name {
		return o.text, nil
	}
	return o.base.Load(name, kind)
}
