package vm_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"m2cc/internal/seq"
	"m2cc/internal/source"
	"m2cc/internal/vm"
	"m2cc/internal/workload"
)

// numOps counts the defined opcodes through the exported surface.
func numOps() int {
	n := 0
	for !strings.HasPrefix(vm.Op(n).String(), "OP(") {
		n++
	}
	return n
}

// TestListingEveryOpcode renders one instruction per opcode — bare, and
// with every operand field set — and requires the append renderer to
// equal the fmt reference, so no mnemonic can fall through to a
// divergent default.
func TestListingEveryOpcode(t *testing.T) {
	n := numOps()
	if n != 83 {
		t.Errorf("%d opcodes defined, this table was written for 83: check appendInstr covers the new ones", n)
	}
	callee := &vm.ProcMeta{Name: "Outer.Inner", Segment: vm.Segment{Code: []vm.Instr{instr(vm.RetP, 0, 0)}}}
	seg := vm.Segment{
		Strs: []string{"", "a \"quoted\"\nline\x00"},
		Exts: []string{"Lib.Go", "Lib.Stop", "Lib.Halt"},
		Ints: []int64{255, math.MinInt64, int64(math.Float64bits(-2.5e-300)), math.MaxInt64},
	}
	for op := 0; op < n+2; op++ { // two past the end: unknown opcodes
		seg.Code = append(seg.Code,
			instr(vm.Op(op), 0, 0),
			instr(vm.Op(op), 1, 1),
			instr(vm.Op(op), -1, 2))
	}
	o := handObject(seg, callee)
	o.Areas = []*vm.Area{{Name: "M.mod", Slots: 3}, {Name: "M.def", Slots: 70000}}
	o.Excs = []string{"M.Oops", "Lib.Overflow"}
	// A = -1 indexes nothing for the opcodes whose A names a proc, area
	// or exception; give those a valid operand instead.
	for i := range seg.Code {
		switch ins := seg.Code[i]; ins.Op() {
		case vm.Call, vm.LdGlb, vm.StGlb, vm.LdaGlb, vm.Raise, vm.ExcIs, vm.PushStr, vm.CallExt:
			if ins.A() < 0 {
				seg.Code[i] = instr(ins.Op(), 0, ins.B)
			}
		}
	}
	got, want := o.Listing(), refListing(o)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs\n got: %q\nwant: %q", i, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("listing has %d lines, reference %d", len(gl), len(wl))
	}
	if lines := strings.Count(got, "\n"); lines != 1+2+2+3*(n+2)+1 {
		t.Errorf("listing has %d lines", lines)
	}
}

// listingCorpus compiles the programs the listing contract is pinned
// on: the full generated suite, the Synth program, and the example
// modules.
func listingCorpus(tb testing.TB) []*vm.Object {
	tb.Helper()
	var objs []*vm.Object
	add := func(name string, loader source.Loader) {
		res := seq.Compile(name, loader)
		if res.Failed() {
			tb.Fatalf("compile %s:\n%s", name, res.Diags)
		}
		objs = append(objs, res.Object)
	}
	suite := workload.GenerateSuite(1992, 1)
	for _, p := range suite.Programs {
		add(p.Name, suite.Loader)
	}
	synth := source.NewMapLoader()
	add(workload.GenerateSynth(synth, 400, 8, nil).Name, synth)
	dir := filepath.Join("..", "..", "examples", "modules")
	mods, err := filepath.Glob(filepath.Join(dir, "*.mod"))
	if err != nil || len(mods) == 0 {
		tb.Fatalf("no example modules under %s: %v", dir, err)
	}
	for _, m := range mods {
		add(strings.TrimSuffix(filepath.Base(m), ".mod"), &source.DirLoader{Dirs: []string{dir}})
	}
	return objs
}

func TestListingMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full generated suite")
	}
	for _, o := range listingCorpus(t) {
		if got, want := o.Listing(), refListing(o); got != want {
			t.Errorf("%s: listing differs from the fmt reference (%d vs %d bytes)", o.Module, len(got), len(want))
		}
	}
}

// BenchmarkListing renders the 37 suite listings; MB/s is over the
// rendered bytes.  The fmt-reference sub-benchmark is the renderer this
// one replaced, on the same objects.
func BenchmarkListing(b *testing.B) {
	objs := listingCorpus(b)[:37]
	var n int64
	for _, o := range objs {
		n += int64(len(o.Listing()))
	}
	for _, r := range []struct {
		name   string
		render func(*vm.Object) string
	}{{"append", (*vm.Object).Listing}, {"fmt-reference", refListing}} {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, o := range objs {
					sink = r.render(o)
				}
			}
		})
	}
}

var sink string
