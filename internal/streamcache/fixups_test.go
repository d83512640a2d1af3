package streamcache

import (
	"testing"
	"unsafe"

	"m2cc/internal/vm"
)

// instr packs one hand-assembled instruction whose A must fit.
func instr(op vm.Op, a, b int32) vm.Instr {
	ins, ok := vm.NewInstr(op, a, b)
	if !ok {
		panic("A does not fit")
	}
	return ins
}

// fixupSegment uses every relocated operand kind next to the three
// that must NOT be relocated: a pooled string, an external call and an
// external procedure value (A < 0, name in Exts).
func fixupSegment() vm.Segment {
	return vm.Segment{
		Strs: []string{""},
		Exts: []string{"Lib.Go"},
		Code: []vm.Instr{
			instr(vm.PushStr, 0, 0),
			instr(vm.Call, 2, 1),
			instr(vm.PushProc, 0, 0),  // local procedure 0: must get a fixup
			instr(vm.PushProc, -1, 0), // external: must not
			instr(vm.CallExt, 0, 1),
			instr(vm.LdGlb, 1, 4),
			instr(vm.Raise, 0, 0),
			instr(vm.RetP, 0, 0),
		},
	}
}

var fixNames = struct{ procs, areas, excs []string }{
	procs: []string{"M.P0", "M.P1", "M.P2"},
	areas: []string{"M.def", "M.mod"},
	excs:  []string{"M.Oops"},
}

func extract(seg vm.Segment) []Fixup {
	return ExtractFixups(seg.Code,
		func(i int32) string { return fixNames.procs[i] },
		func(i int32) string { return fixNames.areas[i] },
		func(i int32) string { return fixNames.excs[i] })
}

// resolver returns ApplyFixups callbacks that shift every index by d.
func resolver(d int32) (func(string, int32) (int32, bool), func(string) int32, func(string) int32) {
	find := func(names []string) func(string) int32 {
		return func(n string) int32 {
			for i, s := range names {
				if s == n {
					return int32(i) + d
				}
			}
			return -1
		}
	}
	procs := find(fixNames.procs)
	return func(n string, _ int32) (int32, bool) { i := procs(n); return i, i >= 0 }, find(fixNames.areas), find(fixNames.excs)
}

func TestFixupsSkipPooledOperands(t *testing.T) {
	seg := fixupSegment()
	fx := extract(seg)
	want := []Fixup{
		{Index: 1, Kind: FixProc, Name: "M.P2"},
		{Index: 2, Kind: FixProc, Name: "M.P0"},
		{Index: 5, Kind: FixArea, Name: "M.mod"},
		{Index: 6, Kind: FixExc, Name: "M.Oops"},
	}
	if len(fx) != len(want) {
		t.Fatalf("fixups %+v, want %+v", fx, want)
	}
	for i := range want {
		if fx[i] != want[i] {
			t.Errorf("fixup %d = %+v, want %+v", i, fx[i], want[i])
		}
	}

	// Same indices: the cached segment itself is returned.
	p, a, e := resolver(0)
	same, ok := ApplyFixups(seg.Code, fx, p, a, e)
	if !ok || &same[0] != &seg.Code[0] {
		t.Fatalf("matching registry must share the cached code (ok=%v)", ok)
	}

	// Shifted indices: a copy, relocated; pooled operands untouched and
	// the cached record unmodified.
	orig := append([]vm.Instr(nil), seg.Code...)
	p, a, e = resolver(3)
	moved, ok := ApplyFixups(seg.Code, fx, p, a, e)
	if !ok || &moved[0] == &seg.Code[0] {
		t.Fatalf("moved registry must copy (ok=%v)", ok)
	}
	for i, ins := range seg.Code {
		if ins != orig[i] {
			t.Fatalf("cached instruction %d was modified: %+v", i, ins)
		}
	}
	for i, w := range []int32{0, 5, 3, -1, 0, 4, 3, 0} {
		if moved[i].A() != w {
			t.Errorf("instr %d (%s): A = %d, want %d", i, moved[i].Op(), moved[i].A(), w)
		}
		if moved[i].B != orig[i].B || moved[i].Op() != orig[i].Op() {
			t.Errorf("instr %d: only A may change: %+v vs %+v", i, moved[i], orig[i])
		}
	}

	// An index past vm.MaxA fails the install rather than wrapping.
	p, a, e = resolver(vm.MaxA)
	if _, ok := ApplyFixups(seg.Code, fx, p, a, e); ok {
		t.Fatal("an index past vm.MaxA must fail the install")
	}

	// An unknown procedure name fails the install.
	if _, ok := ApplyFixups(seg.Code, []Fixup{{Index: 1, Kind: FixProc, Name: "M.Gone"}}, p, a, e); ok {
		t.Fatal("unknown procedure must fail the install")
	}
}

// BenchmarkApplyFixups relocates a 4096-instruction segment in which
// every fourth operand is symbolic: the copy path a warm install pays
// when the registry order moved.
func BenchmarkApplyFixups(b *testing.B) {
	unit := fixupSegment().Code
	var code []vm.Instr
	for len(code) < 4096 {
		code = append(code, unit...)
	}
	fx := extract(vm.Segment{Code: code})
	p, a, e := resolver(3)
	b.SetBytes(int64(len(code)) * int64(unsafe.Sizeof(vm.Instr{})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, ok := ApplyFixups(code, fx, p, a, e); !ok || len(out) != len(code) {
			b.Fatal("install failed")
		}
	}
}
