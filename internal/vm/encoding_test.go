package vm_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// TestInstrIsSmallAndPointerFree pins the two properties the object
// code path is built on: a segment is 8 bytes per instruction, and it
// holds nothing the garbage collector has to scan.
func TestInstrIsSmallAndPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(vm.Instr{}); sz != 8 {
		t.Fatalf("vm.Instr is %d bytes, want 8", sz)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		default:
			t.Errorf("%s has pointer-bearing kind %s", path, ty.Kind())
		}
	}
	walk("Instr", reflect.TypeOf(vm.Instr{}))
}

// instr packs one hand-assembled instruction whose A must fit.
func instr(op vm.Op, a, b int32) vm.Instr {
	ins, ok := vm.NewInstr(op, a, b)
	if !ok {
		panic(fmt.Sprintf("%s: A=%d does not fit", op, a))
	}
	return ins
}

// TestEncodingRoundTrip: every opcode comes back with A at the ends of
// its 24-bit range and around zero, and B at its int32 extremes; one
// past either end of A is refused, not truncated.
func TestEncodingRoundTrip(t *testing.T) {
	if vm.MinA != -1<<23 || vm.MaxA != 1<<23-1 || types.MaxSlots != vm.MaxA {
		t.Fatalf("A spans [%d, %d], storage sizes end at %d", vm.MinA, vm.MaxA, types.MaxSlots)
	}
	for op := vm.Op(0); int(op) < numOps(); op++ {
		for _, a := range []int32{vm.MinA, -1, 0, vm.MaxA} {
			for _, b := range []int32{math.MinInt32, -1, 0, math.MaxInt32} {
				ins, ok := vm.NewInstr(op, a, b)
				if !ok || ins.Op() != op || ins.A() != a || ins.B != b {
					t.Fatalf("NewInstr(%s, %d, %d) = %s, %d, %d (ok=%v)", op, a, b, ins.Op(), ins.A(), ins.B, ok)
				}
			}
		}
		for _, a := range []int32{vm.MinA - 1, vm.MaxA + 1, math.MinInt32, math.MaxInt32} {
			if _, ok := vm.NewInstr(op, a, 0); ok {
				t.Errorf("NewInstr(%s, %d, 0) accepted an A that does not fit", op, a)
			}
		}
	}
}

// TestLinkRefusesWideIndex: a procedure index that relocation pushes
// past MaxA fails the link instead of wrapping.
func TestLinkRefusesWideIndex(t *testing.T) {
	lib := &vm.Object{Module: "A", Body: -1, Procs: []*vm.ProcMeta{{Module: "A", Name: "P",
		Segment: vm.Segment{Code: []vm.Instr{instr(vm.RetP, 0, 0)}}}}}
	o := handObject(vm.Segment{Code: []vm.Instr{instr(vm.Call, vm.MaxA, 0), instr(vm.RetP, 0, 0)}})
	_, err := vm.Link([]*vm.Object{lib, o}, "M")
	const want = "link: implementation limit: operand 8388608 of CALL in M..body exceeds 8 388 607"
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}

// handObject wraps one hand-assembled body (plus optional extra procs)
// into an Object, for operands no source text can produce.
func handObject(body vm.Segment, extra ...*vm.ProcMeta) *vm.Object {
	o := &vm.Object{Module: "M", Body: 0}
	o.Procs = append(o.Procs, &vm.ProcMeta{Idx: 0, Module: "M", IsBody: true, Segment: body})
	for i, p := range extra {
		p.Idx = int32(i + 1)
		p.Module = "M"
		o.Procs = append(o.Procs, p)
	}
	return o
}

func runObject(t *testing.T, o *vm.Object) string {
	t.Helper()
	prog, err := vm.Link([]*vm.Object{o}, o.Module)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	var out strings.Builder
	if err := vm.NewMachine(prog, nil, &out).Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// TestRealOperandsRoundTrip: a REAL travels as Float64bits in the Ints
// pool and
// must come back as the same value — the %G text the fmt renderer
// printed in the listing, and the same text from the machine — for the
// values a lossy encoding would mangle (codegen's side of the round
// trip is TestPooledOperands in internal/codegen).
func TestRealOperandsRoundTrip(t *testing.T) {
	reals := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1e21, 1e-7, 123456789.125,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with a payload
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest denormal
		math.MaxFloat64,
	}
	for _, f := range reals {
		bits := math.Float64bits(f)
		seg := vm.Segment{Ints: []int64{7, int64(bits)}, Code: []vm.Instr{
			instr(vm.PushReal, 0, 1),
			instr(vm.PushInt, 0, 0),
			instr(vm.IOWriteReal, 0, 0),
			instr(vm.RetP, 0, 0),
		}}
		o := handObject(seg)
		wantLine := fmt.Sprintf("    0  %-9s %G\n", "PUSHF", f)
		if l := o.Listing(); !strings.Contains(l, wantLine) {
			t.Errorf("%G (%#x): listing lacks %q:\n%s", f, bits, wantLine, l)
		}
		if got, want := runObject(t, o), fmt.Sprintf("%G", f); got != want {
			t.Errorf("%G (%#x): machine printed %q, want %q", f, bits, got, want)
		}
	}
}

// TestStringOperandsRoundTrip: string operands live in the Strs pool;
// quotes, newlines, NUL bytes, invalid UTF-8 and the empty string must
// list as %q did and reach the machine unchanged.
func TestStringOperandsRoundTrip(t *testing.T) {
	strs := []string{"", "plain", `say "hi"`, "two\nlines", "nul\x00byte", "tab\there", "\xff\xfe", "ünïcödé", `back\slash`}
	seg := vm.Segment{Strs: strs}
	var want strings.Builder
	for i, s := range strs {
		seg.Code = append(seg.Code, instr(vm.PushStr, int32(i), 0), instr(vm.IOWriteText, 0, 0))
		want.WriteString(s)
	}
	seg.Code = append(seg.Code, instr(vm.RetP, 0, 0))
	o := handObject(seg)
	l := o.Listing()
	for i, s := range strs {
		line := fmt.Sprintf("%5d  %-9s %q\n", 2*i, "PUSHS", s)
		if !strings.Contains(l, line) {
			t.Errorf("listing lacks %q:\n%s", line, l)
		}
	}
	if got := runObject(t, o); got != want.String() {
		t.Errorf("machine printed %q, want %q", got, want.String())
	}
}

// TestEmptyStringVersusProcedureOperands: with no S field, an empty
// PushStr, a local PushProc and an external PushProc can all carry
// A == 0 or B == 0; the opcode and the sign of A keep them apart in the
// listing and in the linker.
func TestEmptyStringVersusProcedureOperands(t *testing.T) {
	local := &vm.ProcMeta{Name: "Local", Exported: true, Segment: vm.Segment{Code: []vm.Instr{instr(vm.RetP, 0, 0)}}}
	seg := vm.Segment{
		Strs: []string{""},
		Exts: []string{"M.Local"},
		Code: []vm.Instr{
			instr(vm.PushStr, 0, 0),
			instr(vm.IOWriteText, 0, 0),
			instr(vm.PushProc, 1, 0),  // local: object index 1
			instr(vm.PushProc, -1, 0), // external: Exts[0], resolves to the same procedure
			instr(vm.CmpA, vm.RelEq, 0),
			instr(vm.PushInt, 0, 0),
			instr(vm.IOWriteInt, 0, 0),
			instr(vm.RetP, 0, 0),
		},
	}
	o := handObject(seg, local)
	l := o.Listing()
	for _, line := range []string{
		"    0  PUSHS     \"\"\n",
		"    2  PUSHPROC  M.Local\n",
		"    3  PUSHPROC  M.Local\n",
	} {
		if !strings.Contains(l, line) {
			t.Errorf("listing lacks %q:\n%s", line, l)
		}
	}
	if l != refListing(o) {
		t.Errorf("listing differs from reference:\n%s\nwant:\n%s", l, refListing(o))
	}
	if got := runObject(t, o); got != "1" {
		t.Errorf("local and external PushProc of one procedure compare %q, want \"1\"", got)
	}
}

// TestChkRangeWideBounds: ChkRange stays one instruction whose bounds
// come from the Ints pool, so bounds beyond int32 (LONGINT and CARDINAL
// subranges) survive; so does a PushInt of a value beyond int32.
func TestChkRangeWideBounds(t *testing.T) {
	const lo, hi = int64(math.MinInt64), int64(math.MaxInt32) + 1000
	for _, c := range []struct {
		v    int64
		trap string
	}{
		{hi, ""},
		{lo, ""},
		{hi + 1, fmt.Sprintf("value %d outside range %d..%d", hi+1, lo, hi)},
	} {
		o := handObject(vm.Segment{
			Ints: []int64{7, lo, hi, c.v},
			Code: []vm.Instr{
				instr(vm.PushInt, -1, 3),
				instr(vm.ChkRange, 12, 1),
				instr(vm.PushInt, 0, 0),
				instr(vm.IOWriteInt, 0, 0),
				instr(vm.RetP, 0, 0),
			},
		})
		if line := fmt.Sprintf("    1  CHKRNG    %d..%d\n", lo, hi); !strings.Contains(o.Listing(), line) {
			t.Fatalf("listing lacks %q:\n%s", line, o.Listing())
		}
		prog, err := vm.Link([]*vm.Object{o}, "M")
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err = vm.NewMachine(prog, nil, &out).Run()
		switch {
		case c.trap == "" && (err != nil || out.String() != fmt.Sprint(c.v)):
			t.Errorf("v=%d: err=%v out=%q", c.v, err, out.String())
		case c.trap != "" && (err == nil || !strings.Contains(err.Error(), c.trap) || !strings.Contains(err.Error(), "line 12")):
			t.Errorf("v=%d: want trap %q at line 12, got %v", c.v, c.trap, err)
		}
	}
}

// TestLinkUndefinedExternalNamesReferrer pins the link diagnostic for
// both external operand forms now that the name comes from the pool.
func TestLinkUndefinedExternalNamesReferrer(t *testing.T) {
	for _, ins := range []vm.Instr{instr(vm.CallExt, 1, 0), instr(vm.PushProc, -1, 1)} {
		fine := &vm.ProcMeta{Name: "Fine", Exported: true, Segment: vm.Segment{Code: []vm.Instr{instr(vm.RetP, 0, 0)}}}
		o := handObject(vm.Segment{
			Exts: []string{"M.Fine", "Lib.Gone"},
			Code: []vm.Instr{ins, instr(vm.RetP, 0, 0)},
		}, fine)
		_, err := vm.Link([]*vm.Object{o}, "M")
		const want = "link: undefined procedure Lib.Gone (referenced by M)"
		if err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %q", ins.Op(), err, want)
		}
	}
}
