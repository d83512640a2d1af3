package vm_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"m2cc/internal/vm"
)

// TestInstrIsSmallAndPointerFree pins the two properties the object
// code path is built on: a segment is 12 bytes per instruction, and it
// holds nothing the garbage collector has to scan.
func TestInstrIsSmallAndPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(vm.Instr{}); sz != 12 {
		t.Fatalf("vm.Instr is %d bytes, want 12", sz)
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
			{Op: vm.PushReal, B: 1},
			{Op: vm.PushInt},
			{Op: vm.IOWriteReal},
			{Op: vm.RetP},
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
		seg.Code = append(seg.Code, vm.Instr{Op: vm.PushStr, A: int32(i)}, vm.Instr{Op: vm.IOWriteText})
		want.WriteString(s)
	}
	seg.Code = append(seg.Code, vm.Instr{Op: vm.RetP})
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
	local := &vm.ProcMeta{Name: "Local", Exported: true, Segment: vm.Segment{Code: []vm.Instr{{Op: vm.RetP}}}}
	seg := vm.Segment{
		Strs: []string{""},
		Exts: []string{"M.Local"},
		Code: []vm.Instr{
			{Op: vm.PushStr, A: 0},
			{Op: vm.IOWriteText},
			{Op: vm.PushProc, A: 1},        // local: object index 1
			{Op: vm.PushProc, A: -1, B: 0}, // external: Exts[0], resolves to the same procedure
			{Op: vm.CmpA, A: vm.RelEq},
			{Op: vm.PushInt},
			{Op: vm.IOWriteInt},
			{Op: vm.RetP},
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
				{Op: vm.PushInt, A: -1, B: 3},
				{Op: vm.ChkRange, B: 1, A: 12},
				{Op: vm.PushInt},
				{Op: vm.IOWriteInt},
				{Op: vm.RetP},
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
	for _, ins := range []vm.Instr{{Op: vm.CallExt, A: 1}, {Op: vm.PushProc, A: -1, B: 1}} {
		fine := &vm.ProcMeta{Name: "Fine", Exported: true, Segment: vm.Segment{Code: []vm.Instr{{Op: vm.RetP}}}}
		o := handObject(vm.Segment{
			Exts: []string{"M.Fine", "Lib.Gone"},
			Code: []vm.Instr{ins, {Op: vm.RetP}},
		}, fine)
		_, err := vm.Link([]*vm.Object{o}, "M")
		const want = "link: undefined procedure Lib.Gone (referenced by M)"
		if err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %q", ins.Op, err, want)
		}
	}
}
