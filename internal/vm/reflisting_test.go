package vm_test

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"m2cc/internal/vm"
)

// refListing is the fmt-based renderer Object.Listing used before it
// became an append pass, kept test-only as the reference the fast
// renderer must match byte for byte (listing_test.go).  One Fprintf and
// one Sprintf per instruction; only the operand sources changed with
// the pooled encoding (wide operands from the Ints pool) and Op and A
// became accessors with the 8-byte one.
func refListing(o *vm.Object) string {
	procs := append([]*vm.ProcMeta(nil), o.Procs...)
	sort.Slice(procs, func(i, j int) bool {
		if procs[i].Module != procs[j].Module {
			return procs[i].Module < procs[j].Module
		}
		if procs[i].Pos != procs[j].Pos {
			return procs[i].Pos.Before(procs[j].Pos)
		}
		return procs[i].Name < procs[j].Name
	})
	areas := append([]*vm.Area(nil), o.Areas...)
	sort.Slice(areas, func(i, j int) bool { return areas[i].Name < areas[j].Name })

	var sb strings.Builder
	fmt.Fprintf(&sb, "OBJECT %s\n", o.Module)
	for _, a := range areas {
		fmt.Fprintf(&sb, "AREA %s %d\n", a.Name, a.Slots)
	}
	for _, p := range procs {
		kind := "PROC"
		if p.IsBody {
			kind = "BODY"
		}
		fmt.Fprintf(&sb, "%s %s (level=%d args=%d frame=%d ret=%v)\n",
			kind, p.FullName(), p.Level, p.ArgSlots, p.Frame, p.HasRet)
		for pc, ins := range p.Code {
			fmt.Fprintf(&sb, "%5d  %s\n", pc, refFormat(o, p, ins))
		}
	}
	return sb.String()
}

func refFormat(o *vm.Object, p *vm.ProcMeta, ins vm.Instr) string {
	switch ins.Op() {
	case vm.PushInt:
		v := int64(ins.B)
		if ins.A() < 0 {
			v = p.Ints[ins.B]
		}
		return fmt.Sprintf("%-9s %d", ins.Op(), v)
	case vm.PushReal:
		return fmt.Sprintf("%-9s %G", ins.Op(), math.Float64frombits(uint64(p.Ints[ins.B])))
	case vm.PushStr:
		return fmt.Sprintf("%-9s %q", ins.Op(), p.Strs[ins.A()])
	case vm.PushProc:
		if ins.A() < 0 {
			return fmt.Sprintf("%-9s %s", ins.Op(), p.Exts[ins.B])
		}
		return fmt.Sprintf("%-9s %s", ins.Op(), o.Procs[ins.A()].FullName())
	case vm.LdGlb, vm.StGlb, vm.LdaGlb:
		return fmt.Sprintf("%-9s %s+%d", ins.Op(), o.Areas[ins.A()].Name, ins.B)
	case vm.LdLoc, vm.StLoc, vm.LdaLoc:
		return fmt.Sprintf("%-9s up%d+%d", ins.Op(), ins.A(), ins.B)
	case vm.Call:
		return fmt.Sprintf("%-9s %s", ins.Op(), o.Procs[ins.A()].FullName())
	case vm.CallExt:
		return fmt.Sprintf("%-9s %s", ins.Op(), p.Exts[ins.A()])
	case vm.CallInd:
		return fmt.Sprintf("%-9s args=%d", ins.Op(), ins.B)
	case vm.Raise, vm.ExcIs:
		return fmt.Sprintf("%-9s %s", ins.Op(), o.Excs[ins.A()])
	case vm.Jmp, vm.Jz, vm.Jnz, vm.EnterTry:
		return fmt.Sprintf("%-9s ->%d", ins.Op(), ins.A())
	case vm.Index:
		return fmt.Sprintf("%-9s lo=%d elems=%d size=%d", ins.Op(), p.Ints[ins.B], p.Ints[ins.B+1], ins.A())
	case vm.IndexOp:
		return fmt.Sprintf("%-9s size=%d", ins.Op(), ins.A())
	case vm.ChkRange:
		return fmt.Sprintf("%-9s %d..%d", ins.Op(), p.Ints[ins.B], p.Ints[ins.B+1])
	case vm.CmpI, vm.CmpF, vm.CmpS, vm.CmpA, vm.SetCmp:
		return fmt.Sprintf("%-9s rel=%d", ins.Op(), ins.A())
	case vm.Copy, vm.NewObj:
		return fmt.Sprintf("%-9s slots=%d", ins.Op(), ins.A())
	case vm.MathOp:
		return fmt.Sprintf("%-9s fn=%d", ins.Op(), ins.A())
	default:
		if ins.A() != 0 || ins.B != 0 {
			return fmt.Sprintf("%-9s a=%d b=%d imm=0", ins.Op(), ins.A(), ins.B)
		}
		return ins.Op().String()
	}
}
