package vm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// ValKind tags polymorphic values (only where instructions are
// polymorphic: NIL, addresses and procedure values under CmpA).
type ValKind uint8

// Value kinds.
const (
	VInt ValKind = iota
	VReal
	VStr
	VAddr
	VProc
	VNil
)

// Addr is a machine address: a storage container plus a slot offset.
type Addr struct {
	Mem []Value
	Off int32
}

// Value is one machine slot or stack entry.
type Value struct {
	K ValKind
	I int64
	F float64
	S string
	A Addr
}

func intVal(i int64) Value    { return Value{K: VInt, I: i} }
func realVal(f float64) Value { return Value{K: VReal, F: f} }
func strVal(s string) Value   { return Value{K: VStr, S: s} }
func addrVal(a Addr) Value    { return Value{K: VAddr, A: a} }
func procVal(idx int32) Value { return Value{K: VProc, I: int64(idx)} }
func nilVal() Value           { return Value{K: VNil} }
func sameAddr(a, b Addr) bool {
	if len(a.Mem) == 0 || len(b.Mem) == 0 {
		return len(a.Mem) == 0 && len(b.Mem) == 0 && a.Off == b.Off
	}
	return &a.Mem[0] == &b.Mem[0] && a.Off == b.Off
}

// RuntimeError is a trap raised by the running program.
type RuntimeError struct {
	Msg  string
	Line int32
	Proc string
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("runtime error in %s (line %d): %s", e.Proc, e.Line, e.Msg)
	}
	return fmt.Sprintf("runtime error in %s: %s", e.Proc, e.Msg)
}

// Machine executes a linked Program.
type Machine struct {
	prog  *Program
	areas [][]Value
	out   io.Writer
	in    *bufio.Reader

	steps    int64
	MaxSteps int64 // execution budget; 0 selects a generous default

	halted bool
}

// NewMachine prepares a machine for one run of prog.
func NewMachine(prog *Program, in io.Reader, out io.Writer) *Machine {
	m := &Machine{prog: prog, out: out, MaxSteps: 200_000_000}
	if in == nil {
		in = strings.NewReader("")
	}
	m.in = bufio.NewReader(in)
	m.areas = make([][]Value, len(prog.AreaDefs))
	for i, a := range prog.AreaDefs {
		m.areas[i] = make([]Value, a.Slots)
	}
	return m
}

type frame struct {
	slots []Value
	up    *frame
}

// staticLink computes the callee's static link given the caller's frame
// and levels.
func staticLink(caller *frame, callerLevel, calleeLevel int32) *frame {
	link := caller
	for l := callerLevel; l >= calleeLevel && link != nil; l-- {
		link = link.up
	}
	return link
}

// Run executes module initialization bodies followed by the main body.
// It returns the first runtime error, unhandled exception or HALT
// (HALT is a normal stop, returning nil).
func (m *Machine) Run() error {
	for _, b := range m.prog.Init {
		if err := m.runTop(b); err != nil || m.halted {
			return err
		}
	}
	if m.prog.Entry >= 0 {
		return m.runTop(m.prog.Entry)
	}
	return nil
}

func (m *Machine) runTop(proc int32) error {
	_, exc, err := m.call(proc, nil, nil, 0)
	if err != nil {
		return err
	}
	if exc >= 0 {
		return fmt.Errorf("unhandled exception %s", m.prog.Excs[exc])
	}
	return nil
}

// call runs one procedure.  args are the argument slots (frame prefix);
// callerFrame/callerLevel supply the static link.  It returns the
// function result (if any), a raised-exception index (-1 none) and a
// trap error.
func (m *Machine) call(procIdx int32, args []Value, callerFrame *frame, callerLevel int32) (Value, int32, error) {
	p := m.prog.Procs[procIdx]
	f := &frame{slots: make([]Value, p.Frame)}
	copy(f.slots, args)
	if p.Level > 0 {
		f.up = staticLink(callerFrame, callerLevel, p.Level)
	}

	stack := make([]Value, 0, 16)
	push := func(v Value) { stack = append(stack, v) }
	pop := func() Value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	trap := func(line int32, format string, a ...any) error {
		return &RuntimeError{Msg: fmt.Sprintf(format, a...), Line: line, Proc: p.FullName()}
	}
	frameAt := func(hops int32) *frame {
		fr := f
		for ; hops > 0; hops-- {
			fr = fr.up
		}
		return fr
	}

	var tryStack []int32
	curExc := int32(-1)
	code, ints := p.Code, p.Ints

	for pc := int32(0); pc >= 0 && int(pc) < len(code); pc++ {
		m.steps++
		if m.steps > m.MaxSteps {
			return Value{}, -1, trap(0, "execution budget exceeded (possible infinite loop)")
		}
		ins := code[pc]
		op := ins.Op()
		switch op {
		case Nop:
		case PushInt:
			push(intVal(p.intOperand(ins)))
		case PushReal:
			push(realVal(math.Float64frombits(uint64(ints[ins.B]))))
		case PushStr:
			push(strVal(p.Strs[ins.A()]))
		case PushNil:
			push(nilVal())
		case PushProc:
			push(procVal(ins.A()))
		case Dup:
			push(stack[len(stack)-1])
		case Drop:
			pop()

		case LdGlb:
			push(m.areas[ins.A()][ins.B])
		case StGlb:
			m.areas[ins.A()][ins.B] = pop()
		case LdaGlb:
			push(addrVal(Addr{Mem: m.areas[ins.A()], Off: ins.B}))
		case LdLoc:
			push(frameAt(ins.A()).slots[ins.B])
		case StLoc:
			frameAt(ins.A()).slots[ins.B] = pop()
		case LdaLoc:
			push(addrVal(Addr{Mem: frameAt(ins.A()).slots, Off: ins.B}))
		case LdInd:
			a := pop()
			if a.K != VAddr {
				return Value{}, -1, trap(0, "NIL dereference")
			}
			push(a.A.Mem[a.A.Off])
		case LdIndN:
			a := pop()
			if a.K != VAddr {
				return Value{}, -1, trap(0, "NIL dereference")
			}
			for i := int32(0); i < ins.A(); i++ {
				push(a.A.Mem[a.A.Off+i])
			}
		case StInd:
			v := pop()
			a := pop()
			if a.K != VAddr {
				return Value{}, -1, trap(0, "NIL dereference")
			}
			a.A.Mem[a.A.Off] = v
		case Copy:
			src := pop()
			dst := pop()
			if src.K != VAddr || dst.K != VAddr {
				return Value{}, -1, trap(0, "NIL dereference in aggregate copy")
			}
			copy(dst.A.Mem[dst.A.Off:dst.A.Off+ins.A()], src.A.Mem[src.A.Off:src.A.Off+ins.A()])
		case StrToA:
			s := pop().S
			dst := pop()
			if dst.K != VAddr {
				return Value{}, -1, trap(0, "NIL dereference in string store")
			}
			for i := int32(0); i < ins.A(); i++ {
				var c int64
				if int(i) < len(s) {
					c = int64(s[i])
				}
				dst.A.Mem[dst.A.Off+i] = intVal(c)
			}

		case AddOff:
			a := pop()
			if a.K != VAddr {
				return Value{}, -1, trap(0, "NIL dereference")
			}
			a.A.Off += ins.A()
			push(a)
		case Index:
			i := pop().I
			a := pop()
			if a.K != VAddr {
				return Value{}, -1, trap(0, "NIL dereference")
			}
			lo, n := ints[ins.B], ints[ins.B+1]
			rel := i - lo
			if rel < 0 || rel >= n {
				return Value{}, -1, trap(0, "array index %d out of bounds [%d..%d]", i, lo, lo+n-1)
			}
			a.A.Off += int32(rel) * ins.A()
			push(a)
		case IndexOp:
			i := pop().I
			n := pop().I
			a := pop()
			if a.K != VAddr {
				return Value{}, -1, trap(ins.B, "NIL open array")
			}
			if i < 0 || i >= n {
				return Value{}, -1, trap(ins.B, "open array index %d out of bounds [0..%d]", i, n-1)
			}
			a.A.Off += int32(i) * ins.A()
			push(a)

		case AddI:
			b := pop().I
			a := pop().I
			push(intVal(a + b))
		case SubI:
			b := pop().I
			a := pop().I
			push(intVal(a - b))
		case MulI:
			b := pop().I
			a := pop().I
			push(intVal(a * b))
		case DivI:
			b := pop().I
			a := pop().I
			if b == 0 {
				return Value{}, -1, trap(ins.A(), "division by zero")
			}
			q := a / b
			if a%b != 0 && (a < 0) != (b < 0) {
				q--
			}
			push(intVal(q))
		case ModI:
			b := pop().I
			a := pop().I
			if b == 0 {
				return Value{}, -1, trap(ins.A(), "division by zero")
			}
			q := a / b
			if a%b != 0 && (a < 0) != (b < 0) {
				q--
			}
			push(intVal(a - q*b))
		case NegI:
			push(intVal(-pop().I))
		case AbsI:
			v := pop().I
			if v < 0 {
				v = -v
			}
			push(intVal(v))
		case OddI:
			push(intVal(pop().I & 1))
		case CmpI:
			b := pop().I
			a := pop().I
			push(intVal(boolInt(cmpOrd(a, b, ins.A()))))

		case AddF:
			b := pop().F
			a := pop().F
			push(realVal(a + b))
		case SubF:
			b := pop().F
			a := pop().F
			push(realVal(a - b))
		case MulF:
			b := pop().F
			a := pop().F
			push(realVal(a * b))
		case DivF:
			b := pop().F
			a := pop().F
			if b == 0 {
				return Value{}, -1, trap(ins.A(), "real division by zero")
			}
			push(realVal(a / b))
		case NegF:
			push(realVal(-pop().F))
		case AbsF:
			push(realVal(math.Abs(pop().F)))
		case CmpF:
			b := pop().F
			a := pop().F
			var c int
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
			push(intVal(boolInt(relHolds(c, ins.A()))))
		case CmpS:
			b := pop().S
			a := pop().S
			push(intVal(boolInt(relHolds(strings.Compare(a, b), ins.A()))))
		case CmpA:
			b := pop()
			a := pop()
			eq := false
			switch {
			case a.K == VNil && b.K == VNil:
				eq = true
			case a.K == VAddr && b.K == VAddr:
				eq = sameAddr(a.A, b.A)
			case a.K == VProc && b.K == VProc:
				eq = a.I == b.I
			}
			if ins.A() == RelEq {
				push(intVal(boolInt(eq)))
			} else {
				push(intVal(boolInt(!eq)))
			}

		case SetAdd:
			e := pop().I
			s := pop().I
			if e < 0 || e > 63 {
				return Value{}, -1, trap(ins.A(), "set element %d outside 0..63", e)
			}
			push(intVal(s | int64(1)<<uint(e)))
		case SetAddRng:
			hi := pop().I
			lo := pop().I
			s := pop().I
			if lo < 0 || hi > 63 {
				return Value{}, -1, trap(ins.A(), "set range %d..%d outside 0..63", lo, hi)
			}
			for e := lo; e <= hi; e++ {
				s |= int64(1) << uint(e)
			}
			push(intVal(s))
		case SetUnion:
			b := pop().I
			a := pop().I
			push(intVal(a | b))
		case SetDiff:
			b := pop().I
			a := pop().I
			push(intVal(a &^ b))
		case SetInter:
			b := pop().I
			a := pop().I
			push(intVal(a & b))
		case SetSymDiff:
			b := pop().I
			a := pop().I
			push(intVal(a ^ b))
		case SetIn:
			s := pop().I
			e := pop().I
			in := e >= 0 && e < 64 && s&(int64(1)<<uint(e)) != 0
			push(intVal(boolInt(in)))
		case SetCmp:
			b := pop().I
			a := pop().I
			var r bool
			switch ins.A() {
			case RelEq:
				r = a == b
			case RelNe:
				r = a != b
			case RelLe:
				r = a&^b == 0
			case RelGe:
				r = b&^a == 0
			}
			push(intVal(boolInt(r)))
		case InclM:
			e := pop().I
			a := pop()
			if e < 0 || e > 63 {
				return Value{}, -1, trap(ins.A(), "set element %d outside 0..63", e)
			}
			a.A.Mem[a.A.Off].I |= int64(1) << uint(e)
		case ExclM:
			e := pop().I
			a := pop()
			if e < 0 || e > 63 {
				return Value{}, -1, trap(ins.A(), "set element %d outside 0..63", e)
			}
			a.A.Mem[a.A.Off].I &^= int64(1) << uint(e)

		case NotB:
			push(intVal(boolInt(pop().I == 0)))

		case IntToReal:
			push(realVal(float64(pop().I)))
		case RealToInt:
			push(intVal(int64(pop().F)))
		case CapCh:
			c := pop().I
			if c >= 'a' && c <= 'z' {
				c -= 32
			}
			push(intVal(c))
		case ChkRange:
			v := stack[len(stack)-1].I
			if lo, hi := ints[ins.B], ints[ins.B+1]; v < lo || v > hi {
				return Value{}, -1, trap(ins.A(), "value %d outside range %d..%d", v, lo, hi)
			}

		case Jmp:
			pc = ins.A() - 1
		case Jz:
			if pop().I == 0 {
				pc = ins.A() - 1
			}
		case Jnz:
			if pop().I != 0 {
				pc = ins.A() - 1
			}

		case Call, CallInd:
			target := ins.A()
			nargs := ins.B
			args := make([]Value, nargs)
			copy(args, stack[int32(len(stack))-nargs:])
			stack = stack[:int32(len(stack))-nargs]
			if op == CallInd {
				pv := pop()
				if pv.K != VProc {
					return Value{}, -1, trap(0, "call through NIL procedure value")
				}
				target = int32(pv.I)
			}
			ret, exc, err := m.call(target, args, f, p.Level)
			if err != nil {
				return Value{}, -1, err
			}
			if m.halted {
				return Value{}, -1, nil
			}
			if exc >= 0 {
				// Propagate into this procedure's innermost handler, or
				// out of the procedure.
				if len(tryStack) == 0 {
					return Value{}, exc, nil
				}
				curExc = exc
				pc = tryStack[len(tryStack)-1] - 1
				tryStack = tryStack[:len(tryStack)-1]
				continue
			}
			if m.prog.Procs[target].HasRet {
				push(ret)
			}

		case RetP:
			return Value{}, -1, nil
		case RetF:
			return pop(), -1, nil

		case EnterTry:
			tryStack = append(tryStack, ins.A())
		case EndTry:
			tryStack = tryStack[:len(tryStack)-1]
		case Raise:
			if len(tryStack) == 0 {
				return Value{}, ins.A(), nil
			}
			curExc = ins.A()
			pc = tryStack[len(tryStack)-1] - 1
			tryStack = tryStack[:len(tryStack)-1]
		case ExcIs:
			push(intVal(boolInt(curExc == ins.A())))
		case Reraise:
			if len(tryStack) == 0 {
				return Value{}, curExc, nil
			}
			pc = tryStack[len(tryStack)-1] - 1
			tryStack = tryStack[:len(tryStack)-1]

		case NewObj:
			a := pop()
			obj := make([]Value, ins.A())
			a.A.Mem[a.A.Off] = addrVal(Addr{Mem: obj})
		case Dispose:
			a := pop()
			a.A.Mem[a.A.Off] = nilVal()

		case MathOp:
			x := pop().F
			var r float64
			switch ins.A() {
			case MathSin:
				r = math.Sin(x)
			case MathCos:
				r = math.Cos(x)
			case MathSqrt:
				if x < 0 {
					return Value{}, -1, trap(ins.B, "sqrt of negative value")
				}
				r = math.Sqrt(x)
			case MathLn:
				if x <= 0 {
					return Value{}, -1, trap(ins.B, "ln of non-positive value")
				}
				r = math.Log(x)
			case MathExp:
				r = math.Exp(x)
			case MathArctan:
				r = math.Atan(x)
			}
			push(realVal(r))

		case IOWriteInt:
			w := pop().I
			v := pop().I
			fmt.Fprintf(m.out, "%*d", w, v)
		case IOWriteChar:
			fmt.Fprintf(m.out, "%c", rune(pop().I))
		case IOWriteStr:
			n := pop().I
			a := pop()
			var sb strings.Builder
			for i := int64(0); i < n; i++ {
				c := a.A.Mem[a.A.Off+int32(i)].I
				if c == 0 {
					break
				}
				sb.WriteByte(byte(c))
			}
			io.WriteString(m.out, sb.String())
		case IOWriteReal:
			w := pop().I
			v := pop().F
			fmt.Fprintf(m.out, "%*G", w, v)
		case IOWriteLn:
			io.WriteString(m.out, "\n")
		case IOWriteText:
			io.WriteString(m.out, pop().S)
		case IOReadInt:
			a := pop()
			var v int64
			fmt.Fscan(m.in, &v)
			a.A.Mem[a.A.Off] = intVal(v)
		case IOReadChar:
			a := pop()
			c, err := m.in.ReadByte()
			if err != nil {
				c = 0
			}
			a.A.Mem[a.A.Off] = intVal(int64(c))

		case HaltOp:
			m.halted = true
			return Value{}, -1, nil
		case AssertOp:
			if pop().I == 0 {
				return Value{}, -1, trap(ins.A(), "assertion failed")
			}
		case CaseTrap:
			return Value{}, -1, trap(ins.A(), "CASE selector matches no label")
		case NoRet:
			return Value{}, -1, trap(ins.A(), "function ended without RETURN")

		default:
			return Value{}, -1, trap(0, "illegal instruction %s", op)
		}
	}
	return Value{}, -1, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpOrd(a, b int64, rel int32) bool {
	var c int
	switch {
	case a < b:
		c = -1
	case a > b:
		c = 1
	}
	return relHolds(c, rel)
}

func relHolds(c int, rel int32) bool {
	switch rel {
	case RelEq:
		return c == 0
	case RelNe:
		return c != 0
	case RelLt:
		return c < 0
	case RelLe:
		return c <= 0
	case RelGt:
		return c > 0
	default:
		return c >= 0
	}
}
