// Package vm defines the abstract stack machine the compiler targets
// and an interpreter for it.
//
// The paper's compiler generated VAX code; the machine here plays the
// same role one level up: each procedure compiles to an independent
// code segment, segments are merged by concatenation in any order
// (§2.1), cross-module references stay symbolic in the object file and
// are resolved by a small linker, and compiled programs actually run —
// which is what lets the test suite check concurrent and sequential
// compilations against each other end to end.
package vm

import "fmt"

// Op is an instruction opcode.
type Op uint8

// Opcodes.  Stack effects are written (pops → pushes).
const (
	Nop Op = iota

	// Constants.
	PushInt  // ( → i) B, or A<0 and Ints[B] when the value does not fit int32
	PushReal // ( → r) Ints[B]=math.Float64bits
	PushStr  // ( → s) A=Strs index
	PushNil  // ( → nil)
	PushProc // ( → proc) A=local proc index, or A<0 and B=Exts index ("Module.Proc")
	Dup      // (v → v v)
	Drop     // (v → )

	// Variable access.  Globals live in per-scope areas (A = local area
	// index); locals in frames (A = static-link hops, B = slot offset).
	LdGlb  // ( → v) A=area B=off
	StGlb  // (v → ) A=area B=off
	LdaGlb // ( → addr) A=area B=off
	LdLoc  // ( → v) A=hops B=off
	StLoc  // (v → ) A=hops B=off
	LdaLoc // ( → addr) A=hops B=off
	LdInd  // (addr → v)
	LdIndN // (addr → v1..vA) multi-slot load for aggregate value arguments
	StInd  // (addr v → )
	Copy   // (dst src → ) A=slot count: aggregate assignment
	StrToA // (dst s → ) store string constant into char array, A=array slots, zero-padded

	// Address arithmetic.
	AddOff  // (addr → addr+A)
	Index   // (addr i → addr+(i-lo)*A) lo=Ints[B], bounds-checked against Ints[B+1] elements
	IndexOp // (addr len i → addr+i*A) open array, bounds-checked

	// Integer arithmetic (also CHAR/enum/BOOLEAN ordinals).
	AddI
	SubI
	MulI
	DivI // DIV, truncating toward -inf per Modula-2
	ModI
	NegI
	AbsI
	OddI // (i → bool)
	CmpI // (a b → bool) A=relation (see Rel*)

	// Real arithmetic.
	AddF
	SubF
	MulF
	DivF
	NegF
	AbsF
	CmpF

	// String / TEXT comparison.
	CmpS

	// Address (pointer/NIL/procedure value) comparison.
	CmpA

	// Sets (bit masks over ordinals 0..63).
	SetAdd    // (mask e → mask')
	SetAddRng // (mask lo hi → mask')
	SetUnion
	SetDiff
	SetInter
	SetSymDiff
	SetIn  // (e mask → bool)
	SetCmp // (a b → bool) A=relation (Eq, Ne, Le=subset, Ge=superset)
	InclM  // (addr e → ) INCL
	ExclM  // (addr e → ) EXCL

	// Booleans (AND/OR compile to short-circuit jumps).
	NotB

	// Conversions and checks.
	IntToReal // FLOAT
	RealToInt // TRUNC
	CapCh     // CAP
	ChkRange  // (v → v) range check Ints[B]..Ints[B+1], A=trap site line

	// Control flow.  Targets are indices into the procedure's own code:
	// segments are never concatenated, so the linker leaves them alone.
	Jmp // A=target
	Jz  // (bool → ) jump if false
	Jnz // (bool → ) jump if true

	// Calls.  B = total argument slots (popped into the callee frame).
	Call     // A=local proc index
	CallExt  // A=Exts index ("Module.Proc"), resolved by the linker
	CallInd  // (args... proc → ) indirect through a procedure value
	RetP     // return from proper procedure
	RetF     // (v → ) return value to caller's stack
	EnterTry // A=handler PC
	EndTry
	Raise   // A=local exception index (remapped by the linker)
	ExcIs   // ( → bool) A=local exception index: current exception test
	Reraise // propagate the current exception

	// Heap.
	NewObj  // (addr → ) A=slots: allocate and store pointer through addr
	Dispose // (addr → ) explicit DISPOSE (the heap is GC'd; this clears the pointer)

	// Builtins with dedicated opcodes.
	MathOp     // (r → r) A=math function (see Math*)
	IOWriteInt // (v w → ) width-formatted
	IOWriteChar
	IOWriteStr  // (addr len → ) char-array write; strings via IOWriteText
	IOWriteReal // (r w → )
	IOWriteLn
	IOWriteText // (s → )
	IOReadInt   // (addr → )
	IOReadChar  // (addr → )
	HaltOp
	AssertOp // (bool → ) A=line
	CaseTrap // CASE selector matched no label and there is no ELSE; A=line
	NoRet    // function body fell off the end without RETURN; A=line

	numOps
)

// Relations for CmpI/CmpF/CmpS/CmpA/SetCmp.
const (
	RelEq = iota
	RelNe
	RelLt
	RelLe
	RelGt
	RelGe
)

// Math function selectors for MathOp.
const (
	MathSin = iota
	MathCos
	MathSqrt
	MathLn
	MathExp
	MathArctan
)

var opNames = [numOps]string{
	"NOP", "PUSHI", "PUSHF", "PUSHS", "PUSHNIL", "PUSHPROC", "DUP", "DROP",
	"LDGLB", "STGLB", "LDAGLB", "LDLOC", "STLOC", "LDALOC", "LDIND", "LDINDN", "STIND", "COPY", "STRTOA",
	"ADDOFF", "INDEX", "INDEXOP",
	"ADDI", "SUBI", "MULI", "DIVI", "MODI", "NEGI", "ABSI", "ODDI", "CMPI",
	"ADDF", "SUBF", "MULF", "DIVF", "NEGF", "ABSF", "CMPF",
	"CMPS", "CMPA",
	"SETADD", "SETADDRNG", "UNION", "DIFF", "INTER", "SYMDIFF", "IN", "SETCMP", "INCL", "EXCL",
	"NOT",
	"FLOAT", "TRUNC", "CAP", "CHKRNG",
	"JMP", "JZ", "JNZ",
	"CALL", "CALLX", "CALLI", "RETP", "RETF",
	"TRY", "ENDTRY", "RAISE", "EXCIS", "RERAISE",
	"NEW", "DISPOSE",
	"MATH", "WRINT", "WRCHAR", "WRSTR", "WRREAL", "WRLN", "WRTEXT", "RDINT", "RDCHAR",
	"HALT", "ASSERT", "CASETRAP", "NORET",
}

// String returns the mnemonic.
func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Instr is one instruction: 8 bytes and pointer-free, so a code
// segment is a single noscan allocation the collector never walks.
// The opcode and A share one 32-bit word — Op in the low byte, A as a
// signed 24-bit integer above it — and B is a full int32.  The operand
// fields used depend on the opcode; unused fields are zero.  The
// operands that do not fit — strings, external procedure names, REAL
// bits, array and subrange bounds, wide integer constants — live in the
// segment's constant pools and are named here by index.
type Instr struct {
	opA uint32
	B   int32
}

// The range of A.  Storage sizes reach the code as A operands, so they
// share the bound (types.MaxSlots).
const (
	MinA = -1 << 23
	MaxA = 1<<23 - 1
)

// LimitFmt is the diagnostic for a value past MaxA; %s names the value.
const LimitFmt = "implementation limit: %s exceeds 8 388 607"

// NewInstr packs op, a and b.  It is the one way to place a value in
// A: ok is false, and the instruction must not be used, when a lies
// outside [MinA, MaxA].
func NewInstr(op Op, a, b int32) (ins Instr, ok bool) {
	return Instr{uint32(op) | uint32(a)<<8, b}, MinA <= a && a <= MaxA
}

// Op returns the opcode.
func (i Instr) Op() Op { return Op(i.opA) }

// A returns the sign-extended 24-bit operand.
func (i Instr) A() int32 { return int32(i.opA) >> 8 }

// Segment is one procedure's object code: the instructions and the
// constant pools their wide operands index.  It is immutable once its
// code generator task returns; the stream cache and every compilation
// replaying it share the pools (and, when no operand needs relocating,
// the code).
type Segment struct {
	Code []Instr
	Strs []string // PushStr A
	Exts []string // CallExt A, external PushProc B: "Module.Proc"
	Ints []int64  // Ints[B]: wide PushInt, PushReal bits; Ints[B], Ints[B+1]: Index lo and elems, ChkRange lo and hi
}

// intOperand is PushInt's value: B, or the Ints entry B names when A < 0.
func (s *Segment) intOperand(ins Instr) int64 {
	if ins.A() < 0 {
		return s.Ints[ins.B]
	}
	return int64(ins.B)
}
