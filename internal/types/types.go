// Package types implements the Modula-2+ type system: the pervasive
// basic types, structural type constructors, and the compatibility and
// assignability rules the semantic analyzer enforces.
//
// Type identity follows Modula-2 rules: a type declaration "TYPE A = B"
// makes A a synonym (the same *Type object), while every structural
// constructor (ARRAY, RECORD, SET, POINTER, enumeration, subrange,
// PROCEDURE) creates a distinct type.  Identity is therefore pointer
// equality.
package types

import (
	"fmt"
	"sync/atomic"

	"m2cc/internal/token"
	"m2cc/internal/vm"
)

// Kind discriminates type representations.
type Kind uint8

// Type kinds.
const (
	Invalid Kind = iota
	IntegerK
	CardinalK
	LongIntK
	BooleanK
	CharK
	RealK
	LongRealK
	BitSetK // the pervasive BITSET = SET OF [0..31]
	ProcK   // the pervasive parameterless PROC type
	TextK   // Modula-2+ TEXT (immutable string)
	RefAnyK // Modula-2+ REFANY
	MutexK  // Modula-2+ MUTEX
	NilK    // the type of NIL
	WholeK  // whole-number literal constants, compatible with all integer types
	StringK // string literal (len != 1); length-1 strings are char-compatible
	VoidK   // "result type" of proper procedures

	EnumK
	SubrangeK
	ArrayK
	OpenArrayK
	RecordK
	SetK
	PointerK
	RefK
	ProcTypeK
	OpaqueK
	ExceptionK
)

// Type is the representation of one Modula-2+ type.
type Type struct {
	Kind Kind
	Name string // declared name, for diagnostics ("" for anonymous)

	Base   *Type    // subrange base, set element, pointer/REF target, array element, opaque resolution
	Index  *Type    // array index type
	Lo, Hi int64    // subrange bounds; enum: 0..len-1; BITSET: 0..31
	Fields []*Field // record fields (flattened, variants overlaid)
	Params []Param  // procedure parameters
	Ret    *Type    // procedure result; nil for proper procedures

	EnumLen int // number of enumeration constants

	// slots memoizes the storage size (0 = not yet computed).  It is
	// atomic because types published through the interface cache are
	// shared by concurrent compilations, which may race to fill the
	// memo; the computation is deterministic, so either store wins.
	slots atomic.Int32
}

// Field is one record field with its storage offset in slots.
type Field struct {
	Name   string
	Type   *Type
	Offset int
	Pos    token.Pos
}

// Param is one formal parameter of a procedure type or heading.
type Param struct {
	Name  string
	Type  *Type
	ByRef bool // VAR parameter
	Open  bool // open array (ARRAY OF T)
}

// The pervasive types.  These are singletons; pointer comparison against
// them is meaningful.
var (
	Integer   = &Type{Kind: IntegerK, Name: "INTEGER"}
	Cardinal  = &Type{Kind: CardinalK, Name: "CARDINAL"}
	LongInt   = &Type{Kind: LongIntK, Name: "LONGINT"}
	Boolean   = &Type{Kind: BooleanK, Name: "BOOLEAN"}
	Char      = &Type{Kind: CharK, Name: "CHAR"}
	Real      = &Type{Kind: RealK, Name: "REAL"}
	LongReal  = &Type{Kind: LongRealK, Name: "LONGREAL"}
	BitSet    = &Type{Kind: BitSetK, Name: "BITSET", Lo: 0, Hi: 31}
	Proc      = &Type{Kind: ProcK, Name: "PROC"}
	Text      = &Type{Kind: TextK, Name: "TEXT"}
	RefAny    = &Type{Kind: RefAnyK, Name: "REFANY"}
	Mutex     = &Type{Kind: MutexK, Name: "MUTEX"}
	Nil       = &Type{Kind: NilK, Name: "NIL"}
	Whole     = &Type{Kind: WholeK, Name: "integer constant"}
	StringT   = &Type{Kind: StringK, Name: "string"}
	Void      = &Type{Kind: VoidK, Name: "void"}
	Bad       = &Type{Kind: Invalid, Name: "<invalid>"}
	Exception = &Type{Kind: ExceptionK, Name: "EXCEPTION"}
)

// String returns the declared name or a structural description.
func (t *Type) String() string {
	if t == nil {
		return "<nil type>"
	}
	if t.Name != "" {
		return t.Name
	}
	switch t.Kind {
	case EnumK:
		return fmt.Sprintf("enumeration(%d)", t.EnumLen)
	case SubrangeK:
		return fmt.Sprintf("%s[%d..%d]", t.Base, t.Lo, t.Hi)
	case ArrayK:
		return fmt.Sprintf("ARRAY %s OF %s", t.Index, t.Base)
	case OpenArrayK:
		return fmt.Sprintf("ARRAY OF %s", t.Base)
	case RecordK:
		return "RECORD"
	case SetK:
		return fmt.Sprintf("SET OF %s", t.Base)
	case PointerK:
		return fmt.Sprintf("POINTER TO %s", t.Base)
	case RefK:
		return fmt.Sprintf("REF %s", t.Base)
	case ProcTypeK:
		return "PROCEDURE type"
	case OpaqueK:
		return "opaque type"
	default:
		return fmt.Sprintf("type(kind %d)", t.Kind)
	}
}

// Deref follows opaque-type resolutions to the underlying type (the
// implementation module patches Base when it completes an opaque type).
func (t *Type) Deref() *Type {
	for t != nil && t.Kind == OpaqueK && t.Base != nil {
		t = t.Base
	}
	return t
}

// Under resolves subranges (and opaques) to their base type.
func (t *Type) Under() *Type {
	t = t.Deref()
	for t != nil && t.Kind == SubrangeK {
		t = t.Base.Deref()
	}
	return t
}

// IsOrdinal reports whether t is an ordinal type (usable as array
// index, FOR control variable, CASE selector, set base...).
func (t *Type) IsOrdinal() bool {
	switch t.Under().Kind {
	case IntegerK, CardinalK, LongIntK, BooleanK, CharK, EnumK, WholeK:
		return true
	}
	return false
}

// IsInteger reports whether t belongs to the whole-number class.
func (t *Type) IsInteger() bool {
	switch t.Under().Kind {
	case IntegerK, CardinalK, LongIntK, WholeK:
		return true
	}
	return false
}

// IsReal reports whether t is REAL or LONGREAL.
func (t *Type) IsReal() bool {
	k := t.Under().Kind
	return k == RealK || k == LongRealK
}

// IsChar reports whether t is CHAR (or a subrange of CHAR).
func (t *Type) IsChar() bool { return t.Under().Kind == CharK }

// IsSet reports whether t is a set type (including BITSET).
func (t *Type) IsSet() bool {
	k := t.Under().Kind
	return k == SetK || k == BitSetK
}

// IsPointerLike reports whether t holds a pointer value (POINTER, REF,
// REFANY, ADDRESS-free dialect) and may be compared to NIL.
func (t *Type) IsPointerLike() bool {
	switch t.Under().Kind {
	case PointerK, RefK, RefAnyK, NilK, MutexK, TextK, ProcTypeK, ProcK, OpaqueK:
		return true
	}
	return false
}

// Bounds returns the ordinal value range of an ordinal type.
func (t *Type) Bounds() (lo, hi int64, ok bool) {
	d := t.Deref()
	switch d.Kind {
	case SubrangeK:
		return d.Lo, d.Hi, true
	case IntegerK:
		return -2147483648, 2147483647, true
	case LongIntK:
		return -(1 << 62), 1 << 62, true
	case CardinalK:
		return 0, 4294967295, true
	case BooleanK:
		return 0, 1, true
	case CharK:
		return 0, 255, true
	case EnumK:
		return 0, int64(d.EnumLen) - 1, true
	}
	return 0, 0, false
}

// MaxSlots bounds every storage size: sizes and field offsets reach the
// code as an instruction's 24-bit A operand.  The analyzer diagnoses a
// type, area or frame past it where it computes the size.
const MaxSlots = vm.MaxA

// Slots returns the storage size of a value of type t, in abstract
// machine slots (one slot holds one scalar), or MaxSlots+1 for any size
// past MaxSlots, so that no size wraps.  Open arrays occupy two slots
// in a frame (base + length); that special case is handled by the code
// generator, not here.
func (t *Type) Slots() int {
	d := t.Deref()
	if s := d.slots.Load(); s > 0 {
		return int(s)
	}
	n := 1
	switch d.Kind {
	case ArrayK:
		n = 0
		if lo, hi, _ := d.Index.Bounds(); lo <= hi {
			n = MaxSlots + 1
			if count := uint64(hi - lo); count < MaxSlots {
				n = int(count+1) * d.Base.Slots()
			}
		}
	case RecordK:
		n = 0
		for _, f := range d.Fields {
			if end := f.Offset + f.Type.Slots(); end > n {
				n = end
			}
		}
		if n == 0 {
			n = 1 // empty record still occupies storage
		}
	}
	n = min(n, MaxSlots+1)
	d.slots.Store(int32(n))
	return n
}

// WordBytes is the byte size of one storage slot reported by SIZE and
// TSIZE (the CVax the paper measured on had 4-byte words).
const WordBytes = 4

// NewEnum returns a fresh enumeration type with n constants.
func NewEnum(name string, n int) *Type {
	return &Type{Kind: EnumK, Name: name, EnumLen: n, Lo: 0, Hi: int64(n - 1)}
}

// NewSubrange returns lo..hi of base.
func NewSubrange(base *Type, lo, hi int64) *Type {
	return &Type{Kind: SubrangeK, Base: base, Lo: lo, Hi: hi}
}

// NewArray returns ARRAY index OF elem.
func NewArray(index, elem *Type) *Type {
	return &Type{Kind: ArrayK, Index: index, Base: elem}
}

// NewOpenArray returns ARRAY OF elem (formal parameters only).
func NewOpenArray(elem *Type) *Type { return &Type{Kind: OpenArrayK, Base: elem} }

// NewSet returns SET OF base.  The base must be an ordinal within
// [0, 63]; the analyzer validates that.
func NewSet(base *Type) *Type { return &Type{Kind: SetK, Base: base} }

// NewPointer returns POINTER TO base.
func NewPointer(base *Type) *Type { return &Type{Kind: PointerK, Base: base} }

// NewRef returns the Modula-2+ REF base.
func NewRef(base *Type) *Type { return &Type{Kind: RefK, Base: base} }

// NewProcType returns a procedure type.
func NewProcType(params []Param, ret *Type) *Type {
	return &Type{Kind: ProcTypeK, Params: params, Ret: ret}
}

// NewOpaque returns an unresolved opaque type (definition-module
// "TYPE T;"), later completed by the implementation module via Base.
func NewOpaque(name string) *Type { return &Type{Kind: OpaqueK, Name: name} }

// NewRecord returns a record with the given fields (offsets already
// assigned by the analyzer).
func NewRecord(fields []*Field) *Type { return &Type{Kind: RecordK, Fields: fields} }

// FieldNamed returns the record field with the given name, or nil.
func (t *Type) FieldNamed(name string) *Field {
	d := t.Deref()
	for _, f := range d.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// SameClass reports whether a and b may be mixed in an expression.
// This implements the compatibility rules described in the package
// comment, with the whole-number class merged (INTEGER, CARDINAL,
// LONGINT and their subranges interoperate, as in Modula-2+).
func SameClass(a, b *Type) bool {
	if a == nil || b == nil || a.Kind == Invalid || b.Kind == Invalid {
		return true // error already reported; avoid cascades
	}
	ua, ub := a.Under(), b.Under()
	if ua == ub {
		return true
	}
	switch {
	case ua.IsInteger() && ub.IsInteger():
		return true
	case ua.IsReal() && ub.IsReal():
		return true
	case ua.Kind == CharK && (ub.Kind == CharK || ub.Kind == StringK):
		return true
	case ub.Kind == CharK && ua.Kind == StringK:
		return true
	case ua.Kind == BitSetK && ub.Kind == BitSetK:
		return true
	case ua.IsPointerLike() && (ub.Kind == NilK):
		return true
	case ub.IsPointerLike() && (ua.Kind == NilK):
		return true
	case ua.Kind == TextK && ub.Kind == StringK,
		ub.Kind == TextK && ua.Kind == StringK:
		return true
	case ua.Kind == StringK && ub.Kind == StringK:
		return true
	case ua.Kind == RefAnyK && (ub.Kind == RefK || ub.Kind == RefAnyK),
		ub.Kind == RefAnyK && (ua.Kind == RefK || ua.Kind == RefAnyK):
		return true
	}
	return false
}

// Assignable reports whether a value of type src may be assigned to a
// variable of type dst, following Modula-2 assignment compatibility
// extended with the Modula-2+ cases (TEXT := string literal, REFANY :=
// any REF, procedure values).
func Assignable(dst, src *Type) bool {
	if dst == nil || src == nil || dst.Kind == Invalid || src.Kind == Invalid {
		return true
	}
	if dst.Deref() == src.Deref() {
		return true
	}
	ud, us := dst.Under(), src.Under()
	switch {
	case ud.IsInteger() && us.IsInteger():
		return true
	case ud.IsReal() && (us.IsReal() || us.Kind == WholeK):
		return true
	case ud.Kind == CharK && us.Kind == CharK:
		return true
	case ud.Kind == CharK && us.Kind == StringK:
		return true // the analyzer checks the literal's length
	case ud == us:
		return true
	case ud.Kind == ArrayK && us.Kind == StringK && ud.Base.Under().Kind == CharK:
		return true // string constant into char array (length checked separately)
	case ud.Kind == TextK && us.Kind == StringK:
		return true
	case us.Kind == NilK && ud.IsPointerLike():
		return true
	case ud.Kind == RefAnyK && (us.Kind == RefK || us.Kind == RefAnyK || us.Kind == NilK):
		return true
	case ud.Kind == ProcTypeK && us.Kind == ProcTypeK:
		return SameSignature(ud, us)
	case ud.Kind == ProcK && us.Kind == ProcTypeK && len(us.Params) == 0 && us.Ret == nil:
		return true
	case ud.Kind == BitSetK && us.Kind == BitSetK:
		return true
	}
	return false
}

// SameSignature reports whether two procedure types have compatible
// signatures (parameter modes and types, result type).  Open-array
// formals compare by element type: each ARRAY OF T is a type of its
// own.
func SameSignature(a, b *Type) bool {
	a, b = a.Under(), b.Under()
	if len(a.Params) != len(b.Params) {
		return false
	}
	if (a.Ret == nil) != (b.Ret == nil) {
		return false
	}
	if a.Ret != nil && a.Ret.Deref() != b.Ret.Deref() && !(a.Ret.IsInteger() && b.Ret.IsInteger()) {
		return false
	}
	for i := range a.Params {
		pa, pb := a.Params[i], b.Params[i]
		if pa.ByRef != pb.ByRef || pa.Open != pb.Open {
			return false
		}
		if pa.Open {
			pa.Type, pb.Type = pa.Type.Base, pb.Type.Base
		}
		if pa.Type.Deref() != pb.Type.Deref() && !(pa.Type.IsInteger() && pb.Type.IsInteger()) {
			return false
		}
	}
	return true
}

// Comparable reports whether values of type a and b may be compared
// with = and #.
func Comparable(a, b *Type) bool {
	if SameClass(a, b) {
		return true
	}
	ua, ub := a.Under(), b.Under()
	if ua.Kind == ProcTypeK && ub.Kind == ProcTypeK {
		return SameSignature(ua, ub)
	}
	if ua.IsPointerLike() && ub.IsPointerLike() {
		return ua == ub || ua.Kind == NilK || ub.Kind == NilK ||
			ua.Kind == RefAnyK || ub.Kind == RefAnyK
	}
	if ua.IsSet() && ub.IsSet() {
		return true
	}
	return false
}

// Ordered reports whether values of type a and b may be compared with
// the ordering operators.
func Ordered(a, b *Type) bool {
	if !SameClass(a, b) {
		return false
	}
	ua := a.Under()
	switch {
	case ua.IsInteger(), ua.IsReal(), ua.Kind == CharK, ua.Kind == EnumK,
		ua.Kind == BooleanK, ua.Kind == StringK, ua.Kind == TextK:
		return true
	}
	return false
}
