package symtab

import (
	"m2cc/internal/types"
)

// BuiltinID identifies a pervasive procedure or function.  The paper's
// §2.2 treats builtin names — "typically builtin input/output routines
// or mathematical routines like sin and sqrt" — as if declared local to
// every scope, so a reference to one never incurs DKY waits on outer
// scopes.  Modula-2+ forbids redeclaring them, which Insert enforces.
type BuiltinID uint8

// Builtin routines.
const (
	BInvalid BuiltinID = iota

	// Standard functions.
	BAbs
	BCap
	BChr
	BFloat
	BHigh
	BMax
	BMin
	BOdd
	BOrd
	BSize
	BTSize
	BTrunc
	BVal

	// Mathematical functions (pervasive in this dialect, per §2.2).
	BSin
	BCos
	BSqrt
	BLn
	BExp
	BArctan

	// Standard procedures.
	BInc
	BDec
	BIncl
	BExcl
	BHalt
	BNew
	BDispose
	BAssert

	// Input/output procedures.
	BWriteInt
	BWriteCard
	BWriteChar
	BWriteString
	BWriteReal
	BWriteLn
	BWriteText
	BReadInt
	BReadChar

	// NumBuiltins is the number of builtin IDs.
	NumBuiltins
)

var builtinNames = [NumBuiltins]string{
	BInvalid: "?",
	BAbs:     "ABS", BCap: "CAP", BChr: "CHR", BFloat: "FLOAT", BHigh: "HIGH",
	BMax: "MAX", BMin: "MIN", BOdd: "ODD", BOrd: "ORD", BSize: "SIZE",
	BTSize: "TSIZE", BTrunc: "TRUNC", BVal: "VAL",
	BSin: "sin", BCos: "cos", BSqrt: "sqrt", BLn: "ln", BExp: "exp", BArctan: "arctan",
	BInc: "INC", BDec: "DEC", BIncl: "INCL", BExcl: "EXCL", BHalt: "HALT",
	BNew: "NEW", BDispose: "DISPOSE", BAssert: "ASSERT",
	BWriteInt: "WriteInt", BWriteCard: "WriteCard", BWriteChar: "WriteChar",
	BWriteString: "WriteString", BWriteReal: "WriteReal", BWriteLn: "WriteLn",
	BWriteText: "WriteText", BReadInt: "ReadInt", BReadChar: "ReadChar",
}

// Name returns the source spelling of the builtin.
func (b BuiltinID) Name() string {
	if b < NumBuiltins {
		return builtinNames[b]
	}
	return "?"
}

// builtinScope holds every pervasive name.  It is immutable after
// package initialization and shared (read-only, hence safely) by all
// compilations; its probes never block and never record completion
// events — the builtin table is complete by construction.
var builtinScope *Scope

// builtinByName backs the O(1) check that makes builtin references
// avoid scope chaining (§2.2's "simple modification of the symbol table
// search mechanism").
var builtinByName map[string]*Symbol

func lookupBuiltin(name string) *Symbol { return builtinByName[name] }

// LookupBuiltin exposes the pervasive table to the semantic analyzer
// (e.g. to pre-type FOR loop bounds).  It returns nil for non-builtins.
func LookupBuiltin(name string) *Symbol { return lookupBuiltin(name) }

func init() {
	builtinByName = make(map[string]*Symbol)
	builtinScope = &Scope{
		ID: 0, Kind: BuiltinScope, Name: "<pervasive>",
		index: builtinByName, complete: true,
	}
	builtinScope.sealed.Store(true)

	add := func(sym *Symbol) {
		builtinByName[sym.Name] = sym
		builtinScope.order = append(builtinScope.order, sym)
	}
	typ := func(t *types.Type) {
		add(&Symbol{Name: t.Name, Kind: KType, Type: t})
	}
	konst := func(name string, c types.Const) {
		add(&Symbol{Name: name, Kind: KConst, Type: c.Type, Payload: &Payload{Val: c}})
	}

	for _, t := range []*types.Type{
		types.Integer, types.Cardinal, types.LongInt, types.Boolean,
		types.Char, types.Real, types.LongReal, types.BitSet, types.Proc,
		types.Text, types.RefAny, types.Mutex,
	} {
		typ(t)
	}
	konst("TRUE", types.MakeBool(true))
	konst("FALSE", types.MakeBool(false))
	konst("NIL", types.MakeNil())

	for b := BAbs; b < NumBuiltins; b++ {
		add(&Symbol{Name: b.Name(), Kind: KBuiltin, Payload: &Payload{BID: b}})
	}
}
