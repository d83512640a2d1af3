package ast

import (
	"sync"
	"unsafe"

	"m2cc/internal/pool"
)

// Arena holds the parse trees of one compilation's streams, which live
// exactly as long as their compilation (§3: a stream's declarations are
// analyzed into symbols that copy what they keep, StmtCG consumes its
// statements, then the tree is dead).  The parser bump-allocates every
// node of a tree, declarations and statements alike, and the backing
// store of every list in it, from typed slabs, one for each type; a slab
// takes fixed-size chunks from its type's process-wide free list and
// hands them back when the arena is returned.  The driver lends a
// stream's parse an arena for each stretch of parsing, lets the streams
// fill arenas one parse after another and returns them when the
// compilation ends.  A nil *Arena allocates from the heap, as definition
// modules, the sequential compiler and the linter do.  One parser fills
// an Arena at a time.
type Arena struct {
	assigns     slab[AssignStmt]
	callStmts   slab[CallStmt]
	ifs         slab[IfStmt]
	cases       slab[CaseStmt]
	caseArms    slab[CaseArm]
	caseLabels  slab[CaseLabel]
	whiles      slab[WhileStmt]
	repeats     slab[RepeatStmt]
	loops       slab[LoopStmt]
	exits       slab[ExitStmt]
	fors        slab[ForStmt]
	withs       slab[WithStmt]
	returns     slab[ReturnStmt]
	raises      slab[RaiseStmt]
	tries       slab[TryStmt]
	handlers    slab[Handler]
	locks       slab[LockStmt]
	lists       slab[StmtList]
	binaries    slab[BinaryExpr]
	unaries     slab[UnaryExpr]
	intLits     slab[IntLit]
	realLits    slab[RealLit]
	stringLits  slab[StringLit]
	charLits    slab[CharLit]
	sets        slab[SetExpr]
	calls       slab[CallExpr]
	designators slab[Designator]
	fieldSels   slab[FieldSel]
	indexSels   slab[IndexSel]
	derefSels   slab[DerefSel]
	qualidents  slab[Qualident]
	modules     slab[Module]
	imports     slab[Import]
	constDecls  slab[ConstDecl]
	typeDecls   slab[TypeDecl]
	varDecls    slab[VarDecl]
	excDecls    slab[ExceptionDecl]
	procDecls   slab[ProcDecl]
	procHeads   slab[ProcHead]
	fpSections  slab[FPSection]
	namedTypes  slab[NamedType]
	enumTypes   slab[EnumType]
	subranges   slab[SubrangeType]
	arrayTypes  slab[ArrayType]
	recordTypes slab[RecordType]
	fieldLists  slab[FieldList]
	variants    slab[VariantPart]
	varCases    slab[VariantCase]
	setTypes    slab[SetType]
	ptrTypes    slab[PointerType]
	refTypes    slab[RefType]
	procTypes   slab[ProcType]
	procParams  slab[ProcTypeParam]
	// Backing stores of lists.
	stmts      slab[Stmt]
	exprs      slab[Expr]
	sels       slab[Selector]
	elsifs     slab[ElsifArm]
	armRefs    slab[*CaseArm]
	labelRefs  slab[*CaseLabel]
	setElems   slab[SetElem]
	handlerRef slab[*Handler]
	qualRefs   slab[*Qualident]
	names      slab[Name]
	decls      slab[Decl]
	types      slab[Type]
	importRefs slab[*Import]
	fpRefs     slab[*FPSection]
	fieldRefs  slab[*FieldList]
	caseRefs   slab[*VariantCase]
	paramRefs  slab[*ProcTypeParam]

	touched []interface{ reset() } // slabs used since the arena was taken
	Stacks  Stacks                 // kept, so a recycled arena parses without growing them
}

// Stacks are a parser's scratch stacks for lists under construction:
// elements are pushed while a list is parsed, then copied once into an
// exact-size slice and popped.  They are empty between parses.
type Stacks struct {
	Stmts   []Stmt
	Exprs   []Expr
	Decls   []Decl
	Types   []Type
	Names   []Name
	Imports []*Import
	Params  []*FPSection
	Fields  []*FieldList
}

// Pop returns the top of the scratch stack *st from base on as an
// exact-size list from a (from the heap when a is nil) and pops it.
func Pop[T any](a *Arena, st *[]T, base int) []T {
	list := Slice(a, (*st)[base:])
	*st = (*st)[:base]
	return list
}

// held returns the bytes the stacks hold.  With scrub set it first
// clears everything they ever held: popped entries still point into the
// tree.
func (s *Stacks) held(scrub bool) int {
	return held(s.Stmts, scrub) + held(s.Exprs, scrub) + held(s.Decls, scrub) + held(s.Types, scrub) +
		held(s.Names, scrub) + held(s.Imports, scrub) + held(s.Params, scrub) + held(s.Fields, scrub)
}

func held[T any](s []T, scrub bool) int {
	if scrub {
		pool.Scrub(s[:cap(s)])
	}
	return cap(s) * int(unsafe.Sizeof(*new(T)))
}

// slabOf returns a's slab for T: nil when a is nil or T is not part of
// a parse tree.
func slabOf[T any](a *Arena) *slab[T] {
	if a == nil {
		return nil
	}
	var s any
	switch any((*T)(nil)).(type) {
	case *AssignStmt:
		s = &a.assigns
	case *CallStmt:
		s = &a.callStmts
	case *IfStmt:
		s = &a.ifs
	case *CaseStmt:
		s = &a.cases
	case *CaseArm:
		s = &a.caseArms
	case *CaseLabel:
		s = &a.caseLabels
	case *WhileStmt:
		s = &a.whiles
	case *RepeatStmt:
		s = &a.repeats
	case *LoopStmt:
		s = &a.loops
	case *ExitStmt:
		s = &a.exits
	case *ForStmt:
		s = &a.fors
	case *WithStmt:
		s = &a.withs
	case *ReturnStmt:
		s = &a.returns
	case *RaiseStmt:
		s = &a.raises
	case *TryStmt:
		s = &a.tries
	case *Handler:
		s = &a.handlers
	case *LockStmt:
		s = &a.locks
	case *StmtList:
		s = &a.lists
	case *BinaryExpr:
		s = &a.binaries
	case *UnaryExpr:
		s = &a.unaries
	case *IntLit:
		s = &a.intLits
	case *RealLit:
		s = &a.realLits
	case *StringLit:
		s = &a.stringLits
	case *CharLit:
		s = &a.charLits
	case *SetExpr:
		s = &a.sets
	case *CallExpr:
		s = &a.calls
	case *Designator:
		s = &a.designators
	case *FieldSel:
		s = &a.fieldSels
	case *IndexSel:
		s = &a.indexSels
	case *DerefSel:
		s = &a.derefSels
	case *Qualident:
		s = &a.qualidents
	case *Stmt:
		s = &a.stmts
	case *Expr:
		s = &a.exprs
	case *Selector:
		s = &a.sels
	case *ElsifArm:
		s = &a.elsifs
	case **CaseArm:
		s = &a.armRefs
	case **CaseLabel:
		s = &a.labelRefs
	case *SetElem:
		s = &a.setElems
	case **Handler:
		s = &a.handlerRef
	case **Qualident:
		s = &a.qualRefs
	case *Name:
		s = &a.names
	case *Module:
		s = &a.modules
	case *Import:
		s = &a.imports
	case *ConstDecl:
		s = &a.constDecls
	case *TypeDecl:
		s = &a.typeDecls
	case *VarDecl:
		s = &a.varDecls
	case *ExceptionDecl:
		s = &a.excDecls
	case *ProcDecl:
		s = &a.procDecls
	case *ProcHead:
		s = &a.procHeads
	case *FPSection:
		s = &a.fpSections
	case *NamedType:
		s = &a.namedTypes
	case *EnumType:
		s = &a.enumTypes
	case *SubrangeType:
		s = &a.subranges
	case *ArrayType:
		s = &a.arrayTypes
	case *RecordType:
		s = &a.recordTypes
	case *FieldList:
		s = &a.fieldLists
	case *VariantPart:
		s = &a.variants
	case *VariantCase:
		s = &a.varCases
	case *SetType:
		s = &a.setTypes
	case *PointerType:
		s = &a.ptrTypes
	case *RefType:
		s = &a.refTypes
	case *ProcType:
		s = &a.procTypes
	case *ProcTypeParam:
		s = &a.procParams
	case *Decl:
		s = &a.decls
	case *Type:
		s = &a.types
	case **Import:
		s = &a.importRefs
	case **FPSection:
		s = &a.fpRefs
	case **FieldList:
		s = &a.fieldRefs
	case **VariantCase:
		s = &a.caseRefs
	case **ProcTypeParam:
		s = &a.paramRefs
	}
	sl, _ := s.(*slab[T])
	return sl
}

// New returns a copy of v allocated in a, or on the heap when a is nil.
func New[T any](a *Arena, v T) *T {
	var n *T
	if s := slabOf[T](a); s != nil {
		n = &s.take(a, 1)[0]
	} else {
		n = new(T)
	}
	*n = v
	return n
}

// Slice returns an exact-size copy of src from a (from the heap when a
// is nil); nil when src is empty.
func Slice[T any](a *Arena, src []T) []T {
	s := slabOf[T](a)
	if s == nil || len(src) == 0 {
		return append([]T(nil), src...)
	}
	return append(s.take(a, len(src))[:0], src...)
}

// Append is append for lists of a's tree: a full list moves to twice
// its length in a (grows on the heap when a is nil).
func Append[T any](a *Arena, list []T, v T) []T {
	if s := slabOf[T](a); s != nil && len(list) == cap(list) {
		list = append(s.take(a, max(2*len(list), 1))[:0], list...)
	}
	return append(list, v)
}

// Arenas recycles arenas across compilations; their chunks are recycled
// by lists of their own.
var Arenas = &pool.List[*Arena]{
	New:  func() *Arena { return new(Arena) },
	Size: func(a *Arena) int { return int(unsafe.Sizeof(*a)) + a.Stacks.held(false) },
}

// GetArena returns an empty arena.
func GetArena() *Arena { return Arenas.Get() }

// PutArena scrubs everything handed out from a, returns its chunks to
// their lists and a to Arenas.  Nothing may still read the tree built
// in it: every node is scrubbed, then reused by another parse.
func PutArena(a *Arena) {
	for _, s := range a.touched {
		s.reset()
	}
	clear(a.touched)
	a.touched = a.touched[:0]
	if a.Stacks.held(true) > 16<<10 {
		a.Stacks = Stacks{} // grown by some very long list: not worth pinning
	}
	Arenas.Put(a)
}

// chunkBytes is the size of one slab chunk: small enough that a body's
// partly filled last chunks waste little next to its tree.
const chunkBytes = 1 << 10

// chunkLists holds one free list of chunks per slab type, keyed by a
// nil *T and made at the type's first use.  Each is a pool.List, so the
// chunks held are bounded by what recent compilations had out at once,
// whichever arenas they were drawn through.
var chunkLists sync.Map

func chunks[T any]() *pool.List[[]T] {
	l, ok := chunkLists.Load((*T)(nil))
	if !ok {
		l, _ = chunkLists.LoadOrStore((*T)(nil), &pool.List[[]T]{
			New:  func() []T { return make([]T, chunkLen[T]()) },
			Size: func([]T) int { return chunkLen[T]() * int(unsafe.Sizeof(*new(T))) },
		})
	}
	return l.(*pool.List[[]T])
}

func chunkLen[T any]() int { return max(chunkBytes/int(unsafe.Sizeof(*new(T))), 1) }

// ChunkStats sums the traffic and holdings of every chunk list.
func ChunkStats() (sum pool.Stats) {
	chunkLists.Range(func(_, l any) bool {
		sum = sum.Add(l.(interface{ Stats() pool.Stats }).Stats())
		return true
	})
	return sum
}

// slab is a typed bump allocator over chunks it took from free, the
// last of them handed out from up to off.
type slab[T any] struct {
	free   *pool.List[[]T]
	chunks [][]T
	off    int
}

// take returns n elements to overwrite as a slice whose capacity is n,
// so an append by the holder reallocates instead of running into a
// neighbour.
func (s *slab[T]) take(a *Arena, n int) []T {
	size := chunkLen[T]()
	if n > size {
		return make([]T, n)
	}
	if len(s.chunks) == 0 || s.off+n > size {
		if len(s.chunks) == 0 {
			if s.free == nil {
				s.free = chunks[T]()
			}
			a.touched = append(a.touched, s)
		}
		s.chunks, s.off = append(s.chunks, s.free.Get()), 0
	}
	out := s.chunks[len(s.chunks)-1][s.off : s.off+n : s.off+n]
	s.off += n
	return out
}

// reset scrubs what was handed out and returns every chunk to free.
func (s *slab[T]) reset() {
	last := len(s.chunks) - 1
	for _, c := range s.chunks[:last] {
		pool.Scrub(c)
	}
	pool.Scrub(s.chunks[last][:s.off])
	s.free.Put(s.chunks...)
	clear(s.chunks)
	s.chunks, s.off = s.chunks[:0], 0
}
