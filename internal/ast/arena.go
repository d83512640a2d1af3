package ast

import (
	"sync"
	"unsafe"
)

// Arena holds statement parse trees, which live exactly as long as
// their compilation (§3: StmtCG consumes a stream's tree, then it is
// dead).  The parser bump-allocates a tree from typed slabs, one for
// each node type that makes up at least 1 % of body-tree bytes on the
// benchmark corpora (other nodes come from the heap); the driver lets
// the streams of one compilation fill an arena one parse after another
// and returns it to a process-wide pool when the compilation ends.  A
// nil *Arena allocates from the heap, as the sequential compiler, the
// linter and declaration parsing do.  One parser fills an Arena at a
// time.
type Arena struct {
	designators slab[Designator]
	intLits     slab[IntLit]
	binaries    slab[BinaryExpr]
	calls       slab[CallExpr]
	assigns     slab[AssignStmt]
	ifs         slab[IfStmt]
	fors        slab[ForStmt]
	whiles      slab[WhileStmt]
	caseArms    slab[CaseArm]
	caseLabels  slab[CaseLabel]
	lists       slab[StmtList]
	stmts       slab[Stmt] // backing stores of StmtList.Stmts
	exprs       slab[Expr] // backing stores of argument and index lists
	Stacks      Stacks     // kept, so a recycled arena parses without growing them
}

// Stacks are a parser's scratch stacks for lists under construction:
// elements are pushed while a list is parsed, then copied once into an
// exact-size slice and popped.  They are empty between parses.
type Stacks struct {
	Stmts []Stmt
	Exprs []Expr
}

// New returns a copy of v allocated in a, or on the heap when a is nil
// or keeps no slab for T.
func New[T any](a *Arena, v T) *T {
	var p any
	if a != nil {
		switch any((*T)(nil)).(type) {
		case *Designator:
			p = a.designators.new()
		case *IntLit:
			p = a.intLits.new()
		case *BinaryExpr:
			p = a.binaries.new()
		case *CallExpr:
			p = a.calls.new()
		case *AssignStmt:
			p = a.assigns.new()
		case *IfStmt:
			p = a.ifs.new()
		case *ForStmt:
			p = a.fors.new()
		case *WhileStmt:
			p = a.whiles.new()
		case *CaseArm:
			p = a.caseArms.new()
		case *CaseLabel:
			p = a.caseLabels.new()
		case *StmtList:
			p = a.lists.new()
		}
	}
	n, ok := p.(*T)
	if !ok {
		n = new(T)
	}
	*n = v
	return n
}

// Stmts returns an exact-size copy of src from a (from the heap when a
// is nil); nil when src is empty.
func (a *Arena) Stmts(src []Stmt) []Stmt {
	if a == nil || len(src) == 0 {
		return append([]Stmt(nil), src...)
	}
	return append(a.stmts.slice(len(src))[:0], src...)
}

// Exprs is Stmts for expression lists.
func (a *Arena) Exprs(src []Expr) []Expr {
	if a == nil || len(src) == 0 {
		return append([]Expr(nil), src...)
	}
	return append(a.exprs.slice(len(src))[:0], src...)
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena returns an empty arena from the process-wide pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena zeroes everything handed out from a, so the pooled arena
// pins nothing, and returns it to the pool.  The caller must be sure
// nothing still reads the tree built in it: every node becomes zero and
// is then reused by another parse.
func PutArena(a *Arena) {
	a.designators.reset()
	a.intLits.reset()
	a.binaries.reset()
	a.calls.reset()
	a.assigns.reset()
	a.ifs.reset()
	a.fors.reset()
	a.whiles.reset()
	a.caseArms.reset()
	a.caseLabels.reset()
	a.lists.reset()
	a.stmts.reset()
	a.exprs.reset()
	if cap(a.Stacks.Stmts) > 256 || cap(a.Stacks.Exprs) > 256 {
		a.Stacks = Stacks{} // grown by one very long list: not worth pinning
	}
	arenaPool.Put(a)
}

// chunkBytes is the size of one slab chunk: small enough that a body's
// partly filled last chunks waste little next to its tree.
const chunkBytes = 1 << 10

// slab is a typed bump allocator over fixed-size chunks; chunks[:used]
// have been handed out from, the last of them up to off.
type slab[T any] struct {
	chunks    [][]T
	used, off int
}

func (s *slab[T]) new() *T { return &s.slice(1)[0] }

// slice returns n zeroed elements as a slice whose capacity is n, so an
// append by the holder reallocates instead of running into a neighbour.
func (s *slab[T]) slice(n int) []T {
	size := max(chunkBytes/int(unsafe.Sizeof(*new(T))), 1)
	if n > size {
		return make([]T, n)
	}
	if s.used == 0 || s.off+n > size {
		if s.used == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, size))
		}
		s.used, s.off = s.used+1, 0
	}
	out := s.chunks[s.used-1][s.off : s.off+n : s.off+n]
	s.off += n
	return out
}

// reset clears the chunks handed out from and keeps only those, so a
// pooled arena holds about the footprint of its last compilation.
func (s *slab[T]) reset() {
	for _, c := range s.chunks[:s.used] {
		clear(c)
	}
	clear(s.chunks[s.used:])
	s.chunks, s.used, s.off = s.chunks[:s.used], 0, 0
}
