// Package codegen implements the Statement-Analyzer/Code-Generator task
// of the concurrent compiler.
//
// Per §3 of the paper, statement semantic analysis is deliberately
// combined with code generation in a single task: by the time statement
// work is ready to run there are almost always more parallel tasks than
// processors, so splitting further would buy nothing — while deferring
// statement work lets declaration tables complete early, resolving DKY
// blockages sooner.  Accordingly this package type-checks statements
// and expressions as it emits stack-machine code, one independent code
// segment per stream, merged later by simple concatenation (§2.1).
package codegen

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/pool"
	"m2cc/internal/sema"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// Gen compiles the statements of one stream into its code segment.
type Gen struct {
	env   *sema.Env
	scope *symtab.Scope
	meta  *vm.ProcMeta
	sig   *types.Type // procedure signature; nil for module bodies

	code     []vm.Instr
	pools    vm.Segment           // constant pools only; Code is set from g.code at the end
	withs    []symtab.WithBinding // the active WITH records, innermost last
	withTemp []int32              // the frame slot holding each one's address
	tempTop  int32
	maxFrame int32
	cur      ast.Stmt // the statement last begun, where limit diagnostics point
	loops    []*loopCtx
	areas    [4]areaMemo // the first globals areas the segment touches
	nAreas   int
}

// areaMemo is one resolved globals-area name.
type areaMemo struct {
	name string
	idx  int32
}

type loopCtx struct {
	exits []int32 // Jmp indexes to patch to the loop end
}

// EmitBufs recycles emission buffers across Compile calls.  The final
// code segment is retained by the object for the program's lifetime,
// so emitting straight into a fresh slice pays the append-doubling
// garbage on every procedure; instead each Compile emits into a
// recycled buffer (1 024 instructions, 8 KiB: the suite's longest
// segment has 736) and retains only one exact-size copy.
var EmitBufs = &pool.List[[]vm.Instr]{
	New:  func() []vm.Instr { return make([]vm.Instr, 0, 1024) },
	Size: func(b []vm.Instr) int { return cap(b) * int(unsafe.Sizeof(vm.Instr{})) },
}

// Compile type-checks and generates code for body (and, for functions,
// verifies a value-return path), storing the segment and the final
// frame size into meta.  frameBase is the first free frame slot after
// parameters and locals.
func Compile(env *sema.Env, scope *symtab.Scope, meta *vm.ProcMeta, sig *types.Type, frameBase int32, body *ast.StmtList) {
	buf := EmitBufs.Get()
	g := &Gen{env: env, scope: scope, meta: meta, sig: sig,
		tempTop: frameBase, maxFrame: frameBase, code: buf}
	g.stmtList(body)
	if sig != nil && sig.Ret != nil {
		g.emit(vm.NoRet, int32(meta.Pos.Line), 0)
	} else {
		g.emit(vm.RetP, 0, 0)
	}
	meta.Frame = g.maxFrame
	g.pools.Code = append(make([]vm.Instr, 0, len(g.code)), g.code...)
	meta.Segment = g.pools
	EmitBufs.Put(buf) // the buffer it was given, even if the code outgrew it
}

func (g *Gen) errorf(pos token.Pos, format string, args ...any) {
	g.env.Errorf(pos, format, args...)
}

// ---------------------------------------------------------------------
// Emission helpers

func (g *Gen) emit(op vm.Op, a, b int32) int32 {
	g.env.Ctx.Add(ctrace.CostEmit)
	g.code = append(g.code, g.instr(op, a, b))
	return int32(len(g.code) - 1)
}

// instr packs one instruction, diagnosing at the statement an A
// operand that does not fit.
func (g *Gen) instr(op vm.Op, a, b int32) vm.Instr {
	ins, ok := vm.NewInstr(op, a, b)
	if !ok {
		g.errorf(ast.StmtPos(g.cur), vm.LimitFmt, fmt.Sprintf("operand %d of %s in %s", a, op, g.meta.FullName()))
	}
	return ins
}

func (g *Gen) here() int32 { return int32(len(g.code)) }

// wide appends vs to the segment's Ints pool and returns the index of
// the first: where an operand too wide for A and B goes.
func (g *Gen) wide(vs ...int64) int32 {
	g.pools.Ints = append(g.pools.Ints, vs...)
	return int32(len(g.pools.Ints) - len(vs))
}

// emitInt pushes v: in B when it fits, else from the Ints pool (A < 0).
func (g *Gen) emitInt(v int64) {
	if v == int64(int32(v)) {
		g.emit(vm.PushInt, 0, int32(v))
	} else {
		g.emit(vm.PushInt, -1, g.wide(v))
	}
}

func (g *Gen) emitReal(f float64) {
	g.emit(vm.PushReal, 0, g.wide(int64(math.Float64bits(f))))
}

func (g *Gen) emitStr(s string) {
	g.pools.Strs = append(g.pools.Strs, strings.Clone(s)) // s may alias a source text the segment must not pin
	g.emit(vm.PushStr, int32(len(g.pools.Strs)-1), 0)
}

// emitIndex indexes an array of elems elements numbered from lo, each
// size slots wide.
func (g *Gen) emitIndex(lo, elems int64, size int32) {
	g.emit(vm.Index, size, g.wide(lo, elems))
}

// emitChkRange emits the lo..hi range check trapping at line.
func (g *Gen) emitChkRange(lo, hi int64, line int32) {
	g.emit(vm.ChkRange, line, g.wide(lo, hi))
}

// extIdx appends an external procedure name to the segment's Exts pool
// and returns its index (the linker resolves each entry to a ProcIdx).
func (g *Gen) extIdx(name string) int32 {
	g.pools.Exts = append(g.pools.Exts, name)
	return int32(len(g.pools.Exts) - 1)
}

// areaIdx resolves a globals-area name to this compilation's registry
// index.  Symbols carry area *names* (they may live in interface scopes
// shared across compilations); the index is object-local.  A segment
// touches few areas, so a few-entry memo scanned linearly keeps registry
// locking off the instruction-emission hot path; areas past it ask the
// registry each time.
func (g *Gen) areaIdx(name string) int32 {
	for _, m := range g.areas[:g.nAreas] {
		if m.name == name {
			return m.idx
		}
	}
	idx := g.env.Reg.AreaIdx(name)
	if g.nAreas < len(g.areas) {
		g.areas[g.nAreas] = areaMemo{name, idx}
		g.nAreas++
	}
	return idx
}

// excIdx resolves a fully qualified exception name to this
// compilation's registry index (see areaIdx for why symbols carry
// names rather than indices).
func (g *Gen) excIdx(name string) int32 {
	return g.env.Reg.ExcIdx(name)
}

// patch sets the jump target of instruction i to the current position.
func (g *Gen) patch(i int32) { g.code[i] = g.instr(g.code[i].Op(), g.here(), g.code[i].B) }

// allocTemp reserves n temporary frame slots; the caller releases them
// with releaseTemp (stack discipline within one statement nest).
func (g *Gen) allocTemp(n int32) int32 {
	off := g.tempTop
	g.tempTop += n
	if g.tempTop > types.MaxSlots {
		g.errorf(ast.StmtPos(g.cur), vm.LimitFmt, "the size in slots of the frame of "+g.meta.FullName())
	}
	g.maxFrame = max(g.maxFrame, g.tempTop)
	return off
}

func (g *Gen) releaseTemp(mark int32) { g.tempTop = mark }

// hops returns the number of static-link hops from the current
// procedure to a symbol declared at the given level.
func (g *Gen) hops(symLevel int32) int32 { return g.meta.Level - symLevel }

// emitConst pushes a constant value.
func (g *Gen) emitConst(v types.Const, pos token.Pos) *types.Type {
	switch v.Kind {
	case types.CInt:
		g.emitInt(v.I)
	case types.CReal:
		g.emitReal(v.F)
	case types.CString:
		g.emitStr(v.S)
	case types.CSet:
		g.emitInt(int64(v.Set))
	case types.CNil:
		g.emit(vm.PushNil, 0, 0)
	default:
		g.emit(vm.PushInt, 0, 0)
		return types.Bad
	}
	if v.Type == nil {
		return types.Bad
	}
	return v.Type
}

// rangeCheck emits a ChkRange when dst is a subrange (or CHR target).
func (g *Gen) rangeCheck(dst *types.Type, pos token.Pos) {
	d := dst.Deref()
	if d.Kind == types.SubrangeK {
		g.emitChkRange(d.Lo, d.Hi, int32(pos.Line))
	}
}
