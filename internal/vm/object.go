package vm

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unsafe"

	"m2cc/internal/token"
)

// ProcMeta describes one compiled procedure: its identity, addressing
// metadata and code segment.  The Segment is produced by exactly one
// statement-analyzer/code-generator task and read only after the merge.
type ProcMeta struct {
	Idx      int32  // object-local index
	stream   int32  // the body stream that reserved Idx (see ReserveProc)
	Name     string // dotted path within the module, e.g. "Sort" or "Sort.Partition"
	Module   string // module the procedure belongs to
	Exported bool   // heading appears in the definition module
	IsBody   bool   // the module initialization body
	Level    int32  // static nesting level (module body = 0)
	ArgSlots int32
	Frame    int32 // total frame slots (args + locals + temporaries)
	HasRet   bool
	Pos      token.Pos
	Segment
}

// FullName returns "Module.Name" (or "Module..body" for bodies).
func (p *ProcMeta) FullName() string {
	if p.IsBody {
		return p.Module + "..body"
	}
	return p.Module + "." + p.Name
}

// Is reports whether s is p's FullName, without building it.
func (p *ProcMeta) Is(s string) bool {
	m := len(p.Module)
	return len(s) == m+1+len(p.Name) && s[:m] == p.Module && s[m] == '.' && s[m+1:] == p.Name
}

// Area is one global storage area.  Each declaration scope that owns
// module-level variables gets its own area ("M.def", "M.mod"), which is
// what lets definition and implementation declaration tasks assign
// offsets independently, without cross-stream coordination.
type Area struct {
	Name  string
	Slots int32
}

// Object is the output of compiling one implementation module: the
// paper's "complete compiler result" after the merge task concatenates
// the per-stream code (§2.1).  Cross-module references remain symbolic
// (CallExt, area and exception names) until Link.
type Object struct {
	Module  string
	Procs   []*ProcMeta
	Areas   []*Area
	Excs    []string // object-local exception index → "Module.Name"
	Imports []string // directly imported modules (for initialization order)
	Body    int32    // object-local index of the module body proc, -1 if none
}

// Registry assigns object-local indices during compilation.  Methods
// are safe for concurrent use by the compiler's tasks.  Procedure and
// area indices reserved up front (ReserveProc, AddAreas) follow the
// source; the rest follow first use, which the schedule decides, so
// everything observable (listings, link resolution) goes through names.
type Registry struct {
	mu         sync.Mutex // guards: module, procs, and the index maps below
	module     string
	procs      []*ProcMeta // procs[:nres] were reserved, by increasing stream
	nres       int
	areas      []*Area
	areaByName map[string]int32
	excs       []string
	excByName  map[string]int32
	imports    []string
	importSeen map[string]bool
	body       int32
	names      Chain // dotted names of nested procedures
}

// Nest returns the dotted name of a procedure declared in the one named
// outer.
func (r *Registry) Nest(outer, name string) string { return r.names.Join(outer, ".", name) }

// Chain makes strings that extend one another, as the dotted names of
// nested procedures do, without copying what they share: a string
// joined onto the last one the chain made is written after it in the
// same buffer, so a chain of nested names takes bytes in proportion to
// the longest rather than to all of them.  Any other join copies.  Safe
// for concurrent use; the zero Chain is ready.
type Chain struct {
	mu   sync.Mutex // guards: last
	last []byte     // the last string made, with room after it
}

// Join returns outer + sep + name.
func (c *Chain) Join(outer, sep, name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.last
	if len(outer) != len(b) || unsafe.StringData(outer) != unsafe.SliceData(b) {
		b = append(make([]byte, 0, len(outer)+len(sep)+len(name)), outer...)
	}
	b = append(append(b, sep...), name...)
	c.last = b
	return unsafe.String(unsafe.SliceData(b), len(b)) // no join writes below len(b) again
}

// NewRegistry returns a registry for compiling the named module.
func NewRegistry(module string) *Registry {
	return &Registry{
		module:     module,
		areaByName: make(map[string]int32),
		excByName:  make(map[string]int32),
		importSeen: make(map[string]bool),
		body:       -1,
	}
}

// Module returns the name of the module being compiled.
func (r *Registry) Module() string { return r.module }

// ReserveProc gives the procedure whose body stream carries the next
// index: called as the splitter starts each stream (in source order,
// with increasing stream numbers), it makes indices source-order ranks.
// Once a procedure registered unreserved, it is a no-op.
func (r *Registry) ReserveProc(stream int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nres == len(r.procs) {
		r.procs = append(r.procs, &ProcMeta{Idx: int32(r.nres), Module: r.module, stream: stream})
		r.nres++
	}
}

// NewProc registers the procedure whose body stream carries (0 for an
// inline body or the module body): it takes the index reserved for
// stream, or else the next one.  Identity fields are fixed here; Frame
// and Code are filled later by the code generator task that owns the
// procedure.
func (r *Registry) NewProc(stream int32, name string, exported, isBody bool, level, argSlots int32, hasRet bool, pos token.Pos) *ProcMeta {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := slices.BinarySearchFunc(r.procs[:r.nres], stream, func(p *ProcMeta, s int32) int { return cmp.Compare(p.stream, s) })
	if !ok {
		i = len(r.procs)
		r.procs = append(r.procs, &ProcMeta{Idx: int32(i), Module: r.module})
	}
	p := r.procs[i]
	p.Name, p.Exported, p.IsBody, p.Level = name, exported, isBody, level
	p.ArgSlots, p.HasRet, p.Pos = argSlots, hasRet, pos
	if isBody {
		r.body = p.Idx
	}
	return p
}

// AddAreas registers the named areas in order and sizes the name
// tables for as many interfaces.  Call it before the registry is shared.
func (r *Registry) AddAreas(names []string) {
	r.areaByName, r.importSeen = make(map[string]int32, len(names)), make(map[string]bool, len(names))
	for _, n := range names {
		r.AreaIdx(n)
	}
}

// AreaIdx returns (allocating on first use) the object-local index of
// the named global area.
func (r *Registry) AreaIdx(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.areaByName[name]; ok {
		return i
	}
	i := int32(len(r.areas))
	r.areas = append(r.areas, &Area{Name: name})
	r.areaByName[name] = i
	return i
}

// SetAreaSlots records the final size of an area, once its owning
// declaration task completes.
func (r *Registry) SetAreaSlots(idx int32, slots int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.areas[idx].Slots = slots
}

// ExcIdx returns (allocating on first use) the object-local index of
// the exception with the given fully qualified name ("Module.Name").
func (r *Registry) ExcIdx(fullName string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.excByName[fullName]; ok {
		return i
	}
	i := int32(len(r.excs))
	r.excs = append(r.excs, fullName)
	r.excByName[fullName] = i
	return i
}

// AddImport records a directly imported module.
func (r *Registry) AddImport(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.importSeen[name] {
		r.importSeen[name] = true
		r.imports = append(r.imports, name)
	}
}

// Object freezes the registry into an Object.  Call after compilation
// completes (the merge task does).
func (r *Registry) Object() *Object {
	r.mu.Lock()
	defer r.mu.Unlock()
	imports := append([]string(nil), r.imports...)
	sort.Strings(imports)
	return &Object{
		Module: r.module, Procs: r.procs, Areas: r.areas,
		Excs: r.excs, Imports: imports, Body: r.body,
	}
}

// Listing renders the object as deterministic symbolic assembly:
// procedures sorted by source position, every cross-reference shown by
// name.  Because object-local indices never appear, concurrent and
// sequential compilations of the same program produce byte-identical
// listings — the property the differential tests check.
//
// Listing is AppendListing into a new buffer, which becomes the string
// without a copy (as strings.Builder.String does).
func (o *Object) Listing() string {
	b := o.AppendListing(nil)
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is never written again
}

// AppendListing, the one renderer, appends the listing to dst in one
// pass, grown once from the instruction count, with no per-line
// allocation.  Its bytes are a contract (golden hashes pin them);
// reflisting_test.go holds the fmt-based renderer it must equal.
func (o *Object) AppendListing(dst []byte) []byte {
	procs := append([]*ProcMeta(nil), o.Procs...)
	sort.Slice(procs, func(i, j int) bool {
		if procs[i].Module != procs[j].Module {
			return procs[i].Module < procs[j].Module
		}
		if procs[i].Pos != procs[j].Pos {
			return procs[i].Pos.Before(procs[j].Pos)
		}
		return procs[i].Name < procs[j].Name
	})
	n := 0
	for _, p := range procs {
		n += len(p.Code)
	}
	// 24 bytes covers the mean line of the generated suites (22).
	b := slices.Grow(dst, 24*n+64*(len(procs)+len(o.Areas)+1))
	b = append(append(b, "OBJECT "...), o.Module...)
	b = append(b, '\n')
	for _, a := range sortedAreas(o.Areas) {
		b = num(append(append(b, "AREA "...), a.Name...), " ", int64(a.Slots))
		b = append(b, '\n')
	}
	for _, p := range procs {
		if p.IsBody {
			b = append(b, "BODY "...)
		} else {
			b = append(b, "PROC "...)
		}
		b = append(b, p.FullName()...)
		b = num(b, " (level=", int64(p.Level))
		b = num(b, " args=", int64(p.ArgSlots))
		b = num(b, " frame=", int64(p.Frame))
		b = strconv.AppendBool(append(b, " ret="...), p.HasRet)
		b = append(b, ")\n"...)
		for pc, ins := range p.Code {
			b = appendPC(b, pc)
			b = o.appendInstr(b, p, ins)
			b = append(b, '\n')
		}
	}
	return b
}

func sortedAreas(areas []*Area) []*Area {
	out := append([]*Area(nil), areas...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// appendPC appends pc right-aligned in five columns and the two-space
// gutter ("%5d  ").
func appendPC(b []byte, pc int) []byte {
	for w := 10000; w > 1 && pc < w; w /= 10 {
		b = append(b, ' ')
	}
	return append(strconv.AppendInt(b, int64(pc), 10), ' ', ' ')
}

// num appends label and then v in decimal.
func num(b []byte, label string, v int64) []byte {
	return strconv.AppendInt(append(b, label...), v, 10)
}

// appendInstr renders one instruction of p with symbolic operands: the
// mnemonic left-justified in nine columns and a space ("%-9s "), then
// the operands; a bare mnemonic is not padded.
func (o *Object) appendInstr(b []byte, p *ProcMeta, ins Instr) []byte {
	name := ins.Op().String()
	bare := len(b) + len(name)
	b = append(append(b, name...), "          "[min(len(name), 9):]...)
	switch ins.Op() {
	case PushInt:
		return num(b, "", p.intOperand(ins))
	case PushReal:
		return strconv.AppendFloat(b, math.Float64frombits(uint64(p.Ints[ins.B])), 'G', -1, 64)
	case PushStr:
		return strconv.AppendQuote(b, p.Strs[ins.A()])
	case PushProc:
		if ins.A() < 0 {
			return append(b, p.Exts[ins.B]...)
		}
		return append(b, o.Procs[ins.A()].FullName()...)
	case LdGlb, StGlb, LdaGlb:
		return num(append(b, o.Areas[ins.A()].Name...), "+", int64(ins.B))
	case LdLoc, StLoc, LdaLoc:
		return num(num(b, "up", int64(ins.A())), "+", int64(ins.B))
	case Call:
		return append(b, o.Procs[ins.A()].FullName()...)
	case CallExt:
		return append(b, p.Exts[ins.A()]...)
	case CallInd:
		return num(b, "args=", int64(ins.B))
	case Raise, ExcIs:
		return append(b, o.Excs[ins.A()]...)
	case Jmp, Jz, Jnz, EnterTry:
		return num(b, "->", int64(ins.A()))
	case Index:
		return num(num(num(b, "lo=", p.Ints[ins.B]), " elems=", p.Ints[ins.B+1]), " size=", int64(ins.A()))
	case IndexOp:
		return num(b, "size=", int64(ins.A()))
	case ChkRange:
		return num(num(b, "", p.Ints[ins.B]), "..", p.Ints[ins.B+1])
	case CmpI, CmpF, CmpS, CmpA, SetCmp:
		return num(b, "rel=", int64(ins.A()))
	case Copy, NewObj:
		return num(b, "slots=", int64(ins.A()))
	case MathOp:
		return num(b, "fn=", int64(ins.A()))
	}
	if ins.A() != 0 || ins.B != 0 {
		// " imm=0": the listing format predates the pools.
		return append(num(num(b, "a=", int64(ins.A())), " b=", int64(ins.B)), " imm=0"...)
	}
	return b[:bare]
}
