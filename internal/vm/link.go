package vm

import (
	"fmt"
	"sort"
)

// Program is a fully linked, executable image: all symbolic references
// resolved to global indices, module initialization ordered.
type Program struct {
	Procs    []*ProcMeta
	AreaDefs []*Area
	Excs     []string
	Init     []int32 // module body procs in initialization order
	Entry    int32   // the main module's body (-1 if it has none)
	Main     string
}

// Link resolves the symbolic cross-references of a set of compiled
// objects into a Program.  The main module's object must be present;
// objects for imported modules are optional as long as none of their
// procedures are called (pure-interface modules need no implementation).
func Link(objects []*Object, main string) (*Program, error) {
	objs := append([]*Object(nil), objects...)
	sort.Slice(objs, func(i, j int) bool { return objs[i].Module < objs[j].Module })

	p := &Program{Entry: -1, Main: main}

	// Global areas and exceptions, unified by name.
	areaIdx := make(map[string]int32)
	excIdx := make(map[string]int32)
	globalArea := func(a *Area) int32 {
		if i, ok := areaIdx[a.Name]; ok {
			if a.Slots > p.AreaDefs[i].Slots {
				p.AreaDefs[i].Slots = a.Slots
			}
			return i
		}
		i := int32(len(p.AreaDefs))
		p.AreaDefs = append(p.AreaDefs, &Area{Name: a.Name, Slots: a.Slots})
		areaIdx[a.Name] = i
		return i
	}
	globalExc := func(name string) int32 {
		if i, ok := excIdx[name]; ok {
			return i
		}
		i := int32(len(p.Excs))
		p.Excs = append(p.Excs, name)
		excIdx[name] = i
		return i
	}

	// First pass: global proc table and export map.
	exports := make(map[string]int32)
	bodies := make(map[string]int32)
	bases := make([]int32, len(objs))
	for oi, o := range objs {
		bases[oi] = int32(len(p.Procs))
		for _, pm := range o.Procs {
			g := int32(len(p.Procs))
			clone := *pm
			p.Procs = append(p.Procs, &clone)
			if pm.IsBody {
				bodies[o.Module] = g
			} else if pm.Exported {
				exports[pm.FullName()] = g
			}
		}
	}

	// Second pass: remap instructions.
	for oi, o := range objs {
		areaMap := make([]int32, len(o.Areas))
		for i, a := range o.Areas {
			areaMap[i] = globalArea(a)
		}
		excMap := make([]int32, len(o.Excs))
		for i, name := range o.Excs {
			excMap[i] = globalExc(name)
		}
		base := bases[oi]
		for pi, pm := range o.Procs {
			// ext resolves an Exts entry at the instruction that names
			// it, so the first diagnostic follows code order.
			ext := func(idx int32) (int32, error) {
				g, ok := exports[pm.Exts[idx]]
				if !ok {
					return 0, fmt.Errorf("link: undefined procedure %s (referenced by %s)", pm.Exts[idx], o.Module)
				}
				return g, nil
			}
			code := make([]Instr, len(pm.Code))
			for i, ins := range pm.Code {
				op, a, b := ins.Op(), ins.A(), ins.B
				var err error
				switch op {
				case Call:
					a += base
				case CallExt:
					op = Call
					a, err = ext(a)
				case PushProc:
					if a < 0 {
						a, err = ext(b)
						b = 0
					} else {
						a += base
					}
				case LdGlb, StGlb, LdaGlb:
					a = areaMap[a]
				case Raise, ExcIs:
					a = excMap[a]
				}
				if err != nil {
					return nil, err
				}
				var ok bool
				if code[i], ok = NewInstr(op, a, b); !ok {
					return nil, fmt.Errorf("link: "+LimitFmt, fmt.Sprintf("operand %d of %s in %s", a, op, pm.FullName()))
				}
			}
			p.Procs[base+int32(pi)].Code = code
		}
	}

	// Initialization order: imported module bodies before importers
	// (post-order over the import DAG from the main module).
	byName := make(map[string]*Object, len(objs))
	for _, o := range objs {
		byName[o.Module] = o
	}
	mainObj, ok := byName[main]
	if !ok {
		return nil, fmt.Errorf("link: main module %s has no object", main)
	}
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("link: import cycle through module %s", name)
		case 2:
			return nil
		}
		state[name] = 1
		if o := byName[name]; o != nil {
			for _, imp := range o.Imports {
				if imp == name {
					continue
				}
				if err := visit(imp); err != nil {
					return err
				}
			}
			if name != main {
				if b, ok := bodies[name]; ok {
					p.Init = append(p.Init, b)
				}
			}
		}
		state[name] = 2
		return nil
	}
	if err := visit(main); err != nil {
		return nil, err
	}
	if b, ok := bodies[main]; ok {
		p.Entry = b
	}
	_ = mainObj
	return p, nil
}
