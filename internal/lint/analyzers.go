package lint

import (
	"go/ast"
	"strings"
)

// GuardedFire enforces the event-firing discipline: production code
// must fire Supervisor events through ctrace.TaskCtx.FireEvent (which
// records the firing in the concurrency trace and notifies the
// observer) rather than calling Event.Fire directly.  The event
// package itself is exempt, as are _test.go files and call sites
// annotated with "// vet:allowfire <reason>" (on the call's line or
// the line above) — those are the handful of places that fire before
// a TaskCtx exists or where the trace record is made by hand.
var GuardedFire = &Analyzer{
	Name: "guardedfire",
	Doc: "flags raw zero-argument .Fire() calls outside internal/event; " +
		"fire events via ctrace.TaskCtx.FireEvent or annotate the site " +
		"with // vet:allowfire <reason>",
	Run: runGuardedFire,
}

func runGuardedFire(p *Pass) error {
	if strings.HasSuffix(p.Path, "internal/event") {
		return nil
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		allowed := markedLines(p.Fset, f, "vet:allowfire")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Fire" {
				return true
			}
			if allowed[p.Fset.Position(call.Pos()).Line] {
				return true
			}
			p.Reportf(call.Pos(), "raw .Fire() call; fire events through ctrace.TaskCtx.FireEvent so the trace and observer see them, or annotate // vet:allowfire <reason>")
			return true
		})
	}
	return nil
}

// ObsGuard keeps the observability layer optional: every exported
// pointer-receiver method in internal/obs must tolerate a nil
// receiver, because the compiler passes a nil *Observer around when
// tracing is off.  A method satisfies the invariant either by opening
// with an explicit `if recv == nil` guard or by using its receiver
// exclusively as the receiver of other method calls (pure delegation
// — the callees carry the guards).
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc: "exported pointer-receiver methods in internal/obs must begin " +
		"with an `if recv == nil` guard or only delegate through the " +
		"receiver; a nil observer is the disabled state and must be a no-op",
	Run: runObsGuard,
}

func runObsGuard(p *Pass) error {
	if !strings.HasSuffix(p.Path, "internal/obs") {
		return nil
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recv := pointerRecvName(fd)
			if recv == "" || recv == "_" {
				continue
			}
			if startsWithNilGuard(fd.Body, recv) || delegatesOnly(fd.Body, recv) {
				continue
			}
			p.Reportf(fd.Pos(), "exported method %s must start with `if %s == nil` (a nil observer means tracing is off and every method must be a no-op)", fd.Name.Name, recv)
		}
	}
	return nil
}

// pointerRecvName returns the receiver identifier of a *T method, or
// "" for value receivers and unnamed receivers (which cannot be
// dereferenced and so are trivially nil-safe).
func pointerRecvName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) != 1 {
		return ""
	}
	field := fd.Recv.List[0]
	if _, ok := field.Type.(*ast.StarExpr); !ok {
		return ""
	}
	if len(field.Names) != 1 {
		return ""
	}
	return field.Names[0].Name
}

// startsWithNilGuard reports whether the body's first statement is an
// `if recv == nil { ... }` check, possibly widened with further `||`
// disjuncts (`if o == nil || e == nil`).
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	return condChecksNil(ifs.Cond, recv)
}

// condChecksNil reports whether cond contains `recv == nil` as a
// top-level `||` disjunct.
func condChecksNil(cond ast.Expr, recv string) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return condChecksNil(e.X, recv)
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "||":
			return condChecksNil(e.X, recv) || condChecksNil(e.Y, recv)
		case "==":
			return isIdent(e.X, recv) && isIdent(e.Y, "nil") ||
				isIdent(e.X, "nil") && isIdent(e.Y, recv)
		}
	}
	return false
}

// delegatesOnly reports whether every use of recv in the body is as
// the receiver of a method call (recv.M(...)); such methods inherit
// nil-safety from their callees.
func delegatesOnly(body *ast.BlockStmt, recv string) bool {
	callRecv := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
				callRecv[id] = true
			}
		}
		return true
	})
	ok := true
	ast.Inspect(body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if id, isID := n.(*ast.Ident); isID && id.Name == recv && !callRecv[id] {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// NoTime bans wall-clock reads in the deterministic packages: the
// simulator (internal/sim) and the concurrency trace (internal/ctrace)
// never read the clock, so that replays and what-if analyses are
// reproducible.  Work units are their own clock; measured times arrive
// from internal/sched, which reads the clock as traced tasks take and
// leave worker slots and hands ctrace the result to store and map.  A
// time.Now or time.Since there silently breaks replay determinism.
var NoTime = &Analyzer{
	Name: "notime",
	Doc: "flags time.Now/time.Since in internal/sim and internal/ctrace; " +
		"those packages never read the clock: they derive times from " +
		"work units or store measured times internal/sched hands them",
	Run: runNoTime,
}

func runNoTime(p *Pass) error {
	if !strings.HasSuffix(p.Path, "internal/sim") && !strings.HasSuffix(p.Path, "internal/ctrace") {
		return nil
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		timeNames := map[string]bool{}
		for _, imp := range f.Imports {
			if imp.Path.Value != `"time"` {
				continue
			}
			name := "time"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			timeNames[name] = true
		}
		if len(timeNames) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !timeNames[id.Name] {
				return true
			}
			if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
				p.Reportf(sel.Pos(), "wall-clock read %s.%s in a deterministic package; derive times from work units", id.Name, sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// GuardsComment enforces the lock-documentation convention: every
// struct field that is a sync.Mutex/sync.RWMutex or a channel must
// carry a doc or line comment containing "guards:" stating what the
// lock protects or what the channel signals.  The comment is the only
// machine-checkable link between a lock and its protected state.
var GuardsComment = &Analyzer{
	Name: "guardscomment",
	Doc: "struct fields of type sync.Mutex/sync.RWMutex or chan must " +
		"carry a comment containing \"guards:\" documenting the protected " +
		"state or signalled condition",
	Run: runGuardsComment,
}

func runGuardsComment(p *Pass) error {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				kind := lockKind(field.Type)
				if kind == "" {
					continue
				}
				if strings.Contains(field.Doc.Text(), "guards:") ||
					strings.Contains(field.Comment.Text(), "guards:") {
					continue
				}
				name := "(embedded)"
				if len(field.Names) > 0 {
					name = field.Names[0].Name
				}
				p.Reportf(field.Pos(), "%s field %s needs a \"// guards: ...\" comment documenting the protected state", kind, name)
			}
			return true
		})
	}
	return nil
}

// lockKind classifies a field type as "mutex", "chan" or "" (neither).
func lockKind(t ast.Expr) string {
	switch tt := t.(type) {
	case *ast.SelectorExpr:
		if isIdent(tt.X, "sync") && (tt.Sel.Name == "Mutex" || tt.Sel.Name == "RWMutex") {
			return "mutex"
		}
	case *ast.ChanType:
		return "chan"
	case *ast.StarExpr:
		return lockKind(tt.X)
	}
	return ""
}
