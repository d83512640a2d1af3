package sema_test

import (
	"strings"
	"testing"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/parser"
	"m2cc/internal/sema"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// analyzeModule runs declaration analysis over the given module-level
// declaration source (no imports).
func analyzeModule(t *testing.T, decls string) (*sema.DeclAnalyzer, *symtab.Scope, *diag.Bag) {
	t.Helper()
	return analyzeModuleWith(t, decls, nil)
}

// analyzeModuleWith is analyzeModule with a hook that configures the
// analyzer before it runs.
func analyzeModuleWith(t *testing.T, decls string, setup func(*sema.DeclAnalyzer)) (*sema.DeclAnalyzer, *symtab.Scope, *diag.Bag) {
	t.Helper()
	src := "MODULE M;\n" + decls + "\nEND M.\n"
	files := source.NewSet()
	f := files.Add("M", source.Impl, src)
	diags := diag.NewBag(0)
	ctx := &ctrace.TaskCtx{}
	toks := lexer.ScanAll(f, ctx, diags)
	p := parser.New(parser.NewSliceSource(toks), "M.mod", ctx, diags)
	m := p.ParseUnit()

	tab := symtab.NewTable(symtab.Skeptical, nil, nil)
	scope := tab.NewScope(symtab.ModuleScope, "M", nil, 0)
	env := &sema.Env{
		Tab:    tab,
		Search: symtab.Searcher{Tab: tab, Ctx: ctx, Wait: symtab.NoWait},
		Ctx:    ctx, Diags: diags, File: "M.mod", Reg: vm.NewRegistry("M"),
	}
	a := sema.NewModuleAnalyzer(env, scope, "M.mod", "M", "M.mod", false)
	if setup != nil {
		setup(a)
	}
	a.Analyze(m.Decls)
	a.ResolveForwardRefs()
	scope.Complete(ctx)
	return a, scope, diags
}

func lookup(t *testing.T, scope *symtab.Scope, name string) *symtab.Symbol {
	t.Helper()
	s := scope.OwnerProbe(name)
	if s == nil {
		t.Fatalf("symbol %s not found", name)
	}
	return s
}

func TestConstEvaluation(t *testing.T) {
	_, scope, diags := analyzeModule(t, `
CONST
  a = 2 + 3 * 4;
  b = a DIV 5;
  c = -7 MOD 3;  (* unary minus binds looser: -(7 MOD 3) *)
  d = 3.5 * 2.0;
  e = "x";
  f = ORD("A") + 1;
  g = CHR(66);
  h = a > 10;
  i = NOT h;
  j = MAX(INTEGER);
  k = MIN(CHAR);
  l = ABS(-9);
  m = ODD(3);
  n = TRUNC(2.9);
  o = FLOAT(4);
  p = VAL(CHAR, 67);
  q = SIZE(INTEGER);
  r = {1, 3..5};
  s = r + {0};
  u = 2 IN r;
`)
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	wantInt := map[string]int64{
		"a": 14, "b": 2, "c": -1, "f": 66, "g": 66, "l": 9, "n": 2, "p": 67,
		"q": int64(types.WordBytes), "j": 2147483647,
	}
	for name, want := range wantInt {
		if got := lookup(t, scope, name).Val.I; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if !lookup(t, scope, "h").Val.Bool() {
		t.Error("h = 14 > 10 must be true")
	}
	if lookup(t, scope, "i").Val.Bool() {
		t.Error("i = NOT h must be false")
	}
	if got := lookup(t, scope, "d").Val.F; got != 7.0 {
		t.Errorf("d = %v", got)
	}
	if got := lookup(t, scope, "r").Val.Set; got != 0b111010 {
		t.Errorf("r = %b", got)
	}
	if got := lookup(t, scope, "s").Val.Set; got != 0b111011 {
		t.Errorf("s = %b", got)
	}
	if lookup(t, scope, "u").Val.Bool() {
		t.Error("2 IN {1,3..5} must be false")
	}
}

func TestConstErrors(t *testing.T) {
	cases := map[string]string{
		"CONST a = 1 DIV 0;":     "division by zero",
		"CONST a = 1 + TRUE;":    "invalid constant operands",
		"CONST a = undeclared;":  "undeclared identifier",
		"CONST a = {70};":        "outside 0..63",
		"CONST a = WriteLn(1);":  "cannot be applied",
		"CONST a = 1.0 / 0.0;":   "division by zero",
		"CONST a = MIN(BITSET);": "ordinal or real",
	}
	for src, want := range cases {
		_, _, diags := analyzeModule(t, src)
		if !strings.Contains(diags.String(), want) {
			t.Errorf("%q: want %q in:\n%s", src, want, diags)
		}
	}
}

func TestSetMembershipConst(t *testing.T) {
	_, scope, diags := analyzeModule(t, "CONST r = {1, 3..5}; u = 4 IN r; v = 2 IN r;")
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	if !lookup(t, scope, "u").Val.Bool() {
		t.Error("4 IN {1,3..5} must be true")
	}
	if lookup(t, scope, "v").Val.Bool() {
		t.Error("2 IN {1,3..5} must be false")
	}
}

func TestEnumDeclaration(t *testing.T) {
	_, scope, diags := analyzeModule(t, "TYPE Color = (Red, Green, Blue);\nCONST c = Green;")
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	color := lookup(t, scope, "Color")
	if color.Kind != symtab.KType || color.Type.Kind != types.EnumK || color.Type.EnumLen != 3 {
		t.Fatal("enum type wrong")
	}
	green := lookup(t, scope, "Green")
	if green.Kind != symtab.KConst || green.Val.I != 1 || green.Type != color.Type {
		t.Fatal("enum constant wrong")
	}
	if got := lookup(t, scope, "c").Val.I; got != 1 {
		t.Fatal("enum const propagation wrong")
	}
}

func TestVarOffsetsAndGlobals(t *testing.T) {
	a, scope, diags := analyzeModule(t, `
TYPE R = RECORD x, y: INTEGER END;
VAR i: INTEGER; r: R; j: CHAR;
`)
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	i, r, j := lookup(t, scope, "i"), lookup(t, scope, "r"), lookup(t, scope, "j")
	if !i.Global || !r.Global || !j.Global {
		t.Fatal("module vars must be globals")
	}
	if i.Offset != 0 || r.Offset != 1 || j.Offset != 3 {
		t.Fatalf("offsets %d, %d, %d; want 0, 1, 3", i.Offset, r.Offset, j.Offset)
	}
	if a.NextOff != 4 {
		t.Fatalf("area size %d, want 4", a.NextOff)
	}
}

func TestForwardPointerResolution(t *testing.T) {
	_, scope, diags := analyzeModule(t, `
TYPE
  List = POINTER TO Node;
  Node = RECORD val: INTEGER; next: List END;
`)
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	list := lookup(t, scope, "List").Type
	node := lookup(t, scope, "Node").Type
	if list.Kind != types.PointerK || list.Base != node {
		t.Fatal("forward pointer not patched")
	}
	if f := node.FieldNamed("next"); f == nil || f.Type != list {
		t.Fatal("recursive field wrong")
	}
}

// A shared heading copies its parameter types into the child scope, so
// the child must not be announced while one of them is a pointer whose
// Base the forward-reference pass has yet to patch: the child's code
// generator would dereference through a nil Base.
func TestSharedHeadingWaitsForPointerFixups(t *testing.T) {
	var announced []string
	_, _, diags := analyzeModuleWith(t, `
PROCEDURE Early(x: INTEGER); BEGIN END Early;
TYPE
  Rep = RECORD n: INTEGER END;
  Stack = POINTER TO Rep;
PROCEDURE Depth(s: Stack): INTEGER; BEGIN RETURN s^.n END Depth;
`, func(a *sema.DeclAnalyzer) {
		a.OnChild = func(cp *sema.ChildProc) {
			announced = append(announced, cp.Sym.Name)
			for _, p := range cp.Sym.Type.Params {
				if p.Type.Kind == types.PointerK && p.Type.Base == nil {
					t.Errorf("%s announced with unpatched pointer parameter %s", cp.Sym.Name, p.Name)
				}
			}
		}
	})
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	if strings.Join(announced, ",") != "Early,Depth" {
		t.Fatalf("children announced: %v", announced)
	}
}

func TestUnresolvedForwardPointer(t *testing.T) {
	_, _, diags := analyzeModule(t, "TYPE P = POINTER TO Ghost;")
	if !strings.Contains(diags.String(), "undeclared identifier Ghost") {
		t.Fatalf("missing error:\n%s", diags)
	}
}

func TestProcedureHeadingAnalysis(t *testing.T) {
	a, scope, diags := analyzeModule(t, `
PROCEDURE F(x, y: INTEGER; VAR s: CHAR; a: ARRAY OF INTEGER): INTEGER;
BEGIN
  RETURN x
END F;
`)
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	f := lookup(t, scope, "F")
	if f.Kind != symtab.KProc || f.ProcIdx != 0 {
		t.Fatal("proc symbol wrong")
	}
	sig := f.Type
	if len(sig.Params) != 4 || !sig.Params[2].ByRef || !sig.Params[3].Open {
		t.Fatal("signature wrong")
	}
	if len(a.Children) != 1 {
		t.Fatal("no child produced")
	}
	child := a.Children[0]
	// Frame: x(1) + y(1) + s(1, VAR) + a(2, open) = 5 slots.
	if child.FrameBase != 5 {
		t.Fatalf("frame base %d, want 5", child.FrameBase)
	}
	if child.Meta.ArgSlots != 5 || !child.Meta.Exported || child.Meta.Level != 1 {
		t.Fatalf("meta wrong: %+v", child.Meta)
	}
	// The child scope holds the copied entries (§2.4 alternative 1).
	if child.Scope.OwnerProbe("x") == nil || child.Scope.OwnerProbe("F") == nil {
		t.Fatal("heading entries not copied into the child scope")
	}
	ps := child.Scope.OwnerProbe("s")
	if !ps.ByRef || ps.Offset != 2 {
		t.Fatal("VAR param addressing wrong")
	}
	pa := child.Scope.OwnerProbe("a")
	if !pa.Open || pa.Offset != 3 {
		t.Fatal("open param addressing wrong")
	}
}

func TestAggregateResultRejected(t *testing.T) {
	_, _, diags := analyzeModule(t, `
TYPE R = RECORD x: INTEGER END;
PROCEDURE F(): R;
BEGIN
END F;
`)
	if !strings.Contains(diags.String(), "must be scalar") {
		t.Fatalf("missing error:\n%s", diags)
	}
}

func TestExceptionNames(t *testing.T) {
	_, scope, diags := analyzeModule(t, "EXCEPTION Bad, Worse;")
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	bad := lookup(t, scope, "Bad")
	worse := lookup(t, scope, "Worse")
	if bad.Kind != symtab.KException || bad.ExcName == worse.ExcName || bad.ExcName == "" {
		t.Fatal("exceptions must get distinct qualified names")
	}
}

func TestOpaqueOnlyInDefinitions(t *testing.T) {
	_, _, diags := analyzeModule(t, "TYPE T;")
	if !strings.Contains(diags.String(), "only legal in a definition module") {
		t.Fatalf("missing error:\n%s", diags)
	}
}

func TestArrayIndexMustBeBounded(t *testing.T) {
	_, _, diags := analyzeModule(t, "TYPE A = ARRAY INTEGER OF CHAR;")
	if !strings.Contains(diags.String(), "bounded ordinal") {
		t.Fatalf("missing error:\n%s", diags)
	}
}

func TestSetBaseRange(t *testing.T) {
	_, _, diags := analyzeModule(t, "TYPE S = SET OF INTEGER;")
	if !strings.Contains(diags.String(), "within 0..63") {
		t.Fatalf("missing error:\n%s", diags)
	}
	_, scope, diags2 := analyzeModule(t, "TYPE S = SET OF [0..63];")
	if diags2.HasErrors() {
		t.Fatalf("%s", diags2)
	}
	if lookup(t, scope, "S").Type.Kind != types.SetK {
		t.Fatal("legal set rejected")
	}
}

func TestNestedProcedureLevels(t *testing.T) {
	a, _, diags := analyzeModule(t, `
PROCEDURE Outer;
BEGIN
END Outer;
`)
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	outer := a.Children[0]
	// Analyze Outer's (empty) declarations and then a nested child.
	if outer.Meta.Level != 1 || outer.Scope.Level != 1 {
		t.Fatal("outer level wrong")
	}
	if path := sema.NewProcAnalyzer(a.Env, outer).Path(); path != "M.mod:Outer" {
		t.Fatalf("scope path %q", path)
	}
}

func TestFloorDivMod(t *testing.T) {
	cases := []struct{ a, b, q, m int64 }{
		{7, 2, 3, 1},
		{-7, 2, -4, 1},
		{7, -2, -4, -1},
		{-7, -2, 3, -1},
		{6, 3, 2, 0},
		{-6, 3, -2, 0},
	}
	for _, c := range cases {
		if q := sema.FloorDiv(c.a, c.b); q != c.q {
			t.Errorf("FloorDiv(%d, %d) = %d, want %d", c.a, c.b, q, c.q)
		}
		if m := sema.FloorMod(c.a, c.b); m != c.m {
			t.Errorf("FloorMod(%d, %d) = %d, want %d", c.a, c.b, m, c.m)
		}
	}
}

func TestTypeSynonymIdentity(t *testing.T) {
	_, scope, diags := analyzeModule(t, "TYPE A = INTEGER; B = A;")
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	if lookup(t, scope, "A").Type != types.Integer || lookup(t, scope, "B").Type != types.Integer {
		t.Fatal("TYPE A = B must create a synonym (same *Type)")
	}
}

func TestStructuralTypesGetNames(t *testing.T) {
	_, scope, diags := analyzeModule(t, "TYPE R = RECORD x: INTEGER END;")
	if diags.HasErrors() {
		t.Fatalf("%s", diags)
	}
	if got := lookup(t, scope, "R").Type.Name; got != "R" {
		t.Fatalf("record named %q", got)
	}
}

func TestExcNameDeterministic(t *testing.T) {
	if sema.ExcName("M.mod:P", "e") != "M.mod:P:e" {
		t.Fatal("exception naming changed — cross-object unification depends on it")
	}
}

var _ = ast.Module{} // keep the ast import for the helpers above
