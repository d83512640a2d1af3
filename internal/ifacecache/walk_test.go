package ifacecache_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"m2cc/internal/ifacecache"
)

// sealClosure is the closure order entries were once built with when
// they became ready, kept here as the reference for Walk: each dep's
// closure in import order, members already listed dropped, then the
// entry itself.
func sealClosure(e *ifacecache.Entry, deps map[*ifacecache.Entry][]*ifacecache.Entry, memo map[*ifacecache.Entry][]*ifacecache.Entry) []*ifacecache.Entry {
	if cl, ok := memo[e]; ok {
		return cl
	}
	var cl []*ifacecache.Entry
	for _, d := range deps[e] {
		for _, m := range sealClosure(d, deps, memo) {
			if !slices.Contains(cl, m) {
				cl = append(cl, m)
			}
		}
	}
	cl = append(cl, e)
	memo[e] = cl
	return cl
}

// randomDAG publishes n entries, each importing a random handful of
// earlier ones in random order, and returns them with their deps.
func randomDAG(t *testing.T, rng *rand.Rand, n int) ([]*ifacecache.Entry, map[*ifacecache.Entry][]*ifacecache.Entry) {
	t.Helper()
	files := make(map[string]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("D%d", i)
		files[name] = fmt.Sprintf("DEFINITION MODULE %s;\nEND %s.\n", name, name)
	}
	loader := loaderWith(files)
	c := ifacecache.New()
	ents := make([]*ifacecache.Entry, n)
	deps := make(map[*ifacecache.Entry][]*ifacecache.Entry, n)
	for i := range ents {
		name := fmt.Sprintf("D%d", i)
		ent, _, st := acquire(c, name, loader, false)
		if st != ifacecache.Lead {
			t.Fatalf("%s: %v, want Lead", name, st)
		}
		var imps []string
		if i > 0 {
			for _, j := range rng.Perm(i)[:rng.Intn(min(i, 4)+1)] {
				deps[ent] = append(deps[ent], ents[j])
				imps = append(imps, ents[j].Name())
			}
		}
		ent.Publish(newScope(name), name+".def", 0, imps, deps[ent], nil)
		if !ent.Ready() {
			t.Fatalf("%s not ready after its deps were", name)
		}
		ents[i] = ent
	}
	return ents, deps
}

// TestWalkMatchesSealOrder: on seeded random DAGs, Walk lists every
// entry's closure in exactly the reference order, and with a held,
// downward-closed set of members skipped it lists the reference order
// less those members — what an install into a compilation that
// already holds them adds.
func TestWalkMatchesSealOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ents, deps := randomDAG(t, rng, 5+rng.Intn(40))
		memo := make(map[*ifacecache.Entry][]*ifacecache.Entry)
		for _, e := range ents {
			want := sealClosure(e, deps, memo)
			if got := closure(e); !slices.Equal(got, want) {
				t.Fatalf("seed %d: closure of %s is %v, want %v", seed, e.Name(), names(got), names(want))
			}
			held := sealClosure(ents[rng.Intn(len(ents))], deps, memo)
			var got []*ifacecache.Entry
			e.Walk(func(m *ifacecache.Entry) bool { return slices.Contains(held, m) },
				func(m *ifacecache.Entry) bool { got = append(got, m); return true })
			want = slices.DeleteFunc(slices.Clone(want), func(m *ifacecache.Entry) bool { return slices.Contains(held, m) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: closure of %s less %v is %v, want %v", seed, e.Name(), names(held), names(got), names(want))
			}
		}
	}
}

// TestWalkStops: a visit that returns false ends the walk there.
func TestWalkStops(t *testing.T) {
	ents, _ := randomDAG(t, rand.New(rand.NewSource(1)), 20)
	top := ents[len(ents)-1]
	n := 0
	if top.Walk(func(*ifacecache.Entry) bool { return false },
		func(*ifacecache.Entry) bool { n++; return n < 3 }) || n != 3 {
		t.Fatalf("walk stopped after %d visits, want 3 and a false result", n)
	}
}

// TestWalkAllocatesNothing: a warm walk over a two-parent DAG of 200
// entries (each imports the two before it) visits each once and
// allocates nothing.
func TestWalkAllocatesNothing(t *testing.T) {
	const n = 200
	files := make(map[string]string, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("D%d", i)] = fmt.Sprintf("DEFINITION MODULE D%d;\nEND D%d.\n", i, i)
	}
	loader := loaderWith(files)
	c := ifacecache.New()
	ents := make([]*ifacecache.Entry, n)
	for i := range ents {
		name := fmt.Sprintf("D%d", i)
		ents[i], _, _ = acquire(c, name, loader, false)
		var deps []*ifacecache.Entry
		for j := max(i-2, 0); j < i; j++ {
			deps = append(deps, ents[j])
		}
		ents[i].Publish(newScope(name), name+".def", 0, nil, deps, nil)
	}
	top, members := ents[n-1], 0
	skip := func(*ifacecache.Entry) bool { return false }
	visit := func(*ifacecache.Entry) bool { members++; return true }
	top.Walk(skip, visit)
	if members != n {
		t.Fatalf("walk visited %d members, want %d", members, n)
	}
	if a := testing.AllocsPerRun(20, func() { top.Walk(skip, visit) }); a != 0 {
		t.Fatalf("a warm walk allocates %v times", a)
	}
}

func names(es []*ifacecache.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name()
	}
	return out
}
