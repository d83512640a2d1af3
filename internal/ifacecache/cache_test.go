package ifacecache_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m2cc/internal/check"
	"m2cc/internal/event"
	"m2cc/internal/ifacecache"
	"m2cc/internal/impscan"
	"m2cc/internal/source"
	"m2cc/internal/symtab"
)

const (
	defA  = "DEFINITION MODULE A;\nCONST one = 1;\nEND A.\n"
	defA2 = "DEFINITION MODULE A;\nCONST one = 1;\nCONST extra = 2;\nEND A.\n"
	defB  = "DEFINITION MODULE B;\nFROM A IMPORT one;\nCONST two = one + 1;\nEND B.\n"
)

func loaderWith(files map[string]string) *source.MapLoader {
	l := source.NewMapLoader()
	for name, text := range files {
		l.Add(name, source.Def, text)
	}
	return l
}

// acquire runs c.Acquire over a fresh snapshot of loader on which the
// area prescan has recorded name's import closure, as on each
// compilation's.
func acquire(c *ifacecache.Cache, name string, loader source.Loader, lint bool) (*ifacecache.Entry, *event.Event, ifacecache.State) {
	snap, names := source.NewSnapshot(loader), []string{name}
	for i := 0; i < len(names); i++ {
		names, _ = impscan.Prescan(snap, names[i], source.Def, names)
	}
	return c.Acquire(name, snap, lint)
}

func newScope(name string) *symtab.Scope {
	tab := symtab.NewTable(symtab.Skeptical, nil, nil)
	return tab.NewScope(symtab.DefScope, name, nil, 0)
}

// TestModeKeyedEntries: a lint compilation and a plain one never share
// an entry for the same text, and a lint entry hands back the fact
// table its leader published with it.
func TestModeKeyedEntries(t *testing.T) {
	loader := loaderWith(map[string]string{"A": defA})
	c := ifacecache.New()
	plain, _, st := acquire(c, "A", loader, false)
	if st != ifacecache.Lead {
		t.Fatalf("plain acquire: %v, want Lead", st)
	}
	plain.Publish(newScope("A"), "A.def", 0, nil, nil, nil)

	lint, _, st := acquire(c, "A", loader, true)
	if st != ifacecache.Lead || lint == plain {
		t.Fatalf("lint acquire after a plain publish: %v, want Lead on a new entry", st)
	}
	facts := &check.Facts{Kind: check.DefUnit, Path: "A.def"}
	lint.Publish(newScope("A"), "A.def", 0, nil, nil, facts)

	for _, mode := range []struct {
		lint  bool
		ent   *ifacecache.Entry
		facts *check.Facts
	}{{false, plain, nil}, {true, lint, facts}} {
		ent, _, st := acquire(c, "A", loader, mode.lint)
		if st != ifacecache.Hit || ent != mode.ent || ent.Facts() != mode.facts {
			t.Fatalf("lint=%v: got (%p, %v, facts %p), want a hit on %p with facts %p",
				mode.lint, ent, st, ent.Facts(), mode.ent, mode.facts)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("%d entries, want one per mode", c.Len())
	}
}

func TestLeadPublishHit(t *testing.T) {
	loader := loaderWith(map[string]string{"A": defA})
	c := ifacecache.New()

	ent, ev, st := acquire(c, "A", loader, false)
	if st != ifacecache.Lead || ent == nil || ev != nil {
		t.Fatalf("first acquire: got (%v, %v, %v), want Lead", ent, ev, st)
	}
	if ent.Ready() {
		t.Fatal("entry ready before publish")
	}
	sc := newScope("A")
	ent.Publish(sc, "A.def", 3, nil, nil, nil)
	if !ent.Ready() {
		t.Fatal("entry with no deps must be ready after publish")
	}

	ent2, _, st2 := acquire(c, "A", loader, false)
	if st2 != ifacecache.Hit || ent2 != ent {
		t.Fatalf("second acquire: got (%p, %v), want hit on %p", ent2, st2, ent)
	}
	if ent2.Scope() != sc || ent2.AreaName() != "A.def" || ent2.AreaSlots() != 3 {
		t.Fatalf("payload mismatch: scope=%p area=%q slots=%d",
			ent2.Scope(), ent2.AreaName(), ent2.AreaSlots())
	}
	if cl := closure(ent2); len(cl) != 1 || cl[0] != ent2 {
		t.Fatalf("closure of dep-free entry: %v", cl)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Waits != 0 || s.Bypasses != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSingleFlight is the core dedup property: many goroutines racing
// to acquire the same uncached interface produce exactly one leader;
// everyone else waits and ends up with the leader's scope.  Run under
// -race.
func TestSingleFlight(t *testing.T) {
	loader := loaderWith(map[string]string{"A": defA})
	c := ifacecache.New()
	sc := newScope("A")

	const goroutines = 32
	var leads atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ent, ev, st := acquire(c, "A", loader, false)
				switch st {
				case ifacecache.Lead:
					leads.Add(1)
					// Hold leadership long enough for others to pile up.
					time.Sleep(2 * time.Millisecond)
					ent.Publish(sc, "A.def", 0, nil, nil, nil)
					return
				case ifacecache.Wait:
					ev.Wait()
				case ifacecache.Hit:
					if ent.Scope() != sc {
						t.Error("hit returned a different scope")
					}
					return
				default:
					t.Errorf("unexpected state %v", st)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := leads.Load(); n != 1 {
		t.Fatalf("%d leaders, want exactly 1", n)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits+s.Waits < goroutines-1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFailedLeaderRetried pins the one-shot contract: a failed entry
// wakes its waiters and stays failed, and the next Acquire leads a
// fresh entry in its place.
func TestFailedLeaderRetried(t *testing.T) {
	loader := loaderWith(map[string]string{"A": defA})
	c := ifacecache.New()

	ent, _, st := acquire(c, "A", loader, false)
	if st != ifacecache.Lead {
		t.Fatalf("state %v, want Lead", st)
	}

	// A waiter parks behind the leader...
	_, ev, st2 := acquire(c, "A", loader, false)
	if st2 != ifacecache.Wait {
		t.Fatalf("state %v, want Wait", st2)
	}
	woke := make(chan struct{})
	go func() { ev.Wait(); close(woke) }()

	// ...the leader fails; the waiter wakes and leads a fresh entry.
	ent.Fail()
	<-woke
	ent3, _, st3 := acquire(c, "A", loader, false)
	if st3 != ifacecache.Lead || ent3 == ent {
		t.Fatalf("after fail: got (%p, %v), want a lead on a fresh entry, not %p", ent3, st3, ent)
	}
	sc := newScope("A")
	ent3.Publish(sc, "A.def", 0, nil, nil, nil)
	ent.Publish(newScope("A"), "A.def", 0, nil, nil, nil) // too late: a no-op
	if ent.Ready() || ent.Scope() != nil {
		t.Fatal("a failed entry was published")
	}
	if got, _, st4 := acquire(c, "A", loader, false); st4 != ifacecache.Hit || got != ent3 || got.Scope() != sc {
		t.Fatalf("state %v on %p, want a hit on the fresh entry %p", st4, got, ent3)
	}
	ent3.Fail() // too late: a no-op
	if !ent3.Ready() {
		t.Fatal("Fail after Publish unpublished the entry")
	}
}

func TestContentChangeInvalidates(t *testing.T) {
	loader := loaderWith(map[string]string{"A": defA})
	c := ifacecache.New()

	ent, _, _ := acquire(c, "A", loader, false)
	scOld := newScope("A")
	ent.Publish(scOld, "A.def", 0, nil, nil, nil)

	// Editing A.def must miss; the old entry stays for the old text.
	loader.Add("A", source.Def, defA2)
	ent2, _, st := acquire(c, "A", loader, false)
	if st != ifacecache.Lead || ent2 == ent {
		t.Fatalf("after edit: state %v (same entry: %v), want fresh Lead", st, ent2 == ent)
	}
	scNew := newScope("A")
	ent2.Publish(scNew, "A.def", 0, nil, nil, nil)
	if c.Len() != 2 {
		t.Fatalf("cache has %d entries, want 2", c.Len())
	}

	// Reverting the text hits the original entry again.
	loader.Add("A", source.Def, defA)
	ent3, _, st3 := acquire(c, "A", loader, false)
	if st3 != ifacecache.Hit || ent3 != ent || ent3.Scope() != scOld {
		t.Fatalf("after revert: got (%p, %v), want hit on original", ent3, st3)
	}
}

// TestImportChangeInvalidatesDependents: the key is the hash of the
// whole transitive closure, so editing A.def invalidates B (which
// imports A) even though B's own text is unchanged.
func TestImportChangeInvalidatesDependents(t *testing.T) {
	loader := loaderWith(map[string]string{"A": defA, "B": defB})
	c := ifacecache.New()

	entA, _, _ := acquire(c, "A", loader, false)
	scA := newScope("A")
	entA.Publish(scA, "A.def", 0, nil, nil, nil)

	entB, _, _ := acquire(c, "B", loader, false)
	scB := newScope("B")
	entB.Publish(scB, "B.def", 0, []string{"A"},
		[]*ifacecache.Entry{entA}, nil)
	if !entB.Ready() {
		t.Fatal("B must seal once its dep is ready")
	}
	if cl := closure(entB); len(cl) != 2 || cl[0] != entA || cl[1] != entB {
		t.Fatalf("closure must list deps first: %v", cl)
	}

	loader.Add("A", source.Def, defA2)
	if _, _, st := acquire(c, "B", loader, false); st != ifacecache.Lead {
		t.Fatalf("B after A edit: state %v, want Lead (new closure hash)", st)
	}
	if _, _, st := acquire(c, "A", loader, false); st != ifacecache.Lead {
		t.Fatalf("A after A edit: state %v, want Lead", st)
	}
}

// TestSealingAwaitsDeps: an entry published before its dependency is
// ready stays un-installable (waiters park) until the dep seals.
func TestSealingAwaitsDeps(t *testing.T) {
	loader := loaderWith(map[string]string{"A": defA, "B": defB})
	c := ifacecache.New()

	entA, _, _ := acquire(c, "A", loader, false)
	entB, _, _ := acquire(c, "B", loader, false)
	scA, scB := newScope("A"), newScope("B")

	entB.Publish(scB, "B.def", 0, []string{"A"},
		[]*ifacecache.Entry{entA}, nil)
	if entB.Ready() {
		t.Fatal("B sealed before its dep A was ready")
	}
	if _, _, st := acquire(c, "B", loader, false); st != ifacecache.Wait {
		t.Fatalf("B while sealing: state %v, want Wait", st)
	}

	entA.Publish(scA, "A.def", 0, nil, nil, nil)
	if !entB.Ready() {
		t.Fatal("B must seal once A publishes")
	}
	if _, _, st := acquire(c, "B", loader, false); st != ifacecache.Hit {
		t.Fatalf("B after seal: state %v, want Hit", st)
	}
}

// TestDepScopeMismatchFails: a publication's symbols reference the
// scopes of its deps' entries, so it may become ready only with those
// entries.  A dep that fails — before the publication or after it —
// fails the publication too, and the next Acquire leads afresh.
func TestDepScopeMismatchFails(t *testing.T) {
	for _, early := range []bool{true, false} {
		loader := loaderWith(map[string]string{"A": defA, "B": defB})
		c := ifacecache.New()

		entA, _, _ := acquire(c, "A", loader, false)
		entB, _, _ := acquire(c, "B", loader, false)
		if early {
			entA.Fail()
		}
		entB.Publish(newScope("B"), "B.def", 0, []string{"A"}, []*ifacecache.Entry{entA}, nil)
		if !early {
			entA.Fail()
		}
		if entB.Ready() {
			t.Fatalf("early=%v: B became ready against a failed dep", early)
		}
		if ent, _, st := acquire(c, "B", loader, false); st != ifacecache.Lead || ent == entB {
			t.Fatalf("early=%v: B after its dep failed: state %v, want Lead on a fresh entry", early, st)
		}
	}
}

func TestCycleBypasses(t *testing.T) {
	loader := loaderWith(map[string]string{
		"A": "DEFINITION MODULE A;\nFROM B IMPORT x;\nCONST y = x;\nEND A.\n",
		"B": "DEFINITION MODULE B;\nFROM A IMPORT y;\nCONST x = y;\nEND B.\n",
	})
	c := ifacecache.New()
	for _, name := range []string{"A", "B"} {
		if ent, ev, st := acquire(c, name, loader, false); st != ifacecache.Bypass || ent != nil || ev != nil {
			t.Fatalf("%s: got (%v, %v, %v), want Bypass", name, ent, ev, st)
		}
	}
	if s := c.Stats(); s.Bypasses != 2 || c.Len() != 0 {
		t.Fatalf("stats = %+v, len = %d", s, c.Len())
	}
}

func TestMissingSourceBypasses(t *testing.T) {
	c := ifacecache.New()
	if _, _, st := acquire(c, "Nope", source.NewMapLoader(), false); st != ifacecache.Bypass {
		t.Fatalf("state %v, want Bypass for missing .def", st)
	}
	// B is loadable but imports a missing module: the whole closure is
	// uncacheable.
	loader := loaderWith(map[string]string{"B": defB})
	if _, _, st := acquire(c, "B", loader, false); st != ifacecache.Bypass {
		t.Fatalf("state %v, want Bypass for missing transitive import", st)
	}
}

// closure lists e's closure in Walk order.
func closure(e *ifacecache.Entry) []*ifacecache.Entry {
	var out []*ifacecache.Entry
	e.Walk(func(*ifacecache.Entry) bool { return false },
		func(m *ifacecache.Entry) bool { out = append(out, m); return true })
	return out
}
