package ifacecache_test

import (
	"testing"

	"m2cc/internal/ifacecache"
)

func TestLRUEviction(t *testing.T) {
	loader := loaderWith(map[string]string{
		"A": "DEFINITION MODULE A;\nCONST a = 1;\nEND A.\n",
		"B": "DEFINITION MODULE B;\nCONST b = 1;\nEND B.\n",
		"C": "DEFINITION MODULE C;\nCONST c = 1;\nEND C.\n",
	})
	c := ifacecache.New()
	c.SetLimit(2)

	for _, name := range []string{"A", "B"} {
		ent, _, st := acquire(c, name, loader, false)
		if st != ifacecache.Lead {
			t.Fatalf("acquire %s: %v, want Lead", name, st)
		}
		ent.Publish(newScope(name), name+".def", 0, nil, nil, nil)
	}
	// Touch A so B is the LRU entry.
	if _, _, st := acquire(c, "A", loader, false); st != ifacecache.Hit {
		t.Fatalf("warm acquire A: %v, want Hit", st)
	}

	// Inserting C must evict B (the least recently used ready entry).
	entC, _, st := acquire(c, "C", loader, false)
	if st != ifacecache.Lead {
		t.Fatalf("acquire C: %v, want Lead", st)
	}
	entC.Publish(newScope("C"), "C.def", 0, nil, nil, nil)

	if n := c.Len(); n != 2 {
		t.Fatalf("len after eviction: %d, want 2", n)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions: %d, want 1", ev)
	}
	if _, _, st := acquire(c, "A", loader, false); st != ifacecache.Hit {
		t.Fatalf("A after eviction: %v, want Hit (A was MRU)", st)
	}
	if _, _, st := acquire(c, "B", loader, false); st != ifacecache.Lead {
		t.Fatalf("B after eviction: %v, want Lead (B was evicted)", st)
	}
}

func TestLRUNeverEvictsLiveLeader(t *testing.T) {
	loader := loaderWith(map[string]string{
		"A": "DEFINITION MODULE A;\nCONST a = 1;\nEND A.\n",
		"B": "DEFINITION MODULE B;\nCONST b = 1;\nEND B.\n",
	})
	c := ifacecache.New()
	c.SetLimit(1)

	// A is still leading (unpublished) — it has, conceptually, live
	// waiters and must survive the cap.
	entA, _, st := acquire(c, "A", loader, false)
	if st != ifacecache.Lead {
		t.Fatalf("acquire A: %v, want Lead", st)
	}
	entB, _, st := acquire(c, "B", loader, false)
	if st != ifacecache.Lead {
		t.Fatalf("acquire B: %v, want Lead", st)
	}
	// Over cap, but nothing evictable: both entries leading.
	if n := c.Len(); n != 2 {
		t.Fatalf("len with two leaders: %d, want 2 (no eviction of leaders)", n)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("evictions with live leaders: %d, want 0", ev)
	}

	// Once published, the next insert pressure can evict.
	entA.Publish(newScope("A"), "A.def", 0, nil, nil, nil)
	entB.Publish(newScope("B"), "B.def", 0, nil, nil, nil)
	c.SetLimit(1)
	if n := c.Len(); n != 1 {
		t.Fatalf("len after publish + re-cap: %d, want 1", n)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions after publish + re-cap: %d, want 1", ev)
	}
}
