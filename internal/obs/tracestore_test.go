package obs

import (
	"fmt"
	"testing"
)

func TestTraceModeParse(t *testing.T) {
	for s, want := range map[string]TraceMode{"off": TraceOff, "sampled": TraceSampled, "all": TraceAll} {
		got, err := ParseTraceMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseTraceMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("TraceMode(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseTraceMode("always"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestSampledDeterministic pins the sampling contract: with 1-in-N,
// admissions 1, N+1, 2N+1, … are traced — a function of the admission
// sequence alone.
func TestSampledDeterministic(t *testing.T) {
	s := NewTraceStore(TraceSampled, 3, 100)
	var traced []uint64
	for i := 0; i < 10; i++ {
		id, e := s.Admit("")
		if id == "" {
			t.Fatal("empty trace ID")
		}
		if e != nil {
			traced = append(traced, e.Seq)
			s.Finish(e, "c", "/compile", "concurrent", 200, 1)
		}
	}
	want := []uint64{1, 4, 7, 10}
	if fmt.Sprint(traced) != fmt.Sprint(want) {
		t.Fatalf("sampled admissions %v, want %v", traced, want)
	}
	if s.Admitted() != 10 {
		t.Fatalf("admitted = %d, want 10", s.Admitted())
	}
}

func TestTraceOffStoresNothing(t *testing.T) {
	s := NewTraceStore(TraceOff, 1, 10)
	id, e := s.Admit("")
	if e != nil {
		t.Fatal("off mode produced an entry")
	}
	if id == "" {
		t.Fatal("off mode must still hand out IDs for logging")
	}
	if s.Held() != 0 {
		t.Fatal("off mode held a trace")
	}
}

func TestClientSuppliedIDs(t *testing.T) {
	s := NewTraceStore(TraceAll, 1, 10)
	id, e := s.Admit("my-trace_1.a")
	if id != "my-trace_1.a" || e == nil || e.ID != id {
		t.Fatalf("clean client ID not honored: %q %v", id, e)
	}
	// Hostile or oversized IDs are replaced, not echoed.
	for _, bad := range []string{"a b", "x\n", "emoji☃", string(make([]byte, 80))} {
		id, _ := s.Admit(bad)
		if id == bad || id == "" {
			t.Fatalf("unsafe ID %q not replaced (got %q)", bad, id)
		}
	}
	// A reused ID supersedes the earlier trace.
	_, e2 := s.Admit("my-trace_1.a")
	s.Finish(e2, "c", "/compile", "concurrent", 200, 1)
	if got := s.Get("my-trace_1.a"); got != e2 {
		t.Fatal("reused ID does not resolve to the newest trace")
	}
}

func TestLRUEvictionSkipsInflight(t *testing.T) {
	s := NewTraceStore(TraceAll, 1, 2)
	// Three in-flight entries: the cap is 2, but nothing may be evicted
	// while pinned.
	var entries []*TraceEntry
	for i := 0; i < 3; i++ {
		_, e := s.Admit(fmt.Sprintf("req%d", i))
		if e == nil {
			t.Fatal("trace-all produced no entry")
		}
		entries = append(entries, e)
	}
	if s.Held() != 3 {
		t.Fatalf("held = %d; an in-flight trace was evicted", s.Held())
	}
	for i, e := range entries {
		if got := s.Get(e.ID); got != e {
			t.Fatalf("in-flight trace %d lost", i)
		}
	}
	// Finishing lets the cap re-assert: oldest finished entries go.
	for _, e := range entries {
		s.Finish(e, "c", "/compile", "concurrent", 200, 1.5)
	}
	if s.Held() != 2 {
		t.Fatalf("held = %d after finish, want 2", s.Held())
	}
	if s.Get("req0") != nil {
		t.Fatal("oldest finished trace survived past the cap")
	}
	if s.Get("req2") == nil || s.Get("req1") == nil {
		t.Fatal("recent traces evicted")
	}
}

func TestLRUGetRefreshes(t *testing.T) {
	s := NewTraceStore(TraceAll, 1, 2)
	_, a := s.Admit("a")
	s.Finish(a, "", "/compile", "concurrent", 200, 1)
	_, b := s.Admit("b")
	s.Finish(b, "", "/compile", "concurrent", 200, 1)
	s.Get("a") // refresh a: now b is the LRU victim
	_, c := s.Admit("c")
	s.Finish(c, "", "/compile", "concurrent", 200, 1)
	if s.Get("a") == nil {
		t.Fatal("refreshed trace evicted")
	}
	if s.Get("b") != nil {
		t.Fatal("least-recently-used trace survived")
	}
}

func TestSummariesOrderAndMetadata(t *testing.T) {
	s := NewTraceStore(TraceAll, 1, 10)
	_, a := s.Admit("a")
	s.Finish(a, "alice", "/compile", "concurrent", 200, 12.5)
	_, b := s.Admit("b")
	sums := s.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	if sums[0].ID != "b" || sums[0].Done {
		t.Fatalf("most recent first: %+v", sums[0])
	}
	if sums[1].ID != "a" || !sums[1].Done || sums[1].Client != "alice" ||
		sums[1].Status != 200 || sums[1].DurMS != 12.5 {
		t.Fatalf("metadata lost: %+v", sums[1])
	}
	s.Finish(b, "bob", "/lint", "sequential", 503, 1)
}

func TestTraceStoreNil(t *testing.T) {
	var s *TraceStore
	if id, e := s.Admit("x"); id != "" || e != nil {
		t.Fatal("nil store admitted")
	}
	s.Finish(nil, "", "", "", 0, 0)
	if s.Get("x") != nil || s.Held() != 0 || s.Admitted() != 0 || s.Summaries() != nil {
		t.Fatal("nil store not inert")
	}
	if s.Mode() != TraceOff {
		t.Fatal("nil store mode")
	}
}
