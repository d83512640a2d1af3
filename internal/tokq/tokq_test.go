package tokq_test

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"m2cc/internal/event"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
)

// waitFunc adapts a function to tokq.Waiter.
type waitFunc func(*event.Event)

func (f waitFunc) BarrierWait(e *event.Event) { f(e) }

// fill appends n identifier tokens plus an EOF, then closes.
func fill(q *tokq.Queue, n int) {
	for i := 0; i < n; i++ {
		q.Append(token.Token{Kind: token.Ident, Text: "x"})
	}
	q.Append(token.Token{Kind: token.EOF})
	q.Close()
}

func TestReadBackAcrossBlocks(t *testing.T) {
	q := tokq.New(4) // tiny blocks force boundary crossings
	go fill(q, 10)
	r := q.NewReader(nil)
	for i := 0; i < 10; i++ {
		if got := r.Next(); got.Kind != token.Ident {
			t.Fatalf("token %d: %v", i, got)
		}
	}
	if got := r.Next(); got.Kind != token.EOF {
		t.Fatalf("want EOF, got %v", got)
	}
	// EOF repeats forever.
	if got := r.Next(); got.Kind != token.EOF {
		t.Fatalf("EOF must repeat, got %v", got)
	}
}

func TestMultipleIndependentReaders(t *testing.T) {
	q := tokq.New(3)
	go fill(q, 7)
	a, b := q.NewReader(nil), q.NewReader(nil)
	for i := 0; i < 3; i++ {
		a.Next()
	}
	// b starts from the beginning regardless of a's position.
	count := 0
	for b.Next().Kind != token.EOF {
		count++
	}
	if count != 7 {
		t.Fatalf("reader b saw %d tokens, want 7", count)
	}
}

func TestPeekNDoesNotConsume(t *testing.T) {
	q := tokq.New(2)
	q.Append(token.Token{Kind: token.PROCEDURE})
	q.Append(token.Token{Kind: token.Ident, Text: "f"})
	q.Append(token.Token{Kind: token.Semicolon})
	q.Append(token.Token{Kind: token.EOF})
	q.Close()
	r := q.NewReader(nil)
	if r.PeekN(2).Text != "f" {
		t.Fatal("PeekN(2) wrong")
	}
	if r.Peek().Kind != token.PROCEDURE {
		t.Fatal("Peek must not consume")
	}
	if r.Next().Kind != token.PROCEDURE || r.Next().Text != "f" {
		t.Fatal("Next order broken after peeks")
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	q := tokq.New(8)
	const n = 10000
	go fill(q, n)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := q.NewReader(nil)
			count := 0
			for r.Next().Kind != token.EOF {
				count++
			}
			if count != n {
				t.Errorf("saw %d tokens, want %d", count, n)
			}
		}()
	}
	wg.Wait()
}

func TestFlushMakesPartialBlockReadable(t *testing.T) {
	q := tokq.New(256)
	q.Append(token.Token{Kind: token.Ident, Text: "a"})
	q.Append(token.Token{Kind: token.Ident, Text: "b"})
	q.Flush()
	r := q.NewReader(nil)
	// Without the flush these reads would block (block size 256).
	if r.Next().Text != "a" || r.Next().Text != "b" {
		t.Fatal("flushed tokens must be readable immediately")
	}
	// The queue still accepts appends after a flush.
	q.Append(token.Token{Kind: token.EOF})
	q.Close()
	if r.Next().Kind != token.EOF {
		t.Fatal("append after flush lost")
	}
}

func TestLenCountsAllTokens(t *testing.T) {
	q := tokq.New(4)
	fill(q, 9)
	if got := q.Len(); got != 10 { // 9 idents + EOF
		t.Fatalf("Len = %d, want 10", got)
	}
	if !q.Closed() {
		t.Fatal("queue must report closed")
	}
}

func TestCloseWithoutTokens(t *testing.T) {
	q := tokq.New(4)
	q.Close()
	r := q.NewReader(nil)
	if got := r.Next(); got.Kind != token.EOF {
		t.Fatalf("empty closed queue must yield EOF, got %v", got)
	}
}

// TestWaitHookSeesEveryBlock checks the schedule-independence property
// the trace recorder relies on: the reader invokes its wait function
// once per block acquisition, whether or not the block event had
// already fired.
func TestWaitHookSeesEveryBlock(t *testing.T) {
	q := tokq.New(2)
	fill(q, 5) // 6 tokens in blocks of 2 → 3 blocks
	waits := 0
	r := q.NewReader(waitFunc(func(e *event.Event) {
		waits++
		e.Wait()
	}))
	for r.Next().Kind != token.EOF {
	}
	if waits != 3 {
		t.Fatalf("wait hook invoked %d times, want once per block (3)", waits)
	}
}

// TestGrowthEventOnlyWhenAwaited: a producer that fills blocks no
// reader is waiting for fires one event per block, its Ready, and no
// growth event; a reader that catches up and waits for the next block
// still wakes when it is added, through the one growth event it made.
func TestGrowthEventOnlyWhenAwaited(t *testing.T) {
	const blocks, size = 64, 4
	q := tokq.New(size)
	var fires atomic.Int32
	q.SetFireHook(func(e *event.Event) { fires.Add(1); e.Fire() })
	for i := 0; i < blocks*size; i++ {
		q.Append(token.Token{Kind: token.Ident, Text: "x"})
	}
	if got := fires.Load(); got != blocks {
		t.Fatalf("%d full blocks fired %d events, want their %d Ready events and no growth event", blocks, got, blocks)
	}

	waiting := make(chan struct{})
	var once sync.Once
	r := q.NewReader(waitFunc(func(e *event.Event) {
		if !e.Fired() { // the first is the wait for a block not yet added
			once.Do(func() { close(waiting) })
		}
		e.Wait()
	}))
	for i := 0; i < blocks*size; i++ {
		r.Next()
	}
	next := make(chan token.Token)
	go func() { next <- r.Next() }()
	<-waiting
	q.Append(token.Token{Kind: token.Ident, Text: "late"})
	q.Append(token.Token{Kind: token.EOF})
	q.Close()
	if tok := <-next; tok.Text != "late" {
		t.Fatalf("the waiting reader got %v %q, want the late token", tok.Kind, tok.Text)
	}
	if got := fires.Load() - blocks; got != 2 {
		t.Fatalf("the late block fired %d events, want its growth event and its Ready", got)
	}
}

func TestAppendAfterCloseIsSafeNoOp(t *testing.T) {
	q := tokq.New(4)
	if !q.Append(token.Token{Kind: token.Ident, Text: "a"}) {
		t.Fatal("Append before Close must be accepted")
	}
	q.Append(token.Token{Kind: token.EOF})
	q.Close()
	if q.Append(token.Token{Kind: token.Ident, Text: "late"}) {
		t.Fatal("Append after Close must report rejection")
	}
	if got := q.Len(); got != 2 {
		t.Fatalf("post-Close Append changed the queue: len %d, want 2", got)
	}
	// A recovered producer's cleanup path may Close again and keep
	// appending; everything must stay a quiet no-op.
	q.Close()
	if q.Append(token.Token{Kind: token.EOF}) {
		t.Fatal("second post-Close Append accepted")
	}
	r := q.NewReader(nil)
	if r.Next().Kind != token.Ident || r.Next().Kind != token.EOF {
		t.Fatal("queue contents corrupted by post-Close Appends")
	}
}

// TestDetachDuringClose: a reader that unwinds early (its compilation
// was canceled) may detach while the producer is still inside Close.
// The open block Close is sealing must not be recycled under it; the
// race detector catches the overlap within a few hundred rounds.
func TestDetachDuringClose(t *testing.T) {
	for round := 0; round < 500; round++ {
		q := tokq.New(4)
		q.Retain(1)
		q.Append(token.Token{Kind: token.Ident, Text: "x"})
		r := q.NewReader(nil)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); r.Detach() }()
		q.Close()
		wg.Wait()
	}
}

func TestRetainDetachRecycles(t *testing.T) {
	// Compile-shaped lifecycle: declare readers, produce, close, read,
	// detach.  The blocks go back to the pool; a second queue built
	// right after must still deliver its own tokens intact.
	for round := 0; round < 3; round++ {
		q := tokq.New(4)
		q.Retain(2)
		go fill(q, 9)
		a, b := q.NewReader(nil), q.NewReader(nil)
		na, nb := 0, 0
		for a.Next().Kind != token.EOF {
			na++
		}
		a.Detach()
		a.Detach() // idempotent
		for b.Next().Kind != token.EOF {
			nb++
		}
		b.Detach()
		if na != 9 || nb != 9 {
			t.Fatalf("round %d: saw %d/%d tokens, want 9/9", round, na, nb)
		}
	}
}

// BenchmarkAppendRead measures the producer→consumer hot path: one
// queue per iteration, filled and drained, with the Retain/Detach
// lifecycle armed so block storage recycles through the free list.  The
// -benchmem allocs/op figure is the witness for the recycling claim
// (each iteration would otherwise allocate every block's token array
// afresh); the collector runs every 16 iterations, as it does about
// twice per suite pass, so the figure counts storage a collection
// would take back.
func BenchmarkAppendRead(b *testing.B) {
	const tokens = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
		}
		q := tokq.New(0)
		q.Retain(1)
		for j := 0; j < tokens; j++ {
			q.Append(token.Token{Kind: token.Ident, Text: "x"})
		}
		q.Append(token.Token{Kind: token.EOF})
		q.Close()
		r := q.NewReader(nil)
		for r.Next().Kind != token.EOF {
		}
		r.Detach()
	}
	b.ReportMetric(tokens*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtok/s")
}

// BenchmarkAppendReadNoPool is the same workload without Retain/Detach:
// recycling never arms, so every block's token storage is allocated
// fresh.  The gap to BenchmarkAppendRead is the free list's contribution.
func BenchmarkAppendReadNoPool(b *testing.B) {
	const tokens = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := tokq.New(0)
		for j := 0; j < tokens; j++ {
			q.Append(token.Token{Kind: token.Ident, Text: "x"})
		}
		q.Append(token.Token{Kind: token.EOF})
		q.Close()
		r := q.NewReader(nil)
		for r.Next().Kind != token.EOF {
		}
	}
}

// TestSlotsPublish drives the block-at-a-time producer API: written
// slots are invisible until published, a full block seals itself, and a
// half-filled one is sealed by Close.
func TestSlotsPublish(t *testing.T) {
	q := tokq.New(4)
	s := q.Slots()
	if len(s) != 4 {
		t.Fatalf("a fresh block offers %d slots, want 4", len(s))
	}
	for i := range s {
		s[i] = token.Token{Kind: token.Ident, Text: strconv.Itoa(i)}
	}
	q.Publish(3)
	if q.Len() != 3 {
		t.Fatalf("Len = %d after publishing 3 of 4 written slots", q.Len())
	}
	if s = q.Slots(); len(s) != 1 {
		t.Fatalf("the open block offers %d slots, want the 1 left", len(s))
	}
	s[0] = token.Token{Kind: token.Ident, Text: "3"}
	q.Publish(1) // fills and seals the block
	s = q.Slots()
	if len(s) != 4 {
		t.Fatalf("after a sealed block Slots offers %d, want a new block's 4", len(s))
	}
	s[0] = token.Token{Kind: token.EOF}
	s[1] = token.Token{Kind: token.Ident, Text: "never published"}
	q.Publish(1)
	q.Close()
	if q.Slots() != nil {
		t.Fatal("Slots after Close must be nil")
	}
	q.Publish(1) // a straggler's Publish after Close is dropped

	r := q.NewReader(nil)
	for i := 0; i < 4; i++ {
		if tok := r.Next(); tok.Text != strconv.Itoa(i) {
			t.Fatalf("token %d = %v %q", i, tok.Kind, tok.Text)
		}
	}
	if tok := r.Next(); tok.Kind != token.EOF {
		t.Fatalf("want EOF from the half-filled block Close sealed, got %v %q", tok.Kind, tok.Text)
	}
}

// TestRunSkip reads a queue through Run/Skip mixed with Next and Peek,
// across block boundaries and pending lookahead, and checks that nothing
// after an EOF token is ever delivered by any of them.
func TestRunSkip(t *testing.T) {
	q := tokq.New(3) // blocks: [0 1 2] [3 4 5] [6 EOF and one token past it]
	for i := 0; i < 7; i++ {
		q.Append(token.Token{Kind: token.Ident, Text: strconv.Itoa(i)})
	}
	q.Append(token.Token{Kind: token.EOF})
	q.Append(token.Token{Kind: token.Ident, Text: "past EOF"})
	q.Close()

	r := q.NewReader(nil)
	texts := func(run []token.Token) (s string) {
		for _, tok := range run {
			s += tok.Text + ","
		}
		return s
	}
	if got := texts(r.Run()); got != "0,1,2," {
		t.Fatalf("first run = %s", got)
	}
	r.Skip(2)
	if got := r.PeekN(3).Text; got != "4" { // lookahead into the next block
		t.Fatalf("PeekN(3) = %s", got)
	}
	if got := texts(r.Run()); got != "2,3,4," {
		t.Fatalf("run with pending lookahead = %s", got)
	}
	r.Skip(1)
	if got := r.Next().Text; got != "3" {
		t.Fatalf("Next after Skip = %s", got)
	}
	r.Skip(0)
	if got := texts(r.Run()); got != "4," {
		t.Fatalf("run of the remaining lookahead = %s", got)
	}
	r.Skip(1)
	if got := texts(r.Run()); got != "5," {
		t.Fatalf("run of the block's rest = %s", got)
	}
	r.Skip(1)
	run := r.Run()
	if len(run) != 3 || run[0].Text != "6" || run[1].Kind != token.EOF {
		t.Fatalf("last block's run = %v", run)
	}
	r.Skip(2) // through the EOF, and no further
	for i := 0; i < 3; i++ {
		if run := r.Run(); len(run) != 1 || run[0].Kind != token.EOF {
			t.Fatalf("Run after EOF = %v", run)
		}
		r.Skip(1)
		if tok := r.Next(); tok.Kind != token.EOF {
			t.Fatalf("Next after EOF = %v %q", tok.Kind, tok.Text)
		}
		if tok := r.Peek(); tok.Kind != token.EOF {
			t.Fatalf("Peek after EOF = %v %q", tok.Kind, tok.Text)
		}
	}

	// The same through Next alone: EOF, then EOF forever.
	r = q.NewReader(nil)
	for i := 0; i < 7; i++ {
		r.Next()
	}
	for i := 0; i < 3; i++ {
		if tok := r.Next(); tok.Kind != token.EOF {
			t.Fatalf("Next %d past the end = %v %q", i, tok.Kind, tok.Text)
		}
	}
}
