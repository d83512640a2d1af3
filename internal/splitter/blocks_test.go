package splitter_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/splitter"
	"m2cc/internal/streamcache"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
	"m2cc/internal/workload"
)

// splitOutcome is everything a split hands to the rest of the compiler:
// the streams in discovery order with their parents and names, each
// stream's queue contents, what the Sink was shown (headings, and the
// token runs stitched back together), and the stream-cache keys a Keyer
// derives from the same Sink calls.
type splitOutcome struct {
	Order    []int32
	Parents  map[int32]int32
	Names    map[int32]string
	Queues   map[int32][]token.Token // drained through Reader.Next, EOF included
	Headings map[int32][]token.Token
	Mirrored map[int32][]token.Token
	Ended    []int32
	Done     bool
	Keys     []string
	Units    float64
}

// recordingSink copies what it is shown (the slices are only valid
// during the call) and passes it on to a Keyer.
type recordingSink struct {
	out   *splitOutcome
	keyer *streamcache.Keyer
}

func (s *recordingSink) StartStream(id, parent int32, name string) {
	s.out.Order = append(s.out.Order, id)
	s.out.Parents[id], s.out.Names[id] = parent, name
	s.keyer.StartStream(id, parent, name)
}

func (s *recordingSink) Heading(id int32, toks []token.Token) {
	s.out.Headings[id] = append(s.out.Headings[id], toks...)
	s.keyer.Heading(id, toks)
}

func (s *recordingSink) Tokens(id int32, toks []token.Token) {
	if len(toks) == 0 {
		panic("empty run")
	}
	s.out.Mirrored[id] = append(s.out.Mirrored[id], toks...)
	s.keyer.Tokens(id, toks)
}

func (s *recordingSink) EndStream(id int32) {
	s.out.Ended = append(s.out.Ended, id)
	s.keyer.EndStream(id)
}

func (s *recordingSink) Done() { s.out.Done = true; s.keyer.Done() }

// splitAt lexes and splits src with every queue at the given block size.
func splitAt(name string, kind source.FileKind, src string, blockSize int, copyHeadings bool) *splitOutcome {
	f := source.NewSet().Add(name, kind, src)
	in := tokq.New(blockSize)
	lexer.Run(f, &ctrace.TaskCtx{}, diag.NewBag(0), in)

	out := &splitOutcome{
		Parents: map[int32]int32{}, Names: map[int32]string{},
		Queues: map[int32][]token.Token{}, Headings: map[int32][]token.Token{}, Mirrored: map[int32][]token.Token{},
	}
	sink := &recordingSink{out: out, keyer: streamcache.NewKeyer()}
	queues := map[int32]*tokq.Queue{0: tokq.New(blockSize)}
	next := int32(0)
	start := func(string, token.Pos, int32) (int32, *tokq.Queue) {
		next += 3 // stream numbers are the driver's; nothing may assume they are dense
		queues[next] = tokq.New(blockSize)
		return next, queues[next]
	}
	ctx := &ctrace.TaskCtx{}
	splitter.RunObserved(ctx, in.NewReader(nil), queues[0], start, copyHeadings, sink)
	out.Units = ctx.Units

	for id, q := range queues {
		if !q.Closed() {
			panic(fmt.Sprintf("stream %d left open", id))
		}
		for r := q.NewReader(nil); ; {
			t := r.Next()
			out.Queues[id] = append(out.Queues[id], t)
			if t.Kind == token.EOF {
				break
			}
		}
	}
	kp := streamcache.KeyParams{Reprocess: copyHeadings}
	body := sink.keyer.BodyKey(kp)
	out.Keys = append(out.Keys, fmt.Sprintf("body %x", body[:]))
	for _, id := range sink.keyer.ProcStreams() {
		key := sink.keyer.ProcKey(id, kp)
		out.Keys = append(out.Keys, fmt.Sprintf("%d %x", id, key[:]))
	}
	return out
}

// checkBlockSizeInvariant splits src at block sizes from one token to a
// whole default block, in both header modes, and requires identical
// outcomes; a PROCEDURE or END at a block's last slot must find its
// lookahead in the next block.
func checkBlockSizeInvariant(t *testing.T, name string, kind source.FileKind, src string) {
	t.Helper()
	for _, copyHeadings := range []bool{false, true} {
		want := splitAt(name, kind, src, tokq.DefaultBlockSize, copyHeadings)
		if !want.Done || len(want.Ended) != len(want.Order) {
			t.Fatalf("%s: split incomplete: done=%v, %d of %d streams ended", name, want.Done, len(want.Ended), len(want.Order))
		}
		for id, q := range want.Queues {
			// The Sink sees exactly what the queue got, up to the first
			// EOF (a malformed heading can leave tokens after one).
			m := want.Mirrored[id]
			if len(m) < len(q) || !reflect.DeepEqual(m[:len(q)], q) {
				t.Fatalf("%s: stream %d: the Sink's tokens are not the queue's", name, id)
			}
		}
		for _, size := range []int{1, 2, 3, 7} {
			got := splitAt(name, kind, src, size, copyHeadings)
			if d := got.Units - want.Units; d > 1e-9*want.Units || -d > 1e-9*want.Units {
				t.Errorf("%s copyHeadings=%v: %v work units at block size %d, %v at %d",
					name, copyHeadings, got.Units, size, want.Units, tokq.DefaultBlockSize)
			}
			got.Units = want.Units
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s copyHeadings=%v: split at block size %d differs from block size %d",
					name, copyHeadings, size, tokq.DefaultBlockSize)
			}
		}
	}
}

func TestBlockSizeInvariantOnExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "modules")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		ext := filepath.Ext(e.Name())
		if ext != ".mod" && ext != ".def" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		checkBlockSizeInvariant(t, strings.TrimSuffix(e.Name(), ext), source.Impl, string(b))
	}
	checkBlockSizeInvariant(t, "sample", source.Impl, sample)
	for _, src := range []string{
		"PROCEDURE", "PROCEDURE P", "PROCEDURE P(", "MODULE M; PROCEDURE P; BEGIN END", "END END END",
		"MODULE M; TYPE F = PROCEDURE (INTEGER); VAR f: PROCEDURE; PROCEDURE P; END P; END M.",
	} {
		checkBlockSizeInvariant(t, "edge", source.Impl, src)
	}
}

func TestBlockSizeInvariantOnSuite(t *testing.T) {
	suite := workload.GenerateSuite(1992, 1)
	for _, p := range suite.Programs {
		text, err := suite.Loader.Load(p.Name, source.Impl)
		if err != nil {
			t.Fatal(err)
		}
		checkBlockSizeInvariant(t, p.Name, source.Impl, text)
	}
}

// TestKeyedSplitAllocatesByFileSize pins the Keyer's memory to the size
// of the file, not the number of streams: on a generated program of
// hundreds of small procedures, observing the split costs a few bytes
// per byte of source (the records, in chunks that double) and a few
// small allocations per stream — not a multi-kilobyte buffer for each.
func TestKeyedSplitAllocatesByFileSize(t *testing.T) {
	loader := source.NewMapLoader()
	info := workload.GenerateProgram(workload.ProgramSpec{
		Name: "Many", Seed: 3, Procs: 300, StmtReps: 1, NestedEvery: 5, CallsForward: true,
	}, nil, loader)
	text, err := loader.Load(info.Name, source.Impl)
	if err != nil {
		t.Fatal(err)
	}
	in := tokq.New(0)
	lexer.Run(source.NewSet().Add(info.Name, source.Impl, text), &ctrace.TaskCtx{}, diag.NewBag(0), in)

	streams := 0
	measure := func(keyed bool) (bytes, allocs uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		next := int32(0)
		start := func(string, token.Pos, int32) (int32, *tokq.Queue) {
			next++
			return next, tokq.New(0)
		}
		var sink splitter.Sink
		if keyed {
			sink = streamcache.NewKeyer()
		}
		splitter.RunObserved(&ctrace.TaskCtx{}, in.NewReader(nil), tokq.New(0), start, false, sink)
		runtime.ReadMemStats(&after)
		streams = int(next) + 1
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	bareBytes, bareAllocs := measure(false)
	keyedBytes, keyedAllocs := measure(true)
	t.Logf("%d-byte file, %d streams: the Keyer allocated %d bytes in %d allocations",
		len(text), streams, keyedBytes-bareBytes, keyedAllocs-bareAllocs)
	if streams < 300 {
		t.Fatalf("fixture has only %d streams", streams)
	}
	if extra := int(keyedBytes - bareBytes); extra > 6*len(text) {
		t.Errorf("the Keyer allocated %d bytes for a %d-byte file of %d streams (%d per stream); want at most 6 per byte of source",
			extra, len(text), streams, extra/streams)
	}
	if extra := int(keyedAllocs - bareAllocs); extra > 6*streams {
		t.Errorf("the Keyer made %d allocations for %d streams; want at most 6 per stream", extra, streams)
	}
}
