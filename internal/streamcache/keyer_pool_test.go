package streamcache

import (
	"runtime"
	"strconv"
	"testing"

	"m2cc/internal/pool"
	"m2cc/internal/token"
)

// TestChunksSurviveCollection: a chunk released before two collections
// is still held after them, so the next keyer to grow allocates none.
func TestChunksSurviveCollection(t *testing.T) {
	k := NewKeyer()
	held := make([][]byte, 0, 1) // so that tracking the chunk allocates nothing either
	allocs := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		k.chunks = append(held[:0], Chunks.Get())
		k.Release()
	})
	if allocs != 0 {
		t.Fatalf("taking a chunk after two collections made %.0f allocations, want 0", allocs)
	}
}

// TestRecycledChunksKeepKeys derives the golden split's keys, releases
// the keyer, splits another program on the recycled chunks, releases it
// too and derives the golden keys again, with every release scribbling
// over the chunks it returns: both times the keys are the parent
// commit's bytes.
func TestRecycledChunksKeepKeys(t *testing.T) {
	pool.Scribble.Store(true)
	defer pool.Scribble.Store(false)
	perRun := func(k *Keyer, id int32, toks []token.Token) { k.Tokens(id, toks) }

	a := goldenFeed(perRun)
	if got := goldenKeys(a); got != keysAtParent {
		t.Fatalf("first derivation: keys %s, want %s", got, keysAtParent)
	}
	a.Release()

	b := NewKeyer()
	b.StartStream(0, -1, "")
	for i := int32(1); i <= 2000; i++ {
		b.Tokens(0, []token.Token{tok(token.Ident, "b"+strconv.Itoa(int(i)), i, 1)})
	}
	b.Done()
	if len(b.chunks) < 3 {
		t.Fatalf("program B filled %d chunks, want several", len(b.chunks))
	}
	b.Release()

	before := Chunks.Stats()
	again := goldenFeed(perRun)
	after := Chunks.Stats()
	if recycled := (after.Gets - after.Misses) - (before.Gets - before.Misses); recycled == 0 {
		t.Fatal("the second derivation took no recycled chunk")
	}
	if got := goldenKeys(again); got != keysAtParent {
		t.Fatalf("derivation on recycled chunks: keys %s, want %s", got, keysAtParent)
	}
}
