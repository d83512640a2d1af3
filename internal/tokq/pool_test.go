package tokq

import (
	"runtime"
	"testing"

	"m2cc/internal/token"
)

// drainQueue fills a Retain(1) queue with n tokens whose Text is set,
// writes more slots than it publishes, closes it and detaches its one
// reader, which returns every block to the free list.
func drainQueue(n int) {
	q := New(DefaultBlockSize)
	q.Retain(1)
	for i := 0; i < n; i++ {
		q.Append(token.Token{Kind: token.Ident, Text: "held"})
	}
	s := q.Slots()
	s[0] = token.Token{Kind: token.Ident, Text: "written, never published"}
	q.Append(token.Token{Kind: token.EOF})
	q.Close()
	r := q.NewReader(nil)
	for r.Next().Kind != token.EOF {
	}
	r.Detach()
}

// TestBlocksSurviveCollection: blocks returned before two collections
// are still on the free list after them, so the next queue allocates no
// block.
func TestBlocksSurviveCollection(t *testing.T) {
	drainQueue(DefaultBlockSize)
	allocs := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		Blocks.Put(Blocks.Get())
	})
	if allocs != 0 {
		t.Fatalf("taking a block after two collections made %.0f allocations, want 0", allocs)
	}
}

// TestReleasedBlocksHoldNoText: a held block must not pin the source
// its tokens' texts point into, published or merely written.
func TestReleasedBlocksHoldNoText(t *testing.T) {
	drainQueue(2*DefaultBlockSize + 10)
	var held []*Block
	for Blocks.Stats().Held > 0 {
		b := Blocks.Get()
		held = append(held, b)
		for i, tok := range b.Toks[:cap(b.Toks)] {
			if tok.Text != "" {
				t.Fatalf("a held block's slot %d still holds %q", i, tok.Text)
			}
		}
	}
	if len(held) < 3 {
		t.Fatalf("only %d blocks were held, want the queue's 3", len(held))
	}
	for _, b := range held {
		Blocks.Put(b)
	}
}
