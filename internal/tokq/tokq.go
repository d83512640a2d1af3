// Package tokq implements the lexical token queues that connect producer
// tasks (Lexor, Splitter) to consumer tasks (Splitter, Importer, parsers).
//
// Per Wortman & Junkin §2.3.1: "the Splitter task and the Lexor task of a
// main module stream communicate via a lexical token queue.  The elements
// in this queue are blocks of tokens.  Each block is associated with one
// event.  When the Lexor fills a token block, the block's event is
// signaled, indicating to the Splitter that it now may begin to read the
// tokens of that block."
//
// A Queue is append-only and supports any number of independent Readers
// (the Importer and the Splitter both scan the main module's queue).
// Waits on block events are *barrier* events (§2.3.3): the consumer's
// worker is not rescheduled, it simply waits, which is deadlock-free
// because token consumers are only started once their producers have
// begun and producers never block.
//
// Synchronization is block-granular, not token-granular.  The producer
// owns the open tail block and appends to it without a lock; readers
// never touch a block's tokens before its Ready event fires, and a block
// is frozen from the moment Ready fires (full, flushed, or closed), so
// the event's fire/wait pair is the only happens-before edge needed.
// The queue mutex is taken once per block — on publication, and by each
// reader on block acquisition — instead of once per token.
//
// Work is block-granular too.  A producer of many tokens (the lexer, the
// splitter forwarding a run) writes them straight into the open block's
// free slots (Slots) and commits them with Publish; unpublished slots
// are invisible, and a block that fills is frozen, then fired.  A
// consumer of many reads the acquired block's unread tokens in place
// (Reader.Run) and consumes them with Skip.  Append, Next and Peek are
// the one-token forms.
package tokq

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"m2cc/internal/event"
	"m2cc/internal/pool"
	"m2cc/internal/token"
)

// DefaultBlockSize is the number of tokens per block.  The value trades
// pipelining latency (smaller blocks let consumers start sooner) against
// event-signaling overhead; 256 matches the granularity the paper's
// measurements found cheap enough that barrier delays were "quite small".
const DefaultBlockSize = 256

// Block is one unit of the queue: a slice of tokens plus the event that
// its producer fires when the block is complete and readable.
type Block struct {
	Toks  []token.Token
	Ready *event.Event
	dirty int // slots a scribbling Scrub left non-zero (pool.Scribble)
}

// Blocks recycles Block structs and their token storage (see Retain);
// Ready events are never reused, as the observability layer keys its
// bookkeeping by *event.Event identity (grow gives each a fresh one).
var Blocks = &pool.List[*Block]{
	New:  func() *Block { return &Block{Toks: make([]token.Token, 0, DefaultBlockSize)} },
	Size: func(b *Block) int { return cap(b.Toks) * int(unsafe.Sizeof(token.Token{})) },
}

// Queue is a block-granularity token stream with one producer and many
// readers.  The zero value is not ready; use New.
type Queue struct {
	blockSize int
	fire      func(*event.Event) // producer-side fire hook (instrumentation); nil fires plainly

	// open is the producer-owned unsealed tail block (also the last
	// element of blocks).  Only the producer reads or writes it, and
	// readers wait on its Ready event before touching its tokens, so no
	// lock covers the per-token append.
	open *Block

	closed  atomic.Bool  // set under mu; read lock-free by Append's no-op guard
	sealed  atomic.Bool  // set by Close once the last block is sealed: recycling may start
	readers atomic.Int32 // Retain-declared readers not yet detached
	managed atomic.Bool  // Retain was called: block recycling is armed

	mu     sync.Mutex // guards: blocks, grown (taken under it); closed's false→true transition
	blocks []*Block
	grown  *event.Event // made by a reader that finds no next block; fired when one is added or the queue closes
}

// New returns an empty queue with the given block size (<= 0 selects
// DefaultBlockSize).
func New(blockSize int) *Queue {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Queue{blockSize: blockSize}
}

// SetFireHook routes every event fire through f, so the producing task
// can stamp the fire with its current work-unit offset for the trace.
// Must be set before the first Append and only by the producer.
func (q *Queue) SetFireHook(f func(*event.Event)) { q.fire = f }

// fireEvent fires e, if there is one, through the hook if one is set.
func (q *Queue) fireEvent(e *event.Event) {
	switch {
	case e == nil:
	case q.fire != nil:
		q.fire(e)
	default:
		e.Fire() // vet:allowfire no hook set; SetFireHook swaps in FireEvent
	}
}

// Retain declares n future readers.  Once every declared reader has
// called Detach and the queue is closed, the queue's blocks are returned
// to Blocks for the next queue to reuse.  The
// spawning driver must declare every reader it will ever create before
// the count can reach zero; queues that never Retain simply skip
// recycling.  A late reader of a recycled queue degrades safely (it sees
// an empty closed stream and reads EOF), but gets no tokens — Retain
// counts must cover all readers.
func (q *Queue) Retain(n int) {
	q.readers.Add(int32(n))
	q.managed.Store(true)
}

// maybeRecycle returns all blocks to Blocks once Close has sealed the
// last block and the last declared reader has detached.  A reader that
// unwinds early (a canceled compilation) can detach while Close is still
// sealing, so closed alone is not enough.
func (q *Queue) maybeRecycle() {
	if !q.managed.Load() || !q.sealed.Load() || q.readers.Load() != 0 {
		return
	}
	q.mu.Lock()
	blocks := q.blocks
	q.blocks = nil
	q.mu.Unlock()
	// A held Text would pin an old source file, so every slot written is
	// scrubbed: a sealed block's published tokens, and all of the last
	// block, where Publish drops tokens written after Close sealed it.
	for i, b := range blocks {
		n := max(len(b.Toks), b.dirty)
		if i == len(blocks)-1 {
			n = cap(b.Toks)
		}
		if b.dirty = 0; !pool.Scrub(b.Toks[:n]) {
			b.dirty = n
		}
		b.Toks, b.Ready = b.Toks[:0], nil
	}
	Blocks.Put(blocks...)
}

// grow opens and announces a new tail block for the producer, unless
// the queue is closed (re-checked under the lock: a concurrent sealing
// path may win), when it returns nil.
func (q *Queue) grow() *Block {
	if q.closed.Load() {
		return nil
	}
	b := Blocks.Get()
	if cap(b.Toks) < q.blockSize {
		b = &Block{Toks: make([]token.Token, 0, q.blockSize)}
	}
	b.Ready = event.New()
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return nil
	}
	q.open = b
	q.blocks = append(q.blocks, b)
	grown := q.grown
	q.grown = nil
	q.mu.Unlock()
	q.fireEvent(grown)
	return b
}

// seal freezes the open block, then fires its Ready event: the
// publication edge readers rely on.  The next token opens a new block.
func (q *Queue) seal(b *Block) {
	q.open = nil
	q.fireEvent(b.Ready)
}

// Slots returns the open block's free slots for the producer to write
// tokens into (never empty), or nil once the queue is closed.  Nothing
// written is visible to readers until Publish.
func (q *Queue) Slots() []token.Token {
	b := q.open
	if b == nil || q.closed.Load() {
		if b = q.grow(); b == nil {
			return nil
		}
	}
	return b.Toks[len(b.Toks):q.blockSize]
}

// Publish commits the first n tokens written into the last Slots
// result, sealing the block when that fills it.
func (q *Queue) Publish(n int) {
	b := q.open
	if b == nil {
		return // sealed by a concurrent Close; the tokens are dropped
	}
	b.Toks = b.Toks[:len(b.Toks)+n]
	if len(b.Toks) == q.blockSize {
		q.seal(b)
	}
}

// Append is the one-token Slots+Publish; it reports whether the token
// was accepted.  It must be called from the single producer task —
// except after Close, when it is a safe no-op returning false: under
// panic isolation a recovered producer's cleanup can race the closing
// of a queue another path already sealed, and that race must not take
// down the compilation.
func (q *Queue) Append(t token.Token) bool {
	b := q.open
	if b == nil || q.closed.Load() {
		if b = q.grow(); b == nil {
			return false
		}
	}
	b.Toks = append(b.Toks, t)
	if len(b.Toks) == q.blockSize {
		q.seal(b)
	}
	return true
}

// Flush fires the current partial block's event so consumers can read
// everything appended so far without waiting for the block to fill.
// The splitter flushes after each procedure heading and body marker,
// keeping the main module parser (and through it the heading events
// that release procedure streams, §2.4) flowing at heading granularity
// rather than block granularity.
func (q *Queue) Flush() {
	b := q.open
	if b == nil || len(b.Toks) == 0 {
		return
	}
	q.seal(b)
}

// Close marks the end of the token stream.  The final partial block's
// event fires so waiting readers drain it.  The producer must append a
// token.EOF token before closing; Readers return that EOF forever after.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return
	}
	q.closed.Store(true)
	grown := q.grown
	q.mu.Unlock()
	if b := q.open; b != nil {
		q.seal(b)
	}
	q.fireEvent(grown)
	q.sealed.Store(true)
	q.maybeRecycle()
}

// Closed reports whether the producer has closed the queue.
func (q *Queue) Closed() bool { return q.closed.Load() }

// Len returns the total number of tokens appended so far.  Intended for
// statistics once the queue is closed.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, b := range q.blocks {
		n += len(b.Toks)
	}
	return n
}

// state returns (block i if it exists, whether it exists, growth event,
// closed) under the lock.  The growth event is made here, for a reader
// that will wait on it: a block no reader waits for costs no event.
func (q *Queue) state(i int) (b *Block, ok bool, grown *event.Event, closed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i < len(q.blocks) {
		return q.blocks[i], true, nil, q.closed.Load()
	}
	if q.grown == nil && !q.closed.Load() {
		q.grown = event.New()
	}
	return nil, false, q.grown, q.closed.Load()
}

// Waiter performs barrier waits on events.  The scheduler's task is one,
// so waits are attributed to the running task; a nil Waiter simply
// blocks.
type Waiter interface {
	BarrierWait(*event.Event)
}

// Reader is an independent cursor over a Queue.  Each consumer task owns
// one Reader; Readers are not safe for concurrent use (but distinct
// Readers over one Queue are).
type Reader struct {
	q *Queue
	w Waiter

	cur      *Block // acquired block (Ready fired; tokens frozen)
	blk      int
	off      int
	buf      []token.Token  // lookahead of already-read tokens
	eof      [1]token.Token // the stream's EOF token, once atEOF
	atEOF    bool
	detached bool
}

// NewReader returns a reader positioned at the start of q.  w may be
// nil for a plain blocking wait.
func (q *Queue) NewReader(w Waiter) *Reader {
	return &Reader{q: q, w: w}
}

// Detach releases the reader's claim on the queue's blocks.  The owning
// task must call it (typically deferred) when it is done reading; after
// the queue closes and its last declared reader detaches, the blocks
// are recycled.  The reader must not be used again.  Detach on an
// undeclared (never-Retained) queue is a harmless no-op.
func (r *Reader) Detach() {
	if r == nil || r.detached {
		return
	}
	r.detached = true
	r.cur = nil
	r.q.Release()
}

// Release gives up one declared reader's claim without reading, as a
// reader that detaches unread would: a consumer whose stream turned out
// not to need parsing calls it in place of NewReader and Detach.
func (q *Queue) Release() {
	if q.managed.Load() && q.readers.Add(-1) == 0 {
		q.maybeRecycle()
	}
}

// wait performs a barrier wait on e through the reader's Waiter.
func (r *Reader) wait(e *event.Event) {
	if r.w == nil {
		e.Wait()
		return
	}
	r.w.BarrierWait(e)
}

// acquire makes cur a block with unread tokens, performing barrier waits
// as needed (the queue lock is taken once per block).  It reports false,
// at EOF, if the producer closed the queue without an EOF token
// (defensive; lexers always append one).
func (r *Reader) acquire() bool {
	for {
		if b := r.cur; b != nil {
			if r.off < len(b.Toks) {
				return true
			}
			// Block exhausted; move on.  A block is only readable once
			// Ready fired, and after that its Toks never change.
			r.cur = nil
			r.blk++
			r.off = 0
		}
		b, ok, grown, closed := r.q.state(r.blk)
		switch {
		case ok:
			// The Waiter records the dependency (and blocks only
			// if the block is not ready).
			r.wait(b.Ready)
			r.cur = b
		case closed:
			r.atEOF = true
			r.eof[0] = token.Token{Kind: token.EOF}
			return false
		default:
			r.wait(grown)
		}
	}
}

// fetch pulls the next token from the queue.  After the stream ends it
// returns the EOF token indefinitely.
func (r *Reader) fetch() token.Token {
	if r.atEOF || !r.acquire() {
		return r.eof[0]
	}
	t := r.cur.Toks[r.off]
	r.off++
	if t.Kind == token.EOF {
		r.atEOF = true
		r.eof[0] = t
	}
	return t
}

// Next returns the next token, advancing the reader.
func (r *Reader) Next() token.Token {
	if b := r.cur; b != nil && r.off < len(b.Toks) && len(r.buf) == 0 && !r.atEOF && b.Toks[r.off].Kind != token.EOF {
		r.off++
		return b.Toks[r.off-1] // the common case: mid-block, no lookahead
	}
	if len(r.buf) > 0 {
		t := r.buf[0]
		r.buf = r.buf[:copy(r.buf, r.buf[1:])]
		return t
	}
	return r.fetch()
}

// Peek returns the next token without consuming it.
func (r *Reader) Peek() token.Token { return r.PeekN(1) }

// PeekN returns the n-th upcoming token (1-based) without consuming
// anything.  This is the "small amount of token stream lookahead"
// (§2.1) the splitter needs to classify PROCEDURE tokens.
func (r *Reader) PeekN(n int) token.Token {
	if n == 1 && len(r.buf) == 0 && !r.atEOF && r.cur != nil && r.off < len(r.cur.Toks) {
		return r.cur.Toks[r.off] // in the acquired block: no copy
	}
	for len(r.buf) < n {
		r.buf = append(r.buf, r.fetch())
	}
	return r.buf[n-1]
}

// Run returns, without consuming them, the upcoming tokens at hand:
// pending lookahead, else the unread rest of the current block (the next
// one when that is empty).  It is never empty — at end of stream it holds
// the EOF token — and is frozen block storage: read-only, valid until
// Detach.
func (r *Reader) Run() []token.Token {
	if len(r.buf) > 0 {
		return r.buf
	}
	if r.atEOF || !r.acquire() {
		return r.eof[:]
	}
	return r.cur.Toks[r.off:]
}

// Skip consumes the first n tokens of the last Run.  A consumer stops at
// an EOF token: n may cover one only as the last token consumed.
func (r *Reader) Skip(n int) {
	switch {
	case n == 0 || r.atEOF && len(r.buf) == 0:
	case len(r.buf) > 0:
		r.buf = r.buf[:copy(r.buf, r.buf[n:])]
	default:
		r.off += n
		if t := r.cur.Toks[r.off-1]; t.Kind == token.EOF {
			r.atEOF = true
			r.eof[0] = t
		}
	}
}
