// The Keyer observes a split (it implements splitter.Sink) and derives
// each stream's cache key.
//
// Key structure, for procedure stream P:
//
//	key(P) = H( version ‖ headerMode ‖ checkBit ‖ closureHash
//	          ‖ ancestor own-text chain      (kinds+texts, no positions)
//	          ‖ heading layout hash of P     (kinds+texts+line+col)
//	          ‖ subtree layout hash of P     (kinds+texts+line+col,
//	                                          children recursively,
//	                                          source order)
//	          ‖ P's name )
//
// The ancestor chain covers everything an enclosing stream declares —
// constants, types, sibling headings, storage offsets — without their
// positions, so a line shift in the enclosing declaration region does
// not invalidate an unmoved procedure.  The heading hash carries the
// heading's absolute positions in both header modes (in HeaderShared
// the parent produces P's heading diagnostics and parameter facts; the
// copied heading tokens only enter P's own queue under
// HeaderReprocess).  The subtree layout hash pins the absolute layout
// of every token P's tasks read, including nested procedure headings
// (which the splitter routes to P's queue), so every position a cached
// artifact carries is identical by construction.  BodyRef reference
// text is excluded everywhere: stream numbers are allocated from a
// counter shared with interface streams and vary with discovery order.
//
// The module body's key hashes the whole main-stream subtree — any
// edit to the file recompiles the body, which is small by the paper's
// own measurements.
//
// Tokens are never stored: each run of arrivals appends compact records
// to one arena shared by all streams (4 kB chunks recycled through
// Chunks, so a split takes O(file) bytes however many streams it has),
// a stream's records are a chain of arena segments, and the probe
// digests each chain in bulk.  The record encoding is self-delimiting
// (kind is a fixed byte, positions and lengths are varints, text is
// length-prefixed), so distinct token sequences produce distinct byte
// streams.  Own-text hashes (kinds and texts, no positions) are
// re-derived from the layout records on demand — only ancestors' own
// hashes enter any key, so the decode runs for a handful of enclosing
// streams per compilation.  Feeding a digest per token (even buffered)
// was measured at roughly a third of the warm rebuild's wall clock;
// the bulk scheme reduces the keyer's hot path to one byte-append per
// token, one call per run.
package streamcache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"slices"
	"unsafe"

	"m2cc/internal/pool"
	"m2cc/internal/source"
	"m2cc/internal/token"
)

// keyVersion namespaces the hash format; bump on any change to record
// layout or key derivation.  v2: per-stream token runs enter the
// subtree hash as finished sha256 digests over compact varint records
// rather than inline token bytes (same invalidation semantics, single
// bulk digest pass over the traffic).
const keyVersion = "m2sc/2"

// KeyParams are the per-compilation key inputs shared by every stream.
type KeyParams struct {
	Reprocess bool        // §2.4 alternative 3 (HeaderReprocess)
	Check     bool        // lint facts recorded alongside code
	Closure   source.Hash // combined interface-closure hash (impscan.Hash)
}

// recs is one record stream: its stretches of the arena, in order (a
// record never straddles two), and the line the next record's delta
// counts from.
type recs struct {
	spans [][]byte
	line  int32
}

// streamInfo is one observed stream.
type streamInfo struct {
	parent   int32 // -1 for the main stream
	name     string
	children []int32 // StartStream order == source order

	// Record streams, digested in bulk at probe time under the domain
	// tags 'L' and 'H' (and 'S' for combined subtree hashes), which keep
	// the digest domains disjoint.
	layout recs // every token appended to the stream's queue
	head   recs // the heading's tokens

	subtree source.Hash // memoized subtree layout hash
	own     source.Hash
	owned   bool // own digested
	hashed  bool // subtree layout memoized
}

// Keyer accumulates a split's token traffic and computes stream keys.
// It is driven synchronously from the splitter goroutine; readers must
// only touch it after the splitter task completes (the scheduler's
// completion edge orders the accesses).
//
// Release keeps all it filled for the next split, so one that splits
// like an earlier one keys its streams without allocating.
type Keyer struct {
	infos []*streamInfo // the streams, in StartStream order, kept across splits; infos[:len(order)] are in use
	order []int32       // StartStream order, which is increasing id order; the main stream (0) is first
	done  bool

	tail   []byte   // the record arena's current chunk; earlier ones live on through the spans into them
	writer *recs    // whose span ends at tail's end, so may grow in place
	chunks [][]byte // recycled chunks taken so far, for Release
	kw     hashW    // ProcKey's and BodyKey's writer
	ow     hashW    // every other digest's: records, own texts, subtrees
}

// keyers recycles keyers whole: NewKeyer takes one, Release returns it.
var keyers = &pool.List[*Keyer]{
	New:  func() *Keyer { return &Keyer{kw: newHashW(), ow: newHashW()} },
	Size: func(k *Keyer) int { return int(unsafe.Sizeof(streamInfo{})) * cap(k.infos) },
}

// NewKeyer returns an empty Keyer ready to observe one split.
func NewKeyer() *Keyer { return keyers.Get() }

// stream returns the stream id names, or nil.
func (k *Keyer) stream(id int32) *streamInfo {
	if i, ok := slices.BinarySearch(k.order, id); ok {
		return k.infos[i]
	}
	return nil
}

// StartStream implements splitter.Sink.  Stream ids must increase from
// call to call, as the driver numbers streams.
func (k *Keyer) StartStream(id, parent int32, name string) {
	if len(k.order) == len(k.infos) {
		k.infos = append(k.infos, new(streamInfo))
	}
	s := k.infos[len(k.order)]
	s.parent, s.name = parent, name
	k.order = append(k.order, id)
	if p := k.stream(parent); p != nil {
		p.children = append(p.children, id)
	}
}

// Heading implements splitter.Sink.
func (k *Keyer) Heading(id int32, toks []token.Token) {
	if s := k.stream(id); s != nil {
		k.record(&s.head, toks)
	}
}

// Tokens implements splitter.Sink.
func (k *Keyer) Tokens(id int32, toks []token.Token) {
	if s := k.stream(id); s != nil {
		k.record(&s.layout, toks)
	}
}

const (
	minChunk  = 4 << 10                     // a recycled chunk; only a longer record gets a chunk of its own
	recordMax = 1 + 3*binary.MaxVarintLen64 // a record's bytes besides its text
)

// Chunks recycles record chunks: keyers take them and Release returns them.
var Chunks = &pool.List[[]byte]{
	New:  func() []byte { return make([]byte, 0, minChunk) },
	Size: func(c []byte) int { return cap(c) },
}

// Release scrubs the keyer's recycled chunks and returns them to Chunks
// and, emptied, a keyer that observed a split to keyers; the keyer must
// not be touched again.
func (k *Keyer) Release() {
	if k == nil {
		return
	}
	for _, c := range k.chunks {
		pool.Scrub(c[:cap(c)])
		Chunks.Put(c[:0])
	}
	k.chunks, k.tail, k.writer = nil, nil, nil
	if len(k.order) == 0 {
		return
	}
	for _, s := range k.infos[:len(k.order)] {
		clear(s.layout.spans)
		clear(s.head.spans)
		*s = streamInfo{children: s.children[:0],
			layout: recs{spans: s.layout.spans[:0]}, head: recs{spans: s.head.spans[:0]}}
	}
	k.order, k.done = k.order[:0], false
	keyers.Put(k)
}

// record appends toks' records to r at the arena's tail, opening a new
// chunk when the next record might not fit.
func (k *Keyer) record(r *recs, toks []token.Token) {
	buf := k.tail // a local: storing a slice into k per token costs a write barrier
	for len(toks) > 0 {
		lo, n := len(buf), 0
		for n < len(toks) && cap(buf)-len(buf) >= recordMax+len(toks[n].Text) {
			buf = appendRecord(buf, &toks[n], &r.line)
			n++
		}
		switch {
		case n == 0 && recordMax+len(toks[0].Text) > minChunk:
			buf, k.writer = make([]byte, 0, recordMax+len(toks[0].Text)), nil // not recycled
		case n == 0:
			buf, k.writer = Chunks.Get(), nil
			k.chunks = append(k.chunks, buf)
		case k.writer == r:
			last := &r.spans[len(r.spans)-1]
			*last = (*last)[:len(*last)+len(buf)-lo]
		default:
			r.spans = append(r.spans, buf[lo:])
			k.writer = r
		}
		toks = toks[n:]
	}
	k.tail = buf
}

// digest hashes tag ‖ r's records.
func (k *Keyer) digest(tag byte, r *recs) source.Hash {
	w := k.ow.reset()
	w.buf = append(w.buf, tag)
	w.flush()
	for _, b := range r.spans {
		w.st.Write(b)
	}
	return w.sum()
}

// appendRecord appends one positioned token record: kind byte, line
// delta (signed varint), column (uvarint), then — except for BodyRef,
// whose reference text is excluded everywhere — length-prefixed text.
// Every field is fixed-width or self-delimiting, so the record stream
// is decodable and distinct token sequences encode distinctly.
func appendRecord(b []byte, t *token.Token, line *int32) []byte {
	b = append(b, byte(t.Kind))
	d := int64(t.Pos.Line - *line)
	*line = t.Pos.Line
	zz := uint64(d) << 1 // zigzag, as binary.AppendVarint
	if d < 0 {
		zz = ^zz
	}
	b = appendUvarint(b, zz)
	b = appendUvarint(b, uint64(t.Pos.Col))
	if t.Kind != token.BodyRef {
		b = appendUvarint(b, uint64(len(t.Text)))
		b = append(b, t.Text...)
	}
	return b
}

// appendUvarint is binary.AppendUvarint with the one-byte case — nearly
// every line delta, column and text length — inlined at the call.
func appendUvarint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	return binary.AppendUvarint(b, x)
}

// EndStream implements splitter.Sink.
func (k *Keyer) EndStream(id int32) {}

// Done implements splitter.Sink.
func (k *Keyer) Done() { k.done = true }

// Complete reports whether the split ran to completion; a panicked
// splitter leaves the Keyer incomplete and the compilation uncacheable.
func (k *Keyer) Complete() bool { return k.done }

// ProcStreams returns the procedure stream ids in source order.
func (k *Keyer) ProcStreams() []int32 {
	if len(k.order) == 0 {
		return nil
	}
	return k.order[1:]
}

// Children returns a stream's direct children in source order.
func (k *Keyer) Children(id int32) []int32 {
	if s := k.stream(id); s != nil {
		return s.children
	}
	return nil
}

// headingHash digests a stream's heading; a stream without one (the main
// stream) digests as the canonical empty heading.
func (k *Keyer) headingHash(s *streamInfo) source.Hash {
	if len(s.head.spans) == 0 {
		return sha256.Sum256(nil)
	}
	return k.digest('H', &s.head)
}

// ownHash digests the stream's own text — kinds and texts without
// positions or EOF — on first use.  The byte stream is re-derived from
// the layout records, which are self-delimiting by construction, and
// goes to the digest through the writer's buffer; only ancestors' own
// hashes enter any key, so the decode runs for a handful of enclosing
// streams per compilation, never for the leaves that carry the bulk of
// the traffic.
func (k *Keyer) ownHash(s *streamInfo) source.Hash {
	if s.owned {
		return s.own
	}
	w := k.ow.reset()
	for _, buf := range s.layout.spans {
		for p := 0; p < len(buf); {
			kind := token.Kind(buf[p])
			p++
			_, n := binary.Varint(buf[p:]) // line delta
			p += n
			_, n = binary.Uvarint(buf[p:]) // column
			p += n
			var text []byte
			if kind != token.BodyRef {
				l, n := binary.Uvarint(buf[p:])
				p += n
				text = buf[p : p+int(l)]
				p += int(l)
			}
			if kind == token.EOF {
				continue
			}
			w.room(1 + binary.MaxVarintLen64)
			w.buf = append(w.buf, byte(kind))
			if kind != token.BodyRef {
				w.buf = binary.AppendUvarint(w.buf, uint64(len(text)))
				write(w, text)
			}
		}
	}
	s.own = w.sum()
	s.owned = true
	return s.own
}

// layoutHash digests a stream's layout records and, for streams with
// children, combines them with the children's layout hashes in source
// order under a distinct 'S' domain tag.
func (k *Keyer) layoutHash(s *streamInfo) source.Hash {
	if s.hashed {
		return s.subtree
	}
	s.subtree = k.digest('L', &s.layout)
	if len(s.children) > 0 {
		for _, c := range s.children {
			k.layoutHash(k.stream(c)) // memoized before the writer is taken
		}
		w := k.ow.reset()
		w.buf = append(append(w.buf, 'S'), s.subtree[:]...)
		for _, c := range s.children {
			w.hash(k.stream(c).subtree)
		}
		s.subtree = w.sum()
	}
	s.hashed = true
	return s.subtree
}

// base writes the per-compilation key prefix.
func base(h *hashW, p KeyParams) {
	h.str(keyVersion)
	h.bit(p.Reprocess)
	h.bit(p.Check)
	h.hash(p.Closure)
}

// ProcKey computes the cache key of procedure stream id.
func (k *Keyer) ProcKey(id int32, p KeyParams) Key {
	s := k.stream(id)
	h := k.kw.reset()
	base(h, p)
	k.chain(h, s.parent)
	h.hash(k.headingHash(s))
	h.hash(k.layoutHash(s))
	h.str(s.name)
	return h.sum()
}

// chain writes the own-text hashes of id and its ancestors, root first.
func (k *Keyer) chain(h *hashW, id int32) {
	if a := k.stream(id); a != nil {
		k.chain(h, a.parent)
		h.hash(k.ownHash(a))
	}
}

// BodyKey computes the module body's cache key: the full main-stream
// subtree layout.
func (k *Keyer) BodyKey(p KeyParams) Key {
	h := k.kw.reset()
	base(h, p)
	h.str(".body")
	if s := k.stream(0); s != nil {
		h.hash(k.layoutHash(s))
	}
	return h.sum()
}

// hashW is a sha256 writer that batches writes through a fixed buffer.
// Keys write length-prefixed fields (the prefixes prevent
// concatenation ambiguity between adjacent fields); own texts and
// subtree combinations write raw bytes.  A keyer reuses its two for
// every digest it takes.
type hashW struct {
	st  hash.Hash
	buf []byte
}

const hashWBuf = 256

func newHashW() hashW {
	return hashW{st: sha256.New(), buf: make([]byte, 0, hashWBuf)}
}

// reset starts a new digest.
func (w *hashW) reset() *hashW {
	w.st.Reset()
	w.buf = w.buf[:0]
	return w
}

func (w *hashW) flush() {
	if len(w.buf) > 0 {
		w.st.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// room flushes the buffer unless n more bytes fit.
func (w *hashW) room(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
}

func (w *hashW) u32(v uint32) {
	w.room(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *hashW) str(s string) {
	w.u32(uint32(len(s)))
	write(w, s)
}

// write appends s through w's buffer.
func write[S string | []byte](w *hashW, s S) {
	for len(s) > 0 {
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
}

func (w *hashW) bit(b bool) {
	if b {
		w.u32(1)
	} else {
		w.u32(0)
	}
}

func (w *hashW) hash(h source.Hash) {
	w.room(len(h))
	w.buf = append(w.buf, h[:]...)
}

// sum finalizes the digest, through the buffer so that the sum does not
// escape.  The writer must be reset before it is written again.
func (w *hashW) sum() (out source.Hash) {
	w.flush()
	w.buf = w.st.Sum(w.buf[:0])
	copy(out[:], w.buf)
	return out
}
