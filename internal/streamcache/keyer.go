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
// to one arena shared by all streams (chunks that grow geometrically, so
// a split allocates O(file) bytes however many streams it has), a
// stream's records are a chain of arena segments, and the probe digests
// each chain in bulk.  The record encoding is self-delimiting
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
	Closure   source.Hash // combined interface-closure hash (Cache.ClosureHash)
}

// impState is the prologue-import automaton state (the incremental
// equivalent of impscan.Names): imports only appear before the first
// declaration keyword.
type impState uint8

const (
	impScan     impState = iota // looking for FROM / IMPORT
	impFrom                     // saw FROM, next Ident is a module name
	impFromSkip                 // inside FROM ... IMPORT list, skip to ";"
	impList                     // inside IMPORT list, Idents are module names
	impDone                     // hit a declaration keyword; prologue over
)

// recs is one record stream: its stretches of the arena, in order (a
// record never straddles two), and the line the next record's delta
// counts from.
type recs struct {
	spans [][]byte
	line  int32
}

// streamInfo is one observed stream.
type streamInfo struct {
	id       int32
	parent   int32 // -1 for the main stream
	name     string
	children []int32 // StartStream order == source order

	// Record streams, digested in bulk at probe time under the domain
	// tags 'L' and 'H' (and 'S' for combined subtree hashes), which keep
	// the digest domains disjoint.
	layout recs // every token appended to the stream's queue
	head   recs // the heading's tokens

	imports []string // prologue import names, in order of appearance
	imp     impState

	subtree source.Hash // memoized subtree layout hash
	own     source.Hash
	owned   bool // own digested
	hashed  bool // subtree layout memoized
}

// Keyer accumulates a split's token traffic and computes stream keys.
// It is driven synchronously from the splitter goroutine; readers must
// only touch it after the splitter task completes (the scheduler's
// completion edge orders the accesses).
type Keyer struct {
	streams map[int32]*streamInfo
	order   []int32 // StartStream order; the main stream (0) is first
	done    bool

	tail   []byte    // the record arena's current chunk; earlier ones live on through the spans into them
	writer *recs     // whose span ends at tail's end, so may grow in place
	h      hash.Hash // reused by every bulk digest
}

// NewKeyer returns an empty Keyer ready to observe one split.
func NewKeyer() *Keyer {
	return &Keyer{streams: make(map[int32]*streamInfo), h: sha256.New()}
}

// StartStream implements splitter.Sink.
func (k *Keyer) StartStream(id, parent int32, name string) {
	k.streams[id] = &streamInfo{id: id, parent: parent, name: name}
	k.order = append(k.order, id)
	if p, ok := k.streams[parent]; ok {
		p.children = append(p.children, id)
	}
}

// Heading implements splitter.Sink.
func (k *Keyer) Heading(id int32, toks []token.Token) {
	if s := k.streams[id]; s != nil {
		k.record(&s.head, toks)
	}
}

// Tokens implements splitter.Sink.
func (k *Keyer) Tokens(id int32, toks []token.Token) {
	s := k.streams[id]
	if s == nil {
		return
	}
	k.record(&s.layout, toks)
	for i := 0; i < len(toks) && s.imp != impDone; i++ {
		s.scanImport(toks[i])
	}
}

const (
	minChunk  = 4 << 10
	recordMax = 1 + 3*binary.MaxVarintLen64 // a record's bytes besides its text
)

// record appends toks' records to r at the arena's tail, opening a chunk
// twice the size of the last when the next record might not fit.
func (k *Keyer) record(r *recs, toks []token.Token) {
	buf := k.tail // a local: storing a slice into k per token costs a write barrier
	for len(toks) > 0 {
		lo, n := len(buf), 0
		for n < len(toks) && cap(buf)-len(buf) >= recordMax+len(toks[n].Text) {
			buf = appendRecord(buf, &toks[n], &r.line)
			n++
		}
		switch {
		case n == 0:
			size := max(minChunk, 2*cap(buf), recordMax+len(toks[0].Text))
			buf, k.writer = make([]byte, 0, size), nil
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
func (k *Keyer) digest(tag byte, r *recs) (out source.Hash) {
	k.h.Reset()
	k.h.Write([]byte{tag})
	for _, b := range r.spans {
		k.h.Write(b)
	}
	k.h.Sum(out[:0])
	return out
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

// scanImport advances the prologue automaton by one token (the
// incremental form of impscan's Names).
func (s *streamInfo) scanImport(t token.Token) {
	switch s.imp {
	case impDone:
		return
	case impFrom:
		if t.Kind == token.Ident {
			s.imports = append(s.imports, t.Text)
		}
		s.imp = impFromSkip
		return
	case impFromSkip:
		if t.Kind == token.Semicolon || t.Kind == token.EOF {
			s.imp = impScan
		}
		return
	case impList:
		switch t.Kind {
		case token.Ident:
			s.imports = append(s.imports, t.Text)
		case token.Comma:
		default:
			s.imp = impScan
			s.scanImport(t) // the terminator may itself start a state
		}
		return
	}
	switch t.Kind { // impScan
	case token.FROM:
		s.imp = impFrom
	case token.IMPORT:
		s.imp = impList
	case token.CONST, token.TYPE, token.VAR, token.PROCEDURE,
		token.EXCEPTION, token.BEGIN, token.END, token.EOF:
		s.imp = impDone
	}
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

// Name returns the stream's procedure name.
func (k *Keyer) Name(id int32) string {
	if s := k.streams[id]; s != nil {
		return s.name
	}
	return ""
}

// Imports returns the module names the stream's prologue imports, in
// order of appearance (the driver's cache probe collects closure roots
// from them).
func (k *Keyer) Imports(id int32) []string {
	if s := k.streams[id]; s != nil {
		return s.imports
	}
	return nil
}

// Children returns a stream's direct children in source order.
func (k *Keyer) Children(id int32) []int32 {
	if s := k.streams[id]; s != nil {
		return s.children
	}
	return nil
}

// Descendants returns every stream below id in pre-order.
func (k *Keyer) Descendants(id int32) []int32 {
	var out []int32
	var walk func(int32)
	walk = func(sid int32) {
		for _, c := range k.Children(sid) {
			out = append(out, c)
			walk(c)
		}
	}
	walk(id)
	return out
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
// the layout records, which are self-delimiting by construction; only
// ancestors' own hashes enter any key, so the decode runs for a
// handful of enclosing streams per compilation, never for the leaves
// that carry the bulk of the traffic.
func (s *streamInfo) ownHash() source.Hash {
	if s.owned {
		return s.own
	}
	size := 0
	for _, buf := range s.layout.spans {
		size += len(buf)
	}
	b := make([]byte, 0, size)
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
			b = append(b, byte(kind))
			if kind != token.BodyRef {
				b = binary.AppendUvarint(b, uint64(len(text)))
				b = append(b, text...)
			}
		}
	}
	s.own = sha256.Sum256(b)
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
		b := make([]byte, 1, 1+sha256.Size*(1+len(s.children)))
		b[0] = 'S'
		b = append(b, s.subtree[:]...)
		for _, c := range s.children {
			if cs := k.streams[c]; cs != nil {
				ch := k.layoutHash(cs)
				b = append(b, ch[:]...)
			}
		}
		s.subtree = sha256.Sum256(b)
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
	s := k.streams[id]
	h := newHashW()
	base(h, p)
	// Ancestor own-text chain, root first.
	var chain []*streamInfo
	for a := k.streams[s.parent]; a != nil; a = k.streams[a.parent] {
		chain = append(chain, a)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		h.hash(chain[i].ownHash())
	}
	h.hash(k.headingHash(s))
	h.hash(k.layoutHash(s))
	h.str(s.name)
	return h.sum()
}

// BodyKey computes the module body's cache key: the full main-stream
// subtree layout.
func (k *Keyer) BodyKey(p KeyParams) Key {
	h := newHashW()
	base(h, p)
	h.str(".body")
	if s := k.streams[0]; s != nil {
		h.hash(k.layoutHash(s))
	}
	return h.sum()
}

// hashW is a length-prefixed sha256 writer (length prefixes prevent
// concatenation ambiguity between adjacent fields) that batches writes
// through a fixed buffer.  It only runs at probe time, combining a
// handful of finished digests per key; token traffic never goes
// through it.
type hashW struct {
	st  hash.Hash
	buf []byte
}

const hashWBuf = 256

func newHashW() *hashW {
	return &hashW{st: sha256.New(), buf: make([]byte, 0, hashWBuf)}
}

func (w *hashW) flush() {
	if len(w.buf) > 0 {
		w.st.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *hashW) u32(v uint32) {
	if len(w.buf)+4 > cap(w.buf) {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *hashW) str(s string) {
	w.u32(uint32(len(s)))
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
	if len(w.buf)+len(h) > cap(w.buf) {
		w.flush()
	}
	w.buf = append(w.buf, h[:]...)
}

// sum finalizes the digest.  The writer must not be written after.
func (w *hashW) sum() source.Hash {
	w.flush()
	var out source.Hash
	w.st.Sum(out[:0])
	return out
}
