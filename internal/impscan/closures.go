package impscan

import (
	"crypto/sha256"
	"sync"

	"m2cc/internal/lru"
	"m2cc/internal/pool"
	"m2cc/internal/source"
)

// Closures hashes definition modules' transitive import closures.  A
// module's closure hash is a Merkle hash: the content hash of its .def
// combined with the name and closure hash of each module it imports.
// The interface cache keys each entry by one such hash and the stream
// cache keys every stream by a combination of them, so any textual
// change to an interface a compilation can see yields a distinct key.
//
// Each .def is content-hashed, and its closure hash computed, once per
// compilation: the closure hash is kept on the compilation's
// source.Snapshot, where both caches' hashers find it.  Across
// compilations only the import scans are kept: each distinct .def text
// is scanned once, in a memo keyed by content and capped at the owning
// cache's entry cap.  A Closures is safe for concurrent use.
type Closures struct {
	mu     sync.Mutex                        // guards: scans, hashes
	scans  *lru.Store[source.Hash, []string] // content hash → direct import names
	hashes int64                             // .def texts content-hashed on this hasher's behalf
}

// NewClosures returns a hasher whose scan memo holds at most limit
// entries (0 = unbounded).
func NewClosures(limit int) *Closures {
	return &Closures{scans: lru.New[source.Hash, []string](limit, nil)}
}

// SetLimit changes the scan memo's cap (0 = unbounded).
func (c *Closures) SetLimit(n int) {
	c.mu.Lock()
	c.scans.SetLimit(n)
	c.mu.Unlock()
}

// Hashes returns the number of .def texts content-hashed on this
// hasher's behalf.
func (c *Closures) Hashes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hashes
}

// Hash combines the transitive closure hashes of roots into one
// content hash, in root order.  ok is false when any root is
// unloadable or its closure contains an import cycle — such a
// compilation is uncacheable.
func (c *Closures) Hash(loader source.Loader, roots []string) (source.Hash, bool) {
	snap := snapshot(loader)
	walks.Lock()
	defer walks.Unlock()
	buf := bufs.Get()[:0]
	defer func() { bufs.Put(buf) }()
	for _, name := range roots {
		h, ok := c.walk(name, snap, &buf)
		if !ok {
			return source.Hash{}, false
		}
		buf = appendLink(buf, name, h)
	}
	return sha256.Sum256(buf), true
}

// Root returns the transitive closure hash of name.  ok is false when
// the closure has a load failure or an import cycle — the real
// compilation will produce the diagnostics.
func (c *Closures) Root(name string, loader source.Loader) (source.Hash, bool) {
	snap := snapshot(loader)
	walks.Lock()
	defer walks.Unlock()
	buf := bufs.Get()[:0]
	defer func() { bufs.Put(buf) }()
	return c.walk(name, snap, &buf)
}

// snapshot returns the compilation's snapshot, or a snapshot for this
// one call when the caller has none.
func snapshot(loader source.Loader) *source.Snapshot {
	if snap, ok := loader.(*source.Snapshot); ok {
		return snap
	}
	return source.NewSnapshot(loader)
}

// walks guards every snapshot's closure memos (source.ClosureMemo): a
// walk holds it throughout, so each memo is computed once and a walk's
// marks are its own.  One lock serves every compilation: a walk takes
// microseconds an interface once its imports are scanned, and a lock in
// each snapshot would put every compilation's snapshot in a larger
// size class.  A walk reads the files it has not seen under it, so a
// slow Loader delays other compilations' walks too.
var walks sync.Mutex

// bufs recycles the walks' stacks of closure-hash inputs.
var bufs = &pool.List[[]byte]{New: func() []byte { return nil }, Size: func(b []byte) int { return cap(b) }}

// The walk's marks on a source.ClosureMemo.
const (
	walking    uint8 = 1 + iota // on the walk's stack: reaching it again is an import cycle
	hashed                      // Sum holds the closure hash
	unhashable                  // the closure holds an import cycle or an unloadable file
)

// walk returns name's closure hash from its memo on snap, computing
// the memos of its closure first.  The caller holds walks.  buf is the
// walk's stack: name's hash input is appended past what its callers
// hold, the imports' walks push and pop theirs above it, and it is
// popped once hashed.
func (c *Closures) walk(name string, snap *source.Snapshot, buf *[]byte) (source.Hash, bool) {
	m := snap.Closure(name)
	switch m.Mark {
	case hashed:
		return m.Sum, true
	case walking, unhashable:
		return source.Hash{}, false
	}
	m.Mark = unhashable
	text, err := snap.Load(name, source.Def)
	if err != nil {
		return source.Hash{}, false
	}
	content := source.HashText(text)
	c.mu.Lock()
	c.hashes++
	c.mu.Unlock()
	m.Mark = walking
	base := len(*buf)
	*buf = append(*buf, content[:]...)
	for _, imp := range c.scanImports(name, snap, content) {
		sub, ok := c.walk(imp, snap, buf)
		if !ok {
			*buf, m.Mark = (*buf)[:base], unhashable
			return source.Hash{}, false
		}
		*buf = appendLink(*buf, imp, sub)
	}
	m.Sum, m.Mark = sha256.Sum256((*buf)[base:]), hashed
	*buf = (*buf)[:base]
	return m.Sum, true
}

// appendLink appends one import's part of a closure hash's input: its
// name, NUL-delimited, and its closure hash.
func appendLink(b []byte, name string, h source.Hash) []byte {
	b = append(append(append(b, 0), name...), 0)
	return append(b, h[:]...)
}

// scanImports returns the direct imports of a .def's text, memoized by
// content hash so each distinct interface text's prologue is lexed once
// while it stays in the memo rather than once per compilation.
func (c *Closures) scanImports(name string, loader source.Loader, content source.Hash) []string {
	c.mu.Lock()
	imps, ok := c.scans.Get(content)
	c.mu.Unlock()
	if ok {
		return imps
	}

	imps, _ = Prologue(loader, name, source.Def, nil)

	c.mu.Lock()
	c.scans.Put(content, imps)
	c.mu.Unlock()
	return imps
}
