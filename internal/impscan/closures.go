package impscan

import (
	"crypto/sha256"
	"sync"

	"m2cc/internal/pool"
	"m2cc/internal/source"
)

// A module's closure hash is a Merkle hash: the content hash of its .def
// combined with the name and closure hash of each module it imports.
// The interface cache keys each entry by one such hash and the stream
// cache keys every stream by a combination of them, so any textual
// change to an interface a compilation can see yields a distinct key.
//
// A compilation learns each file's imports once: the area prescan
// (Prescan) records them on its source.Snapshot before any task runs,
// and the closure walk reads that record and nothing else; a file the
// prescan did not record makes its closure unhashable, so a compilation
// that meets one bypasses the caches rather than key on a closure that
// may leave out imports.  Each .def is content-hashed, and its closure
// hash computed, once per compilation, on the same snapshot, where both
// caches' keys find it.  Nothing is kept across compilations.

// OnScan and OnHash, test seams, see each file a prologue scan lexes and
// each .def a closure walk content-hashes.
var (
	OnScan func(name string, kind source.FileKind)
	OnHash func(name string)
)

// Prescan appends the prologue imports of name's file of kind to names,
// as prologue does, and records them on snap, where the closure walk and
// the stream cache's probe read them; a file already recorded appends
// nothing.  ok reports a first scan of a file that loads and holds a
// token.  The record is a capped sub-slice of names, so it costs no
// allocation of its own.
func Prescan(snap *source.Snapshot, name string, kind source.FileKind, names []string) (_ []string, ok bool) {
	m := snap.Closure(name, kind) // loads the file
	walks.Lock()
	scanned := m.Scanned
	walks.Unlock()
	if scanned {
		return names, false
	}
	base := len(names)
	names, ok = prologue(snap, name, kind, names) // outside walks, which every compilation shares
	walks.Lock()
	m.Imports, m.Scanned = names[base:len(names):len(names)], true
	walks.Unlock()
	return names, ok
}

// Imports returns the prologue imports of name's file of kind as the
// prescan recorded them on snap (none when it did not scan the file).
func Imports(snap *source.Snapshot, name string, kind source.FileKind) []string {
	walks.Lock()
	defer walks.Unlock()
	return snap.Closure(name, kind).Imports
}

// Hash combines the transitive closure hashes of roots into one
// content hash, in root order.  ok is false when any root is
// unloadable, unrecorded by the prescan, or its closure contains an
// import cycle — such a compilation is uncacheable.
func Hash(snap *source.Snapshot, roots []string) (source.Hash, bool) {
	walks.Lock()
	defer walks.Unlock()
	buf := bufs.Get()[:0]
	defer func() { bufs.Put(buf) }()
	for _, name := range roots {
		h, ok := walk(name, snap, &buf)
		if !ok {
			return source.Hash{}, false
		}
		buf = appendLink(buf, name, h)
	}
	return sha256.Sum256(buf), true
}

// Root returns the transitive closure hash of name.  ok is false when
// the closure has a load failure, a file the prescan did not record or
// an import cycle — the real compilation will produce the diagnostics.
func Root(name string, snap *source.Snapshot) (source.Hash, bool) {
	walks.Lock()
	defer walks.Unlock()
	buf := bufs.Get()[:0]
	defer func() { bufs.Put(buf) }()
	return walk(name, snap, &buf)
}

// walks guards every snapshot's memos (source.ClosureMemo): a walk holds
// it throughout, so each memo is computed once and a walk's marks are
// its own.  One lock serves every compilation: a walk takes microseconds
// an interface once its imports are scanned, and a lock in each
// snapshot would put every compilation's snapshot in a larger size
// class.  A walk reads the files it has not seen under it, so a slow
// Loader delays other compilations' walks too.
var walks sync.Mutex

// bufs recycles the walks' stacks of closure-hash inputs.
var bufs = &pool.List[[]byte]{New: func() []byte { return nil }, Size: func(b []byte) int { return cap(b) }}

// The walk's marks on a source.ClosureMemo.
const (
	walking    uint8 = 1 + iota // on the walk's stack: reaching it again is an import cycle
	hashed                      // Sum holds the closure hash
	unhashable                  // the closure holds an import cycle, an unloadable or an unrecorded file
)

// walk returns name's closure hash from its memo on snap, computing
// the memos of its closure first.  The caller holds walks.  buf is the
// walk's stack: name's hash input is appended past what its callers
// hold, the imports' walks push and pop theirs above it, and it is
// popped once hashed.
func walk(name string, snap *source.Snapshot, buf *[]byte) (source.Hash, bool) {
	m := snap.Closure(name, source.Def)
	switch m.Mark {
	case hashed:
		return m.Sum, true
	case walking, unhashable:
		return source.Hash{}, false
	}
	m.Mark = unhashable
	text, err := snap.Load(name, source.Def)
	if err != nil || !m.Scanned {
		return source.Hash{}, false
	}
	content := source.HashText(text)
	if OnHash != nil {
		OnHash(name)
	}
	m.Mark = walking
	base := len(*buf)
	*buf = append(*buf, content[:]...)
	for _, imp := range m.Imports {
		sub, ok := walk(imp, snap, buf)
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
