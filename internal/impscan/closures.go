package impscan

import (
	"crypto/sha256"
	"sync"

	"m2cc/internal/lru"
	"m2cc/internal/source"
)

// Closures hashes definition modules' transitive import closures: the
// content of a module's .def combined, recursively, with that of every
// .def it imports.  The interface cache keys each entry by one such
// hash and the stream cache keys every stream by a combination of
// them, so any textual change to an interface a compilation can see
// yields a distinct key.
//
// Two memos make a warm rehash cheap: each distinct .def text is
// scanned for imports once, and each module's closure hash is kept
// with the content hash of every member, so revalidating it is one
// load per member and no lexing.  Both are capped at the owning
// cache's entry cap.  A Closures is safe for concurrent use.
type Closures struct {
	mu       sync.Mutex                        // guards: scans, closures, hashes
	scans    *lru.Store[source.Hash, []string] // content hash → direct import names
	closures *lru.Store[string, *closureMemo]  // module name → validated closure-hash memo
	hashes   int64                             // .def texts content-hashed on this hasher's behalf
}

// NewClosures returns a hasher whose memos hold at most limit entries
// each (0 = unbounded).
func NewClosures(limit int) *Closures {
	return &Closures{
		scans:    lru.New[source.Hash, []string](limit, nil),
		closures: lru.New[string, *closureMemo](limit, nil),
	}
}

// SetLimit changes the memos' cap (0 = unbounded).
func (c *Closures) SetLimit(n int) {
	c.mu.Lock()
	c.scans.SetLimit(n)
	c.closures.SetLimit(n)
	c.mu.Unlock()
}

// Hashes returns the number of .def texts content-hashed on this
// hasher's behalf.
func (c *Closures) Hashes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hashes
}

// load returns name.def's text and content hash.  Through a
// source.Snapshot — the compiler hands every request of one compilation
// the same one — a file is loaded and hashed once per compilation
// however many closures it is a member of, and once more in the next
// compilation, which is what revalidates every memo.
func (c *Closures) load(name string, loader source.Loader) (text string, sum source.Hash, err error) {
	fresh := true
	if snap, ok := loader.(*source.Snapshot); ok {
		text, sum, fresh, err = snap.LoadHashed(name, source.Def)
	} else if text, err = loader.Load(name, source.Def); err == nil {
		sum = source.HashText(text)
	}
	if fresh && err == nil {
		c.mu.Lock()
		c.hashes++
		c.mu.Unlock()
	}
	return text, sum, err
}

// Hash combines the transitive closure hashes of roots into one
// content hash, in root order.  ok is false when any root is
// unloadable or its closure contains an import cycle — such a
// compilation is uncacheable.
func (c *Closures) Hash(loader source.Loader, roots []string) (source.Hash, bool) {
	hasher := sha256.New()
	for _, name := range roots {
		h, ok := c.Root(name, loader)
		if !ok {
			return source.Hash{}, false
		}
		hasher.Write([]byte{0})
		hasher.Write([]byte(name))
		hasher.Write([]byte{0})
		hasher.Write(h[:])
	}
	var out source.Hash
	hasher.Sum(out[:0])
	return out, true
}

// closureMemo records one module's validated transitive closure hash:
// the content hash of the module's own .def, the name and content hash
// of every other closure member, and the combined closure hash those
// contents produced.  A later request revalidates by re-hashing each
// member's current text — if every content hash matches, the import
// structure is necessarily unchanged (imports are a function of
// content), so the stored closure hash is still correct.
type closureMemo struct {
	own  source.Hash
	deps []depHash
	hash source.Hash
}

type depHash struct {
	name string
	hash source.Hash
}

// closureScratch is the per-recomputation working state, pooled so a
// warm batch does not allocate two maps per Root.
type closureScratch struct {
	memo     map[string]source.Hash // name → closure hash (this walk)
	content  map[string]source.Hash // name → content hash (this walk)
	visiting map[string]bool
	order    []string // completion order; the root is last
}

var scratchPool = sync.Pool{New: func() any {
	return &closureScratch{
		memo:     make(map[string]source.Hash),
		content:  make(map[string]source.Hash),
		visiting: make(map[string]bool),
	}
}}

func (s *closureScratch) reset() {
	clear(s.memo)
	clear(s.content)
	clear(s.visiting)
	s.order = s.order[:0]
}

// Root returns the transitive closure hash of name, consulting (and
// maintaining) the per-name memo: a memo hit needs one load per closure
// member and no lexing, recursion, or map allocation; a miss or a stale
// memo falls back to the full walk.  ok is false when the closure has a
// load failure or an import cycle — the real compilation will produce
// the diagnostics.
func (c *Closures) Root(name string, loader source.Loader) (source.Hash, bool) {
	_, own, err := c.load(name, loader)
	if err != nil {
		return source.Hash{}, false
	}

	c.mu.Lock()
	m, _ := c.closures.Get(name)
	c.mu.Unlock()
	if m != nil && m.own == own && c.memoValid(m, loader) {
		return m.hash, true
	}

	s := scratchPool.Get().(*closureScratch)
	s.reset()
	h, ok := c.walk(name, loader, s)
	if ok {
		// Record a fresh memo for the root: every visited member except
		// the root itself becomes a validation dep.
		nm := &closureMemo{own: own, hash: h, deps: make([]depHash, 0, max(len(s.order)-1, 0))}
		for _, dep := range s.order {
			if dep == name {
				continue
			}
			nm.deps = append(nm.deps, depHash{name: dep, hash: s.content[dep]})
		}
		c.mu.Lock()
		c.closures.Put(name, nm)
		c.mu.Unlock()
	}
	scratchPool.Put(s)
	return h, ok
}

// memoValid reports whether every recorded closure member still loads
// to the recorded content.
func (c *Closures) memoValid(m *closureMemo, loader source.Loader) bool {
	for _, d := range m.deps {
		if _, sum, err := c.load(d.name, loader); err != nil || sum != d.hash {
			return false
		}
	}
	return true
}

func (c *Closures) walk(name string, loader source.Loader, s *closureScratch) (source.Hash, bool) {
	if h, ok := s.memo[name]; ok {
		return h, true
	}
	if s.visiting[name] {
		return source.Hash{}, false // import cycle
	}
	s.visiting[name] = true
	defer delete(s.visiting, name)

	_, content, err := c.load(name, loader)
	if err != nil {
		return source.Hash{}, false
	}
	imports := c.scanImports(name, loader, content)

	hasher := sha256.New()
	hasher.Write(content[:])
	for _, imp := range imports {
		sub, ok := c.walk(imp, loader, s)
		if !ok {
			return source.Hash{}, false
		}
		hasher.Write([]byte{0})
		hasher.Write([]byte(imp))
		hasher.Write([]byte{0})
		hasher.Write(sub[:])
	}
	var combined source.Hash
	hasher.Sum(combined[:0])
	s.memo[name] = combined
	s.content[name] = content
	s.order = append(s.order, name)
	return combined, true
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
