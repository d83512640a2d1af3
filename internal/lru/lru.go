// Package lru is the one recency-ordered, capped map in the compiler:
// the interface cache, the stream cache and the daemon's trace store
// all keep their entries in a Store; what a compilation learns of its
// files lives on its source.Snapshot and dies with it.
//
// A Store does not lock itself.  Each owner holds its own mutex around
// every call, so the owner's lock order (cache, then entry) is the only
// one.  An owner that must not lose some entries — an interface still
// being compiled, a trace still being written — says so with a keep
// predicate: eviction skips those, leaving the store over its cap until
// they become evictable and the owner calls Trim.  A store that caps
// bytes rather than entries weighs each entry (NewWeighted).
package lru

// Store maps keys to values in recency order, capped at a limit.
type Store[K comparable, V any] struct {
	byKey     map[K]*node[K, V]
	head      node[K, V] // sentinel: head.next is the most recently used entry, head.prev the least
	limit     int        // max total weight; 0 = unbounded
	keep      func(V) bool
	weight    func(V) int // an entry's weight
	size      int         // the entries' total weight
	evictions int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty store capped at limit entries (0 = unbounded).
// keep, when non-nil, reports the entries eviction must skip.
func New[K comparable, V any](limit int, keep func(V) bool) *Store[K, V] {
	s := &Store[K, V]{byKey: make(map[K]*node[K, V]), limit: limit, keep: keep, weight: func(V) int { return 1 }}
	s.head.prev, s.head.next = &s.head, &s.head
	return s
}

// NewWeighted returns an empty store whose entries weigh weight(v)
// each, capped at a total weight of limit (0 = unbounded).
func NewWeighted[K comparable, V any](limit int, weight func(V) int) *Store[K, V] {
	s := New[K, V](limit, nil)
	s.weight = weight
	return s
}

// Get returns the value stored under k and marks it most recently used.
func (s *Store[K, V]) Get(k K) (v V, ok bool) {
	n := s.byKey[k]
	if n == nil {
		return v, false
	}
	s.toFront(n)
	return n.val, true
}

// Put stores v under k as the most recently used entry, replacing any
// value already there, then trims the store to its cap.
func (s *Store[K, V]) Put(k K, v V) {
	n := s.byKey[k]
	if n == nil {
		n = &node[K, V]{key: k}
		s.byKey[k] = n
	} else {
		s.size -= s.weight(n.val)
	}
	n.val = v
	s.size += s.weight(v)
	s.toFront(n)
	s.Trim()
}

// Delete removes k's entry, if any.  A deletion is not an eviction.
func (s *Store[K, V]) Delete(k K) {
	if n := s.byKey[k]; n != nil {
		s.remove(n)
	}
}

// SetLimit changes the cap (0 = unbounded) and trims the store to it.
func (s *Store[K, V]) SetLimit(n int) {
	s.limit = n
	s.Trim()
}

// Trim evicts entries, least recently used first, until the store is
// within its cap, skipping every entry keep reports.  Put and SetLimit
// trim; an owner calls Trim itself when a kept entry may have become
// evictable.
func (s *Store[K, V]) Trim() {
	if s.limit <= 0 {
		return
	}
	for n := s.head.prev; n != &s.head && s.size > s.limit; {
		prev := n.prev
		if s.keep == nil || !s.keep(n.val) {
			s.remove(n)
			s.evictions++
		}
		n = prev
	}
}

// Len returns the number of entries, kept ones included.
func (s *Store[K, V]) Len() int { return len(s.byKey) }

// Size returns the entries' total weight: Len, unless the store was
// made by NewWeighted.
func (s *Store[K, V]) Size() int { return s.size }

// Evictions returns the number of entries Trim has dropped.
func (s *Store[K, V]) Evictions() int64 { return s.evictions }

// Range calls f on each entry from the most to the least recently used
// until f returns false.  f must not modify the store.
func (s *Store[K, V]) Range(f func(K, V) bool) {
	for n := s.head.next; n != &s.head; n = n.next {
		if !f(n.key, n.val) {
			return
		}
	}
}

// toFront makes n, linked or new, the most recently used entry.
func (s *Store[K, V]) toFront(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next, n.next.prev = n.next, n.prev
	}
	n.prev, n.next = &s.head, s.head.next
	s.head.next.prev = n
	s.head.next = n
}

func (s *Store[K, V]) remove(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	delete(s.byKey, n.key)
	s.size -= s.weight(n.val)
}
