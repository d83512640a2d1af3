package lru

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestStore drives one store per case through a script of operations
// and checks its contents, most recently used first, and its eviction
// count after every step.  "put!" pins the value it stores, so the keep
// predicate reports it until "unpin" releases it and trims.  A weighted
// case's store weighs each value by its length, and caps that total.
func TestStore(t *testing.T) {
	type step struct {
		op        string // "put k v", "put! k v", "unpin v", "get k", "del k", "limit n"
		want      string // keys=values, most recently used first
		evictions int64
	}
	cases := []struct {
		name     string
		limit    int
		steps    []step
		weighted bool
	}{
		{"put and get refresh recency", 3, []step{
			{"put a 1", "a=1", 0},
			{"put b 2", "b=2 a=1", 0},
			{"put c 3", "c=3 b=2 a=1", 0},
			{"get a", "a=1 c=3 b=2", 0},
			{"put b 4", "b=4 a=1 c=3", 0},
			{"get x", "b=4 a=1 c=3", 0},
			{"put d 5", "d=5 b=4 a=1", 1},
		}, false},
		{"kept entries are skipped over the cap", 2, []step{
			{"put! a 1", "a=1", 0},
			{"put! b 2", "b=2 a=1", 0},
			{"put! c 3", "c=3 b=2 a=1", 0},
			{"put d 4", "c=3 b=2 a=1", 1},
			{"unpin 1", "c=3 b=2", 2},
			{"get b", "b=2 c=3", 2},
			{"unpin 3", "b=2 c=3", 2},
			{"put e 5", "e=5 b=2", 3},
		}, false},
		{"limit shrinks and grows", 4, []step{
			{"put a 1", "a=1", 0},
			{"put b 2", "b=2 a=1", 0},
			{"put c 3", "c=3 b=2 a=1", 0},
			{"limit 1", "c=3", 2},
			{"limit 3", "c=3", 2},
			{"put d 4", "d=4 c=3", 2},
			{"put e 5", "e=5 d=4 c=3", 2},
			{"put f 6", "f=6 e=5 d=4", 3},
		}, false},
		{"limit 0 is unbounded", 0, []step{
			{"put a 1", "a=1", 0},
			{"put b 2", "b=2 a=1", 0},
			{"put c 3", "c=3 b=2 a=1", 0},
			{"limit 1", "c=3", 2},
			{"limit 0", "c=3", 2},
			{"put d 4", "d=4 c=3", 2},
			{"put e 5", "e=5 d=4 c=3", 2},
		}, false},
		{"delete is not an eviction", 2, []step{
			{"put a 1", "a=1", 0},
			{"put b 2", "b=2 a=1", 0},
			{"del a", "b=2", 0},
			{"del a", "b=2", 0},
			{"put c 3", "c=3 b=2", 0},
			{"del c", "b=2", 0},
			{"get c", "b=2", 0},
			{"put d 4", "d=4 b=2", 0},
			{"put e 5", "e=5 d=4", 1},
		}, false},
		{"weights cap the total", 6, []step{
			{"put a 111", "a=111", 0},
			{"put b 22", "b=22 a=111", 0},
			{"put c 1", "c=1 b=22 a=111", 0},
			{"put d 4", "d=4 c=1 b=22", 1},
			{"put b 22222", "b=22222 d=4", 2},
			{"del d", "b=22222", 2},
			{"put e 7777777", "", 4},
			{"put f 66", "f=66", 4},
			{"limit 0", "f=66", 4},
			{"put g 7777777", "g=7777777 f=66", 4},
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pinned := map[string]bool{}
			s := New[string, string](c.limit, func(v string) bool { return pinned[v] })
			if c.weighted {
				s = NewWeighted[string, string](c.limit, func(v string) int { return len(v) })
			}
			for _, st := range c.steps {
				f := strings.Fields(st.op)
				switch f[0] {
				case "put!":
					pinned[f[2]] = true
					s.Put(f[1], f[2])
				case "put":
					s.Put(f[1], f[2])
				case "unpin":
					delete(pinned, f[1])
					s.Trim()
				case "get":
					v, ok := s.Get(f[1])
					if want := strings.Contains(" "+st.want, " "+f[1]+"="); ok != want || (ok && !strings.Contains(st.want, f[1]+"="+v)) {
						t.Fatalf("%s: got %q, %v", st.op, v, ok)
					}
				case "del":
					s.Delete(f[1])
				case "limit":
					n, _ := strconv.Atoi(f[1])
					s.SetLimit(n)
				}
				var got []string
				size := 0
				s.Range(func(k, v string) bool {
					got = append(got, k+"="+v)
					if size++; c.weighted {
						size += len(v) - 1
					}
					return true
				})
				if want := strings.Fields(st.want); strings.Join(got, " ") != st.want || s.Len() != len(want) || s.Size() != size {
					t.Fatalf("after %q: holds %v (Len %d, Size %d), want %v (Size %d)", st.op, got, s.Len(), s.Size(), want, size)
				}
				if s.Evictions() != st.evictions {
					t.Fatalf("after %q: %d evictions, want %d", st.op, s.Evictions(), st.evictions)
				}
			}
		})
	}
}

// TestRangeStops checks that Range ends when its callback returns false.
func TestRangeStops(t *testing.T) {
	s := New[int, int](0, nil)
	for i := 0; i < 5; i++ {
		s.Put(i, i)
	}
	var seen []int
	s.Range(func(k, _ int) bool {
		seen = append(seen, k)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{4, 3}) {
		t.Fatalf("Range visited %v, want [4 3]", seen)
	}
}
