// Per-client connection-level rate limiting: a token bucket per
// client identity, refilled continuously at -rate-limit tokens/sec up
// to -rate-burst.  A request that finds no token is shed with 429 and
// a Retry-After telling the client when the next token arrives — the
// same shape as the admission path's EWMA-derived estimate, so client
// backoff logic handles both identically.
package main

import (
	"sync"
	"time"
)

// limiterSet holds one token bucket per client identity.
type limiterSet struct {
	mu    sync.Mutex // guards: m and every bucket inside it
	rate  float64    // tokens per second; <= 0 disables the limiter
	burst float64
	m     map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiterSet(rate float64, burst int) *limiterSet {
	return &limiterSet{rate: rate, burst: float64(max(burst, 1)), m: make(map[string]*bucket)}
}

// allow takes one token from the client's bucket.  When empty it
// reports the wait until the next token refills — the 429's
// Retry-After.  A new client starts with a full burst.
func (l *limiterSet) allow(client string, now time.Time) (ok bool, retry time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.m[client]
	if b == nil {
		if len(l.m) >= maxLimiterClients {
			l.pruneLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.m[client] = b
	} else {
		b.tokens, b.last = min(b.tokens+now.Sub(b.last).Seconds()*l.rate, l.burst), now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// maxLimiterClients bounds the bucket map; past it, pruneLocked drops
// buckets that have refilled to a full burst (a full bucket and a new
// client behave identically, so dropping one loses nothing).
const maxLimiterClients = 4096

func (l *limiterSet) pruneLocked(now time.Time) {
	for client, b := range l.m {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.m, client)
		}
	}
}
