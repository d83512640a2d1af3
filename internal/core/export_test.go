package core

import "testing"

// SetBlockSize cuts the token queues of the compilations that follow
// into blocks of n tokens, until the test ends.
func SetBlockSize(t *testing.T, n int) {
	blockSize = n
	t.Cleanup(func() { blockSize = 0 })
}
