package codegen

import (
	"runtime"
	"testing"
)

// TestEmitBuffersSurviveCollection: an emit buffer returned before two
// collections is still held after them, so the next Compile allocates
// none.
func TestEmitBuffersSurviveCollection(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		EmitBufs.Put(EmitBufs.Get())
	})
	if allocs != 0 {
		t.Fatalf("taking an emit buffer after two collections made %.0f allocations, want 0", allocs)
	}
}
