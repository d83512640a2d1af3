package core_test

import (
	"reflect"
	"sync"
	"testing"

	"m2cc/internal/core"
	"m2cc/internal/workload"
)

// TestTraceCanonicalAcrossRuns pins that a one-worker trace is a
// function of the program alone — the property the §4 harness's
// reproducibility rests on.  Even at one worker the live run's
// recording order depends on goroutine interleaving (the driver's
// prefetch, importers racing to start a def stream), so the program is
// recompiled many times while another goroutine loads the machine, and
// every trace must equal the first.
func TestTraceCanonicalAcrossRuns(t *testing.T) {
	suite := workload.GenerateSuite(7, 0.05)
	prog := suite.Programs[2].Name

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				core.Compile(suite.Programs[3].Name, suite.Loader, core.Options{Workers: 2})
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	first := core.Compile(prog, suite.Loader, core.Options{Workers: 1, Trace: true})
	if first.Failed() {
		t.Fatalf("%s failed to compile:\n%s", prog, first.Diags)
	}
	for i := 1; i < 50; i++ {
		res := core.Compile(prog, suite.Loader, core.Options{Workers: 1, Trace: true})
		if !reflect.DeepEqual(res.Trace, first.Trace) {
			t.Fatalf("compile %d of %s: trace differs from the first", i, prog)
		}
	}
}
