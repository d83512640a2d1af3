package sched_test

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"m2cc/internal/core"
	"m2cc/internal/ctrace"
	"m2cc/internal/obs"
	"m2cc/internal/workload"
)

// TestLanesBelowWorkersAndExclusive: in an observed compilation at two
// workers, every stretch of a task on a slot lies on a lane below the
// worker count, and no two tenures of one lane overlap — a tenure being
// a stretch carried on through the barrier wait after it, since a
// barrier waiter keeps its slot and lane.
func TestLanesBelowWorkersAndExclusive(t *testing.T) {
	const workers = 2
	suite := workload.GenerateSuite(7, 0.05)
	for _, p := range suite.Programs[:4] {
		res := core.Compile(p.Name, suite.Loader, core.Options{Workers: workers, Obs: obs.New(), Trace: true})
		if res.Failed() {
			t.Fatalf("%s failed:\n%s", p.Name, res.Diags)
		}
		type tenure struct{ start, end time.Duration }
		lanes := make([][]tenure, workers)
		stretches := 0
		for i, r := range res.Trace.Run.Tasks {
			for j, s := range r.Stretches {
				if s.Lane < 0 || s.Lane >= workers {
					t.Fatalf("%s: task %d ran on lane %d, want below %d", p.Name, i+1, s.Lane, workers)
				}
				end := s.End
				if j < len(r.Waits) && r.Waits[j].Kind == ctrace.WaitBarrier {
					end = r.Waits[j].End
				}
				lanes[s.Lane] = append(lanes[s.Lane], tenure{s.Start, end})
				stretches++
			}
		}
		if stretches < len(res.Trace.Tasks) {
			t.Fatalf("%s: %d stretches for %d tasks", p.Name, stretches, len(res.Trace.Tasks))
		}
		for lane, ts := range lanes {
			slices.SortFunc(ts, func(a, b tenure) int { return cmp.Compare(a.start, b.start) })
			for k := 1; k < len(ts); k++ {
				if ts[k].start < ts[k-1].end {
					t.Fatalf("%s: lane %d holds a tenure from %v to %v and another from %v",
						p.Name, lane, ts[k-1].start, ts[k-1].end, ts[k].start)
				}
			}
		}
	}
}
