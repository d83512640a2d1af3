package splitter_test

import (
	"testing"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/splitter"
	"m2cc/internal/streamcache"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
	"m2cc/internal/workload"
)

// BenchmarkSplitObserved is the Splitter task's body on one fixed
// generated program (the suite's largest), reading a pre-lexed queue:
// bare, and with the stream cache's Keyer as the Sink, the way a
// compilation with a stream cache attached runs it.  Procedure queues
// recycle through the block pool as the driver's do.
func BenchmarkSplitObserved(b *testing.B) {
	suite := workload.GenerateSuite(1992, 1)
	name := suite.Programs[len(suite.Programs)-1].Name
	text, err := suite.Loader.Load(name, source.Impl)
	if err != nil {
		b.Fatal(err)
	}
	in := tokq.New(0)
	lexer.Run(source.NewSet().Add(name, source.Impl, text), &ctrace.TaskCtx{}, diag.NewBag(0), in)
	tokens := in.Len()

	for _, keyed := range []bool{false, true} {
		b.Run(map[bool]string{false: "bare", true: "keyer"}[keyed], func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var queues []*tokq.Queue
				newQueue := func() *tokq.Queue {
					q := tokq.New(0)
					q.Retain(1)
					queues = append(queues, q)
					return q
				}
				start := func(string, token.Pos, int32) (int32, *tokq.Queue) {
					return int32(len(queues)), newQueue()
				}
				var sink splitter.Sink
				if keyed {
					sink = streamcache.NewKeyer()
				}
				splitter.RunObserved(&ctrace.TaskCtx{}, in.NewReader(nil), newQueue(), start, false, sink)
				for _, q := range queues {
					q.NewReader(nil).Detach()
				}
			}
			b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtok/s")
		})
	}
}
