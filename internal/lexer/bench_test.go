package lexer_test

import (
	"testing"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/tokq"
	"m2cc/internal/workload"
)

// BenchmarkLexerRun is the Lexor task's body on one fixed generated
// program (the suite's largest): scan into a pooled token queue, then
// release the blocks.
func BenchmarkLexerRun(b *testing.B) {
	suite := workload.GenerateSuite(1992, 1)
	name := suite.Programs[len(suite.Programs)-1].Name
	text, err := suite.Loader.Load(name, source.Impl)
	if err != nil {
		b.Fatal(err)
	}
	f := source.NewSet().Add(name, source.Impl, text)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	tokens := 0
	for i := 0; i < b.N; i++ {
		q := tokq.New(0)
		q.Retain(1)
		lexer.Run(f, &ctrace.TaskCtx{}, diag.NewBag(0), q)
		tokens = q.Len()
		q.NewReader(nil).Detach()
	}
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtok/s")
}
