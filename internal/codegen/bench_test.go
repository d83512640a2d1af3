package codegen_test

import (
	"testing"
	"unsafe"

	"m2cc/internal/seq"
	"m2cc/internal/vm"
	"m2cc/internal/workload"
)

// BenchmarkCodegenCompile drives Compile over every procedure of one
// fixed generated program (the suite's largest) through the sequential
// compiler — the code generator has no entry point of its own, so B/op
// and allocs/op include the front end; the retained object code is
// reported separately as code-B/op (one noscan allocation per segment).
func BenchmarkCodegenCompile(b *testing.B) {
	suite := workload.GenerateSuite(1992, 1)
	name := suite.Programs[len(suite.Programs)-1].Name
	b.ReportAllocs()
	instrs := 0
	for i := 0; i < b.N; i++ {
		res := seq.Compile(name, suite.Loader)
		if res.Failed() {
			b.Fatal(res.Diags)
		}
		instrs = 0
		for _, p := range res.Object.Procs {
			instrs += len(p.Code)
		}
	}
	b.ReportMetric(float64(instrs), "instrs/op")
	b.ReportMetric(float64(instrs)*float64(unsafe.Sizeof(vm.Instr{})), "code-B/op")
}
