package vm_test

import (
	"io"
	"testing"

	"m2cc/internal/seq"
	"m2cc/internal/source"
	"m2cc/internal/vm"
	"m2cc/internal/workload"
)

// BenchmarkExecute runs two linked programs on the machine and reports
// the executed instructions per second: Synth, whose loops are integer
// arithmetic on immediates, and the suite program that links without
// library implementations, whose loops index an array (Index reads its
// bounds from the Ints pool).  Linking is outside the timed loop.
func BenchmarkExecute(b *testing.B) {
	synth := source.NewMapLoader()
	workload.GenerateSynth(synth, 400, 8, nil)
	suite := workload.GenerateSuite(1992, 1)
	for _, c := range []struct {
		name   string
		loader source.Loader
	}{{"Synth", synth}, {"Prog07", suite.Loader}} {
		res := seq.Compile(c.name, c.loader)
		if res.Failed() {
			b.Fatalf("compile %s:\n%s", c.name, res.Diags)
		}
		prog, err := vm.Link([]*vm.Object{res.Object}, c.name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				m := vm.NewMachine(prog, nil, io.Discard)
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				steps += vm.Steps(m)
			}
			b.ReportMetric(float64(steps)/1e6/b.Elapsed().Seconds(), "Minstr/s")
			b.ReportMetric(float64(steps)/float64(b.N), "instrs/op")
		})
	}
}
