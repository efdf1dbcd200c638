package mc

import (
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

func runThroughput(b *testing.B, opts Options) {
	b.Helper()
	s, prog := flippedFourTable(b)
	opts.MaxStates = 500_000
	opts.StuckBad = NotAllHalted
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Check(func() (*machine.Machine, error) {
			return machine.New(s, system.InstrL, prog)
		}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("space should close")
		}
		b.ReportMetric(float64(res.StatesExplored), "states/op")
	}
}

// BenchmarkCheckThroughput measures model-checker state throughput on
// the Figure 5 four-philosopher table (a closed 5,689-state space whose
// id vectors take about 46 KB at 1 byte per id): plain BFS and
// symmetry-reduced BFS (orbit quotient).
func BenchmarkCheckThroughput(b *testing.B) {
	b.Run("seq", func(b *testing.B) { runThroughput(b, Options{}) })
	b.Run("sym", func(b *testing.B) { runThroughput(b, Options{SymmetryReduce: true}) })
}
