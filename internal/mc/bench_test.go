package mc

import (
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

func throughputSetup(b *testing.B) (*system.System, *machine.Program) {
	b.Helper()
	s, err := system.DiningFlipped(4)
	if err != nil {
		b.Fatal(err)
	}
	bl := machine.NewBuilder()
	g1, g2 := bl.Sym("_g1"), bl.Sym("_g2")
	bl.Label("grab1")
	bl.Lock("left", "_g1")
	bl.JumpIf(func(r *machine.Regs) bool { return r.Get(g1) != true }, "grab1")
	bl.Label("grab2")
	bl.Lock("right", "_g2")
	bl.JumpIf(func(r *machine.Regs) bool { return r.Get(g2) != true }, "grab2")
	bl.Unlock("right")
	bl.Unlock("left")
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	return s, prog
}

func runThroughput(b *testing.B, opts Options) {
	b.Helper()
	s, prog := throughputSetup(b)
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
		if opts.HotIndexBytes > 0 && res.Stats.SpilledBytes == 0 {
			b.Fatal("the hot-index cap spilled nothing")
		}
		b.ReportMetric(float64(res.StatesExplored), "states/op")
	}
}

// BenchmarkCheckThroughput measures model-checker state throughput on
// the Figure 5 four-philosopher table (a closed 5,689-state space whose
// id vectors take about 46 KB at 1 byte per id): plain BFS, symmetry-reduced BFS (orbit
// quotient), and plain BFS with a 16 KiB hot-index cap, one chunk of
// 1-byte ids, which spills every finalized key chunk so the spill
// tier's cost stays measured.
func BenchmarkCheckThroughput(b *testing.B) {
	b.Run("seq", func(b *testing.B) { runThroughput(b, Options{}) })
	b.Run("sym", func(b *testing.B) { runThroughput(b, Options{SymmetryReduce: true}) })
	b.Run("spill", func(b *testing.B) {
		runThroughput(b, Options{HotIndexBytes: 16 << 10, SpillDir: b.TempDir()})
	})
}
