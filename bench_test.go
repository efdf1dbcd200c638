// Root benchmarks: one per experiment of EXPERIMENTS.md (the paper's
// evaluation artifacts E1–E15), plus the DESIGN.md ablations. Run with
//
//	go test -bench=. -benchmem
package simsym_test

import (
	"fmt"
	"testing"

	"simsym"
	"simsym/internal/core"
	"simsym/internal/experiments"
	"simsym/internal/system"
)

func benchTable(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp1Fig1 regenerates E1: Figure 1's similarity classes, the
// random-program round-robin witness, and the per-model verdicts.
func BenchmarkExp1Fig1(b *testing.B) { benchTable(b, experiments.E1Fig1) }

// BenchmarkExp2Alibi regenerates E2: Algorithm 2 convergence on Figure 2.
func BenchmarkExp2Alibi(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E2Alibi(3) })
}

// BenchmarkExp3Mimic regenerates E3: the Figure 3 mimicry analysis.
func BenchmarkExp3Mimic(b *testing.B) { benchTable(b, experiments.E3Mimic) }

// BenchmarkExp4DP5 regenerates E4: orbits, Theorem 11, and the DP
// deadlock on the five-philosopher table.
func BenchmarkExp4DP5(b *testing.B) { benchTable(b, experiments.E4DP5) }

// BenchmarkExp5DP6 regenerates E5: the DP' solution with a bounded model
// check.
func BenchmarkExp5DP6(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E5DP6(20_000) })
}

// BenchmarkExp6Scaling regenerates E6's rows: per-size sub-benchmarks
// showing the Theorem 5 shape. The production driver (Hopcroft
// smaller-half) is near-linearithmic on marked rings; the worklist (a
// partition.Dyn build) and the naive Algorithm 1 transcription are the
// DESIGN.md ablations and blow up super-linearly, so they stop at
// smaller sizes.
func BenchmarkExp6Scaling(b *testing.B) {
	markedRing := func(b *testing.B, n int) *system.System {
		b.Helper()
		s, err := system.Ring(n)
		if err != nil {
			b.Fatal(err)
		}
		s.ProcInit[0] = "leader"
		return s
	}
	for _, n := range []int{64, 256, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("hopcroft/n=%d", n), func(b *testing.B) {
			s := markedRing(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Similarity(s, core.RuleQ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("worklist/n=%d", n), func(b *testing.B) {
			s := markedRing(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SimilarityWorklist(s, core.RuleQ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			s := markedRing(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SimilarityNaive(s, core.RuleQ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp7FLP regenerates E7: the Theorem 1 counterexample search.
func BenchmarkExp7FLP(b *testing.B) { benchTable(b, experiments.E7FLP) }

// BenchmarkExp8Hierarchy regenerates E8: the full witness/model matrix.
func BenchmarkExp8Hierarchy(b *testing.B) { benchTable(b, experiments.E8Hierarchy) }

// BenchmarkExp9Randomized regenerates E9: Itai–Rodeh sweeps plus the
// Lehmann–Rabin run and the deterministic deadlock baseline.
func BenchmarkExp9Randomized(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E9Randomized(100) })
}

// BenchmarkExp10Orbits regenerates E10: symmetry vs similarity across
// prime and composite tables.
func BenchmarkExp10Orbits(b *testing.B) { benchTable(b, experiments.E10Orbits) }

// BenchmarkExp11EliteL regenerates E11: VERSIONS, ELITE, and Algorithm 4
// end-to-end runs.
func BenchmarkExp11EliteL(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E11EliteL(2) })
}

// BenchmarkExp12MsgPass regenerates E12: the message-passing suite.
func BenchmarkExp12MsgPass(b *testing.B) { benchTable(b, experiments.E12MsgPass) }

// BenchmarkExp13Encapsulated regenerates E13: Chandy–Misra with the
// orientation encapsulated in the initial state.
func BenchmarkExp13Encapsulated(b *testing.B) { benchTable(b, experiments.E13Encapsulated) }

// BenchmarkExp14CSP regenerates E14: the extended-CSP translation.
func BenchmarkExp14CSP(b *testing.B) { benchTable(b, experiments.E14CSP) }

// BenchmarkExp15AlgorithmS regenerates E15: Algorithm 2-S convergence.
func BenchmarkExp15AlgorithmS(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E15AlgorithmS(2) })
}

// BenchmarkExp16Statistical regenerates E16 at a loosened half-width
// (ε=0.2 → 47 trials per row) so one iteration stays sub-second.
func BenchmarkExp16Statistical(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E16Statistical(0.2) })
}

// BenchmarkSelectQ measures the full SELECT pipeline (decide + compile +
// run) on a marked ring in Q.
func BenchmarkSelectQ(b *testing.B) {
	sys, err := simsym.Ring(6)
	if err != nil {
		b.Fatal(err)
	}
	sys.ProcInit[0] = "leader"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, _, err := simsym.BuildSelectOpts(sys, simsym.InstrQ, simsym.SchedFair)
		if err != nil {
			b.Fatal(err)
		}
		m, err := simsym.NewMachine(sys, simsym.InstrQ, prog)
		if err != nil {
			b.Fatal(err)
		}
		rr, err := simsym.RoundRobin(6, 3000)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(rr); err != nil {
			b.Fatal(err)
		}
		if len(m.SelectedProcs()) != 1 {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkSelectL measures Algorithm 4 (relabel + two-phase labeling +
// election) on Figure 1.
func BenchmarkSelectL(b *testing.B) {
	sys := simsym.Fig1()
	prog, _, err := simsym.BuildSelectOpts(sys, simsym.InstrL, simsym.SchedFair)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := simsym.NewMachine(sys, simsym.InstrL, prog)
		if err != nil {
			b.Fatal(err)
		}
		rr, err := simsym.RoundRobin(2, 3000)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(rr); err != nil {
			b.Fatal(err)
		}
		if len(m.SelectedProcs()) != 1 {
			b.Fatal("selection failed")
		}
	}
}

// benchRingSplice drives b.N splice/unsplice event pairs through the
// incremental engine on an n-processor ring. Each iteration is two
// churn events, both locality-bounded: the certificate skips the merge
// pass and per-event work stays proportional to the splice's
// neighborhood, independent of n.
func benchRingSplice(b *testing.B, n int) {
	sys, err := system.Ring(n)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDynSystem(sys, core.RuleQ, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := sys.ProcIDs[i%n]
		bind, err := d.Bindings(p)
		if err != nil {
			b.Fatal(err)
		}
		vb := bind[1]
		vx := fmt.Sprintf("xv%d", i)
		px := fmt.Sprintf("xp%d", i)
		if _, err := d.Apply(
			core.Mutation{Op: core.OpAddVar, Var: vx, Init: "0"},
			core.Mutation{Op: core.OpAddProc, Proc: px, Init: "0", Bind: []string{vx, vb}},
			core.Mutation{Op: core.OpRewire, Proc: p, Name: "right", Var: vx},
		); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Apply(
			core.Mutation{Op: core.OpRewire, Proc: p, Name: "right", Var: vb},
			core.Mutation{Op: core.OpRemoveProc, Proc: px},
		); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d.NumClasses() != 2 {
		b.Fatalf("ring symmetry lost: %d classes", d.NumClasses())
	}
}

// BenchmarkChurnSplice is the incremental half of the E17 comparison:
// ns/op is the cost of two shape-preserving churn events and should be
// flat in n.
func BenchmarkChurnSplice(b *testing.B) {
	for _, n := range []int{1024, 16384, 131072} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRingSplice(b, n) })
	}
}

// benchTreeSplice drives b.N leaf join/leave event pairs through the
// incremental engine on an n-processor tree. Iteration i hangs a new
// leaf under processor i mod n and removes it again, so every join
// reveals structure along one root path and the merge pass restores the
// tree's classes on the leave.
func benchTreeSplice(b *testing.B, n int) {
	sys, err := system.Tree(n)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDynSystem(sys, core.RuleQ, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	classes := d.NumClasses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % n
		own := sys.VarIDs[sys.Nbr[p][1]]
		vx := fmt.Sprintf("xv%d", i)
		px := fmt.Sprintf("xp%d", i)
		if _, err := d.Apply(
			core.Mutation{Op: core.OpAddVar, Var: vx, Init: "0"},
			core.Mutation{Op: core.OpAddProc, Proc: px, Init: "0", Bind: []string{own, vx}},
		); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Apply(core.Mutation{Op: core.OpRemoveProc, Proc: px}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d.NumClasses() != classes {
		b.Fatalf("tree classes %d after churn, want %d", d.NumClasses(), classes)
	}
}

// BenchmarkChurnTree is the structure-revealing counterpart of
// BenchmarkChurnSplice: ns/op is the cost of a leaf join and its leave,
// both of which move the labeling along a root path and run the
// quotient merge pass.
func BenchmarkChurnTree(b *testing.B) {
	b.Run("n=1000", func(b *testing.B) { benchTreeSplice(b, 1000) })
}

// BenchmarkChurnRecompute is the static half of the comparison: the
// full Similarity fixpoint a non-incremental caller pays per topology
// event, growing linearly in n.
func BenchmarkChurnRecompute(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		sys, err := system.Ring(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Similarity(sys, core.RuleQ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
