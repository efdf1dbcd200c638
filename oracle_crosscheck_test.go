package simsym_test

// Verdict cross-checks for the compiled slot-frame VM: the headline
// model-checking verdicts and selection winners must hold on the shipped
// topologies, so an encoder change that shifted observable behavior
// would surface here. The encoder-level cross-check against the oracle
// encodings lives with the oracles in internal/machine. CI runs both
// files under -race -count=2.

import (
	"math/rand"
	"testing"

	simsym "simsym"
	"simsym/internal/dining"
)

// TestOracleCrosscheckVerdicts re-establishes the paper's headline model
// checker verdicts and selection winners on the slot-frame VM: DP
// deadlocks under round-robin, DP' closes deadlock- and violation-free,
// the naive S selection is unsafe, and L selection picks exactly one
// stable winner per schedule.
func TestOracleCrosscheckVerdicts(t *testing.T) {
	// DP: the symmetric five-table deadlocks under round-robin.
	dp5, err := simsym.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	forks, err := simsym.DiningProgram("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, dead, err := dining.FindDeadlockRoundRobin(dp5, forks, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dead {
		t.Error("DP: round-robin on the five-table must deadlock")
	}

	// DP': the alternating table closes with no deadlock and no
	// exclusion violation.
	dp4, err := simsym.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simsym.CheckDiningOpts(dp4, forks, simsym.WithMaxStates(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Error("DP': state space must close")
	}
	if rep.Deadlocked != nil || rep.ExclusionViolated != nil {
		t.Errorf("DP': unexpected violation %+v", rep)
	}

	// Theorem 1 strawman: the naive S selection on Figure 1 is unsafe.
	b := simsym.NewProgram()
	x, selected, mark := b.Sym("x"), b.Sym("selected"), b.Sym("mark")
	b.Read("n", "x")
	b.Compute(func(r *simsym.Regs) {
		if r.Get(x) == "0" {
			r.Set(selected, true)
			r.Set(mark, "taken")
		} else {
			r.Set(mark, "seen")
		}
	})
	b.Write("n", "mark")
	b.Halt()
	naive, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	naiveRep, err := simsym.CheckOpts(simsym.Fig1(), simsym.InstrS, naive, simsym.WithMaxStates(100_000))
	if err != nil {
		t.Fatal(err)
	}
	if naiveRep.Safe {
		t.Error("naive S selection must be flagged unsafe")
	}

	// L selection: the generated program picks exactly one winner, and
	// the winner is a deterministic function of the schedule.
	prog, dec, err := simsym.BuildSelectOpts(simsym.Fig1(), simsym.InstrL, simsym.SchedGeneral)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Solvable {
		t.Fatal("selection in L on Figure 1 must be solvable")
	}
	// The generated program is Algorithm 4 (relabel + two label-learning
	// phases) and converges under fair rounds, so schedules are built as
	// shuffled rounds: every processor once per round, order randomized.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		var schedule []int
		for round := 0; round < 400; round++ {
			if rng.Intn(2) == 0 {
				schedule = append(schedule, 0, 1)
			} else {
				schedule = append(schedule, 1, 0)
			}
		}
		var winners [2][]int
		for run := 0; run < 2; run++ {
			m, err := simsym.NewMachine(simsym.Fig1(), simsym.InstrL, prog)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range schedule {
				if err := m.Step(p); err != nil {
					t.Fatal(err)
				}
			}
			winners[run] = m.SelectedProcs()
		}
		if len(winners[0]) != 1 {
			t.Fatalf("trial %d: selected %v, want exactly one winner", trial, winners[0])
		}
		if len(winners[1]) != 1 || winners[0][0] != winners[1][0] {
			t.Fatalf("trial %d: winners diverge across identical schedules: %v vs %v", trial, winners[0], winners[1])
		}
	}
}
