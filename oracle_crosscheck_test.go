package simsym_test

// Verdict cross-checks for the compiled slot-frame VM: spill-forced
// checks must match in-memory ones field for field, and the headline
// model-checking verdicts and selection winners must hold on the shipped
// topologies, so an encoder change that shifted observable behavior
// would surface here. The encoder-level cross-check against the oracle
// encodings lives with the oracles in internal/machine. CI runs both
// files under -race -count=2.

import (
	"fmt"
	"math/rand"
	"testing"

	simsym "simsym"
	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/system"
)

// TestOracleCrosscheckShardedVerdicts drives spill-forced checks (a
// 1-byte hot-index cap, so every finalized index chunk is read back from
// disk) against in-memory ones on every topology the oracle suite
// covers: the reports must match field for field — verdict, witness
// schedule, state counts, depth, dedup counters. Programs are
// seeded-random so the comparison sweeps arbitrary verdict shapes, not
// just the curated ones. (The name dates from when this sweep also
// compared a sharded visited index; the checker now has one index.)
func TestOracleCrosscheckShardedVerdicts(t *testing.T) {
	sameCheck := func(t *testing.T, a, b *simsym.CheckReport, what string) {
		t.Helper()
		if a.Safe != b.Safe || a.Complete != b.Complete || a.Exhausted != b.Exhausted ||
			a.StatesExplored != b.StatesExplored || a.Violation != b.Violation ||
			fmt.Sprint(a.Schedule) != fmt.Sprint(b.Schedule) {
			t.Fatalf("%s: reports differ:\n%+v\n%+v", what, a, b)
		}
		if a.Stats.Transitions != b.Stats.Transitions || a.Stats.DedupHits != b.Stats.DedupHits ||
			a.Stats.SelfLoops != b.Stats.SelfLoops || a.Stats.Depth != b.Stats.Depth ||
			a.Stats.PeakFrontier != b.Stats.PeakFrontier {
			t.Fatalf("%s: stats differ:\n%+v\n%+v", what, a.Stats, b.Stats)
		}
	}
	spillOpts := func(dir string) []simsym.Option {
		return []simsym.Option{simsym.WithMaxStates(20_000), simsym.WithSpill(1, dir)}
	}

	figures := []struct {
		name  string
		sys   *system.System
		instr system.InstrSet
	}{
		{"Fig1/S", system.Fig1(), system.InstrS},
		{"Fig1/L", system.Fig1(), system.InstrL},
		{"Fig2/Q", system.Fig2(), system.InstrQ},
		{"Fig2/S", system.Fig2(), system.InstrS},
		{"Fig3/S", system.Fig3(), system.InstrS},
		{"Fig3/Q", system.Fig3(), system.InstrQ},
	}
	for i, tc := range figures {
		tc := tc
		seed := int64(300 + i)
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 3; trial++ {
				prog, err := machine.RandomProgram(rng, tc.sys.Names, tc.instr, 2+rng.Intn(9))
				if err != nil {
					t.Fatal(err)
				}
				seq, err := simsym.CheckOpts(tc.sys, tc.instr, prog, simsym.WithMaxStates(20_000))
				if err != nil {
					t.Fatal(err)
				}
				spilled, err := simsym.CheckOpts(tc.sys, tc.instr, prog, spillOpts(t.TempDir())...)
				if err != nil {
					t.Fatal(err)
				}
				sameCheck(t, seq, spilled, fmt.Sprintf("trial %d spill", trial))
			}
		})
	}

	// Dining tables: exclusion + deadlock verdicts through the dining
	// facade, same comparison.
	forks, err := dining.Program("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	dp5, err := system.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	dp6, err := system.DiningFlipped(6)
	if err != nil {
		t.Fatal(err)
	}
	oriented, err := dining.OrientedTable(5, dining.SingleFlipOrientation(5))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := dining.ChandyMisraProgram(1)
	if err != nil {
		t.Fatal(err)
	}
	tables := []struct {
		name string
		sys  *system.System
		prog *machine.Program
	}{
		{"DP5", dp5, forks},
		{"DP6-flipped", dp6, forks},
		{"Oriented5-ChandyMisra", oriented, cm},
	}
	for _, tc := range tables {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sameDining := func(a, b *simsym.DiningReport, what string) {
				t.Helper()
				if a.StatesExplored != b.StatesExplored || a.Complete != b.Complete ||
					(a.ExclusionViolated == nil) != (b.ExclusionViolated == nil) ||
					(a.Deadlocked == nil) != (b.Deadlocked == nil) {
					t.Fatalf("%s: dining reports differ:\n%+v\n%+v", what, a, b)
				}
				if fmt.Sprint(a.Deadlocked) != fmt.Sprint(b.Deadlocked) ||
					fmt.Sprint(a.ExclusionViolated) != fmt.Sprint(b.ExclusionViolated) {
					t.Fatalf("%s: witness schedules differ:\n%+v\n%+v", what, a, b)
				}
			}
			seq, err := simsym.CheckDiningOpts(tc.sys, tc.prog, simsym.WithMaxStates(20_000))
			if err != nil {
				t.Fatal(err)
			}
			spilled, err := simsym.CheckDiningOpts(tc.sys, tc.prog, spillOpts(t.TempDir())...)
			if err != nil {
				t.Fatal(err)
			}
			sameDining(seq, spilled, "spill")
		})
	}
}

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
