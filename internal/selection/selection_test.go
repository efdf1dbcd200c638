package selection

import (
	"errors"
	"math/rand"
	"testing"

	"simsym/internal/family"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/sched"
	"simsym/internal/system"
)

func TestDecideGeneralAlwaysImpossible(t *testing.T) {
	// Theorem 1 (the FLP special case).
	for _, instr := range []system.InstrSet{system.InstrS, system.InstrL, system.InstrQ} {
		d, err := Decide(system.Fig2(), instr, system.SchedGeneral)
		if err != nil {
			t.Fatal(err)
		}
		if d.Solvable {
			t.Errorf("%v under general schedules should be unsolvable", instr)
		}
	}
}

func TestDecideQ(t *testing.T) {
	tests := []struct {
		name string
		sys  *system.System
		want bool
	}{
		{"fig1", system.Fig1(), false},
		{"fig2", system.Fig2(), true},
		{"fig3", system.Fig3(), true},
		{"ring4", mustRing(t, 4), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := Decide(tt.sys, system.InstrQ, system.SchedFair)
			if err != nil {
				t.Fatal(err)
			}
			if d.Solvable != tt.want {
				t.Errorf("solvable = %v (%s), want %v", d.Solvable, d.Reason, tt.want)
			}
		})
	}
}

func TestDecideBoundedFairS(t *testing.T) {
	// Fig2 counts writers — sets cannot: unsolvable in S even bounded-fair.
	d, err := Decide(system.Fig2(), system.InstrS, system.SchedBoundedFair)
	if err != nil {
		t.Fatal(err)
	}
	if d.Solvable {
		t.Errorf("Fig2 in bounded-fair S should be unsolvable: %s", d.Reason)
	}
	// Fig3 separates all three processors even with set environments.
	d, err = Decide(system.Fig3(), system.InstrS, system.SchedBoundedFair)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Errorf("Fig3 in bounded-fair S should be solvable: %s", d.Reason)
	}
}

func TestDecideFairS(t *testing.T) {
	// Fig3: dissimilar processors that mimic each other — the fair/
	// bounded-fair separation.
	d, err := Decide(system.Fig3(), system.InstrS, system.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	if d.Solvable {
		t.Errorf("Fig3 in fair S should be unsolvable: %s", d.Reason)
	}
	marked := system.Fig3()
	marked.ProcInit[2] = "Z"
	d, err = Decide(marked, system.InstrS, system.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Errorf("marked Fig3 in fair S should be solvable: %s", d.Reason)
	}
}

func TestDecideL(t *testing.T) {
	tests := []struct {
		name string
		sys  *system.System
		want bool
	}{
		{"fig1 same-name sharers", system.Fig1(), true},
		{"fig2", system.Fig2(), true},
		{"ring4 different-name sharers", mustRing(t, 4), false},
		{"dining5 (DP impossibility)", mustDining(t, 5), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := Decide(tt.sys, system.InstrL, system.SchedFair)
			if err != nil {
				t.Fatal(err)
			}
			if d.Solvable != tt.want {
				t.Errorf("solvable = %v (%s), want %v", d.Solvable, d.Reason, tt.want)
			}
			if tt.want && len(d.Elite) == 0 {
				t.Error("solvable L decision should carry ELITE")
			}
		})
	}
}

func TestHierarchyWitnesses(t *testing.T) {
	// The section 9 strict hierarchy L ⊃ Q ⊃ bounded-fair S ⊃ fair S,
	// each separation shown by a witness system.
	type verdictOf func(t *testing.T, s *system.System) bool
	inL := func(t *testing.T, s *system.System) bool {
		d, err := Decide(s, system.InstrL, system.SchedFair)
		if err != nil {
			t.Fatal(err)
		}
		return d.Solvable
	}
	inQ := func(t *testing.T, s *system.System) bool {
		d, err := Decide(s, system.InstrQ, system.SchedFair)
		if err != nil {
			t.Fatal(err)
		}
		return d.Solvable
	}
	inBFS := func(t *testing.T, s *system.System) bool {
		d, err := Decide(s, system.InstrS, system.SchedBoundedFair)
		if err != nil {
			t.Fatal(err)
		}
		return d.Solvable
	}
	inFS := func(t *testing.T, s *system.System) bool {
		d, err := Decide(s, system.InstrS, system.SchedFair)
		if err != nil {
			t.Fatal(err)
		}
		return d.Solvable
	}
	tests := []struct {
		name     string
		sys      *system.System
		yes, no  verdictOf
		yesModel string
	}{
		{"L beats Q (Fig1)", system.LOverQWitness(), inL, inQ, "L"},
		{"Q beats BF-S (Fig2)", system.QOverSWitness(), inQ, inBFS, "Q"},
		{"BF-S beats F-S (Fig3)", system.Fig3(), inBFS, inFS, "BF-S"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.yes(t, tt.sys) {
				t.Errorf("witness should be solvable in the stronger model (%s)", tt.yesModel)
			}
			if tt.no(t, tt.sys) {
				t.Error("witness should be unsolvable in the weaker model")
			}
		})
	}
}

func TestBuildElite(t *testing.T) {
	// Two versions, mirrored labels (the Fig1-in-L shape).
	versions := [][]int{{0, 1}, {1, 0}}
	elite, err := BuildElite(versions)
	if err != nil {
		t.Fatal(err)
	}
	if len(elite) != 1 {
		t.Errorf("elite = %v, want a single label", elite)
	}
	// A version with no unique label fails.
	if _, err := BuildElite([][]int{{0, 0}}); !errors.Is(err, ErrNotSolvable) {
		t.Errorf("err = %v, want ErrNotSolvable", err)
	}
}

func TestSelectQFig2EndToEnd(t *testing.T) {
	prog, d, err := Select(system.Fig2(), system.InstrQ, system.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Fatalf("decision: %s", d.Reason)
	}
	for seed := int64(0); seed < 10; seed++ {
		m, err := machine.New(system.Fig2(), system.InstrQ, prog)
		if err != nil {
			t.Fatal(err)
		}
		runFair(t, m, seed, 500)
		sel := m.SelectedProcs()
		if len(sel) != 1 || sel[0] != 2 {
			t.Errorf("seed %d: selected %v, want [2]", seed, sel)
		}
	}
}

func TestSelectLFig1EndToEnd(t *testing.T) {
	// Algorithm 4 in full: relabel by lock race, learn family labels via
	// the two-phase algorithm with lock-simulated posts, elect the ELITE
	// holder. Any of the two processors may win, but exactly one must.
	prog, d, err := Select(system.Fig1(), system.InstrL, system.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Fatalf("decision: %s", d.Reason)
	}
	winners := make(map[int]int)
	for seed := int64(0); seed < 20; seed++ {
		m, err := machine.New(system.Fig1(), system.InstrL, prog)
		if err != nil {
			t.Fatal(err)
		}
		runFair(t, m, seed, 2000)
		sel := m.SelectedProcs()
		if len(sel) != 1 {
			t.Fatalf("seed %d: selected %v, want exactly one", seed, sel)
		}
		winners[sel[0]]++
	}
	if len(winners) < 2 {
		t.Logf("note: only one distinct winner over seeds: %v", winners)
	}
}

func TestSelectLFig1ModelChecked(t *testing.T) {
	// Exhaustive safety: under EVERY schedule, Algorithm 4 on Fig1 never
	// selects two processors and never unselects one.
	if testing.Short() {
		t.Skip("model checking is slow")
	}
	prog, _, err := Select(system.Fig1(), system.InstrL, system.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Check(func() (*machine.Machine, error) {
		return machine.New(system.Fig1(), system.InstrL, prog)
	}, mc.Options{
		MaxStates:  500_000,
		StatePreds: []mc.StatePredicate{mc.UniquenessPred},
		TransPreds: []mc.TransitionPredicate{mc.StabilityPred},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("Algorithm 4 violated safety: %s (schedule %v)", res.Violation.Reason, res.Violation.Schedule)
	}
	if !res.Complete || res.StatesExplored != 140_781 {
		t.Fatalf("explored %d states (complete=%v, %q budget spent); want the closed space of 140,781",
			res.StatesExplored, res.Complete, res.Exhausted)
	}
}

func TestSelectLFig2EndToEnd(t *testing.T) {
	// Fig2 in L: v3's three same-name sharers rank themselves 0/1/2;
	// every outcome labels all processors uniquely.
	prog, d, err := Select(system.Fig2(), system.InstrL, system.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Fatalf("decision: %s", d.Reason)
	}
	for seed := int64(0); seed < 6; seed++ {
		m, err := machine.New(system.Fig2(), system.InstrL, prog)
		if err != nil {
			t.Fatal(err)
		}
		runFair(t, m, seed, 4000)
		sel := m.SelectedProcs()
		if len(sel) != 1 {
			t.Errorf("seed %d: selected %v, want exactly one", seed, sel)
		}
	}
}

func TestSelectSBoundedFairFig3EndToEnd(t *testing.T) {
	// Algorithm 2-S as a selection algorithm: the program never halts
	// (resolved processors keep refreshing), so run fixed rounds and
	// check the stable outcome.
	prog, d, err := Select(system.Fig3(), system.InstrS, system.SchedBoundedFair)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable || len(d.Elite) != 1 {
		t.Fatalf("decision: %+v", d)
	}
	for seed := int64(0); seed < 6; seed++ {
		m, err := machine.New(system.Fig3(), system.InstrS, prog)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < 2000; r++ {
			round, err := sched.ShuffledRounds(rng, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(round); err != nil {
				t.Fatal(err)
			}
			if sel := m.SelectedProcs(); len(sel) > 1 {
				t.Fatalf("seed %d round %d: multiple selected %v", seed, r, sel)
			}
		}
		if sel := m.SelectedProcs(); len(sel) != 1 {
			t.Errorf("seed %d: selected %v, want exactly one", seed, sel)
		}
	}
}

func TestSelectUnsolvableReturnsError(t *testing.T) {
	if _, _, err := Select(system.Fig1(), system.InstrQ, system.SchedFair); !errors.Is(err, ErrNotSolvable) {
		t.Errorf("err = %v, want ErrNotSolvable", err)
	}
	ring := mustRing(t, 3)
	if _, _, err := Select(ring, system.InstrL, system.SchedFair); !errors.Is(err, ErrNotSolvable) {
		t.Errorf("err = %v, want ErrNotSolvable", err)
	}
}

func TestDecideLOutcomeLimit(t *testing.T) {
	big := mustRing(t, 16) // 2^16 outcomes, past family.DefaultOutcomeLimit
	if _, err := DecideL(big); !errors.Is(err, family.ErrTooManyOutcomes) {
		t.Errorf("err = %v, want ErrTooManyOutcomes", err)
	}
}

func TestUnsupportedModel(t *testing.T) {
	if _, err := Decide(system.Fig1(), system.InstrExtL, system.SchedFair); !errors.Is(err, ErrUnsupportedModel) {
		t.Errorf("err = %v, want ErrUnsupportedModel", err)
	}
	if _, _, err := Select(system.Fig3(), system.InstrS, system.SchedFair); !errors.Is(err, ErrUnsupportedModel) {
		t.Errorf("Select S/fair err = %v, want ErrUnsupportedModel", err)
	}
	if _, _, err := Select(system.Fig1(), system.InstrExtL, system.SchedFair); !errors.Is(err, ErrUnsupportedModel) {
		t.Errorf("Select ExtL err = %v, want ErrUnsupportedModel", err)
	}
}

func runFair(t *testing.T, m *machine.Machine, seed int64, maxRounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := m.System().NumProcs()
	for r := 0; r < maxRounds; r++ {
		if m.AllHalted() {
			return
		}
		round, err := sched.ShuffledRounds(rng, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(round); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("machine did not halt in %d rounds", maxRounds)
}

func mustRing(t *testing.T, n int) *system.System {
	t.Helper()
	s, err := system.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustDining(t *testing.T, n int) *system.System {
	t.Helper()
	s, err := system.Dining(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
