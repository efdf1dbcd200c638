package selection

import (
	"math/rand"
	"testing"

	"simsym/internal/distlabel"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/sched"
	"simsym/internal/system"
)

// TestCrossValidateQDecisionsAgainstModelChecker is the end-to-end
// soundness property: whenever the decision procedure declares a random
// system solvable in Q, the generated SELECT program must (a) satisfy
// Uniqueness and Stability under EVERY schedule (exhaustively model
// checked) and (b) actually select someone under a fair schedule.
func TestCrossValidateQDecisionsAgainstModelChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation model-checks many systems")
	}
	rng := rand.New(rand.NewSource(99))
	solvable, checked := 0, 0
	for trial := 0; trial < 60 && solvable < 12; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      2 + rng.Intn(3),
			Vars:       1 + rng.Intn(3),
			Names:      1 + rng.Intn(2),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil || !s.Connected() {
			continue
		}
		if distlabel.ValidateRuntime(s) != nil {
			continue // generated programs reject duplicate name edges
		}
		checked++
		d, err := Decide(s, system.InstrQ, system.SchedFair)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Solvable {
			continue
		}
		solvable++
		prog, _, err := Select(s, system.InstrQ, system.SchedFair)
		if err != nil {
			t.Fatalf("trial %d: Select failed on solvable system: %v\n%s", trial, err, s.Describe())
		}
		// (a) Safety over all schedules, within budget.
		res, err := mc.Check(func() (*machine.Machine, error) {
			return machine.New(s, system.InstrQ, prog)
		}, mc.Options{
			MaxStates:  60_000,
			StatePreds: []mc.StatePredicate{mc.UniquenessPred},
			TransPreds: []mc.TransitionPredicate{mc.StabilityPred},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("trial %d: SELECT unsafe: %s (schedule %v)\n%s",
				trial, res.Violation.Reason, res.Violation.Schedule, s.Describe())
		}
		// (b) Liveness under one fair schedule.
		m, err := machine.New(s, system.InstrQ, prog)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := sched.RoundRobin(s.NumProcs(), 4000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(rr); err != nil {
			t.Fatal(err)
		}
		if sel := m.SelectedProcs(); len(sel) != 1 {
			t.Fatalf("trial %d: fair run selected %v\n%s", trial, sel, s.Describe())
		}
	}
	if solvable < 5 {
		t.Errorf("too few solvable systems exercised: %d of %d", solvable, checked)
	}
}

// TestCrossValidateLDecisionsEndToEnd does the same for L: solvable
// random systems must elect exactly one processor under fair schedules
// via Algorithm 4.
func TestCrossValidateLDecisionsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	solvable, examined := 0, 0
	for trial := 0; trial < 80 && solvable < 8; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      2 + rng.Intn(2),
			Vars:       1 + rng.Intn(2),
			Names:      1 + rng.Intn(2),
			InitStates: 1,
		})
		if err != nil || !s.Connected() {
			continue
		}
		// Algorithm 4's relabel counters require zeroed variables.
		for v := range s.VarInit {
			s.VarInit[v] = "0"
		}
		if distlabel.ValidateRuntime(s) != nil {
			continue // generated programs reject duplicate name edges
		}
		examined++
		d, err := DecideL(s)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Solvable {
			continue
		}
		solvable++
		prog, _, err := Select(s, system.InstrL, system.SchedFair)
		if err != nil {
			t.Fatalf("trial %d: Select failed: %v\n%s", trial, err, s.Describe())
		}
		for seed := int64(0); seed < 3; seed++ {
			m, err := machine.New(s, system.InstrL, prog)
			if err != nil {
				t.Fatal(err)
			}
			rng2 := rand.New(rand.NewSource(seed))
			for r := 0; r < 4000 && !m.AllHalted(); r++ {
				round, err := sched.ShuffledRounds(rng2, s.NumProcs(), 1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(round); err != nil {
					t.Fatal(err)
				}
			}
			if !m.AllHalted() {
				t.Fatalf("trial %d seed %d: Algorithm 4 did not converge\n%s", trial, seed, s.Describe())
			}
			if sel := m.SelectedProcs(); len(sel) != 1 {
				t.Fatalf("trial %d seed %d: selected %v\n%s", trial, seed, sel, s.Describe())
			}
		}
	}
	if solvable < 3 {
		t.Errorf("too few solvable L systems exercised: %d of %d", solvable, examined)
	}
}

// TestUnsolvableQSystemsHaveNoTrivialEscape: on systems the procedure
// declares unsolvable, every processor shares its similarity class, so
// the class-sorted round-robin schedule (Theorem 2's adversary) will
// equate any candidate winner with a partner. We verify the structural
// fact the impossibility proof rests on.
func TestUnsolvableQSystemsHaveNoTrivialEscape(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	unsolvable := 0
	for trial := 0; trial < 60; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      2 + rng.Intn(4),
			Vars:       1 + rng.Intn(3),
			Names:      1 + rng.Intn(2),
			InitStates: 1,
		})
		if err != nil {
			continue
		}
		d, err := Decide(s, system.InstrQ, system.SchedFair)
		if err != nil {
			t.Fatal(err)
		}
		if d.Solvable {
			continue
		}
		unsolvable++
		if len(d.UniqueProcs) != 0 {
			t.Fatalf("trial %d: unsolvable verdict with unique processors %v", trial, d.UniqueProcs)
		}
	}
	if unsolvable < 10 {
		t.Errorf("too few unsolvable systems exercised: %d", unsolvable)
	}
}
