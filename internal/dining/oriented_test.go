package dining

import (
	"errors"
	"math/rand"
	"testing"

	"simsym/internal/core"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/sched"
	"simsym/internal/system"
)

func TestOrientedTableValidation(t *testing.T) {
	if _, err := OrientedTable(5, make([]bool, 3)); !errors.Is(err, ErrBadOrientation) {
		t.Errorf("size mismatch err = %v", err)
	}
	allCW := make([]bool, 5) // all false: every fork the same way
	if _, err := OrientedTable(5, allCW); !errors.Is(err, ErrBadOrientation) {
		t.Errorf("cyclic err = %v", err)
	}
	if _, err := OrientedTable(5, SingleFlipOrientation(5)); err != nil {
		t.Errorf("single flip should be valid: %v", err)
	}
	if _, err := OrientedTable(6, AlternatingOrientation(6)); err != nil {
		t.Errorf("alternating should be valid: %v", err)
	}
}

func TestOrientationBreaksNeighborSimilarity(t *testing.T) {
	// Section 8's point: the asymmetric initial state makes neighbors
	// dissimilar even though processors stay anonymous and the program
	// uniform. With the single-flip orientation the similarity labeling
	// must give adjacent philosophers different labels.
	s, err := OrientedTable(5, SingleFlipOrientation(5))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := Adjacency(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		if lab.SameClass(pr[0], pr[1]) {
			t.Errorf("adjacent philosophers %d,%d similar despite orientation\n%s", pr[0], pr[1], lab)
		}
	}
}

func TestChandyMisraFiveTableSafety(t *testing.T) {
	// The paper's DP says the SYMMETRIC five-table is unsolvable; with
	// the orientation encapsulated in the initial state, the uniform
	// Chandy–Misra program must pass exclusion and deadlock-freedom.
	// Exhaustive for 1 meal on the 3-table; bounded on the 5-table.
	for _, tc := range []struct {
		n         int
		maxStates int
	}{
		{3, 150_000},
		{5, 80_000},
	} {
		s, err := OrientedTable(tc.n, SingleFlipOrientation(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ChandyMisraProgram(1)
		if err != nil {
			t.Fatal(err)
		}
		exclusion, err := ExclusionPred(s, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.Check(func() (*machine.Machine, error) {
			return machine.New(s, system.InstrL, prog)
		}, mc.Options{
			MaxStates:  tc.maxStates,
			StatePreds: []mc.StatePredicate{exclusion},
			StuckBad: func(m *machine.Machine) string {
				for p := 0; p < tc.n; p++ {
					v, _ := m.Local(p, "meals")
					if ml, ok := v.(int); !ok || ml < 1 {
						return "a philosopher can never finish its meal"
					}
				}
				return ""
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("n=%d: %s (schedule %v)", tc.n, res.Violation.Reason, res.Violation.Schedule)
		}
		t.Logf("n=%d: no violation in %d states (complete=%v)", tc.n, res.StatesExplored, res.Complete)
	}
}

func TestChandyMisraProgress(t *testing.T) {
	// Everyone eats, repeatedly, under shuffled fair schedules — the
	// lockout-freedom CM84 is famous for, on the very table size DP
	// forbids for symmetric initial states.
	const n, meals = 5, 4
	s, err := OrientedTable(n, SingleFlipOrientation(n))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ChandyMisraProgram(meals)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		m, err := machine.New(s, system.InstrL, prog)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		done := func() bool {
			for p := 0; p < n; p++ {
				v, _ := m.Local(p, "meals")
				if ml, ok := v.(int); !ok || ml < meals {
					return false
				}
			}
			return true
		}
		rounds := 0
		for ; rounds < 20_000 && !done(); rounds++ {
			round, err := sched.ShuffledRounds(rng, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(round); err != nil {
				t.Fatal(err)
			}
		}
		if !done() {
			for p := 0; p < n; p++ {
				v, _ := m.Local(p, "meals")
				t.Logf("phil %d meals=%v", p, v)
			}
			t.Fatalf("seed %d: not everyone ate %d meals in %d rounds", seed, meals, rounds)
		}
	}
}

func TestChandyMisraRoundRobinProgress(t *testing.T) {
	// Round-robin is the schedule that kills the naive program on the
	// symmetric table (everyone grabs in lock step); with encapsulated
	// asymmetry it must make progress.
	const n, meals = 5, 3
	s, err := OrientedTable(n, AlternatingOrientation(n))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ChandyMisraProgram(meals)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(s, system.InstrL, prog)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sched.RoundRobin(n, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(rr); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		v, _ := m.Local(p, "meals")
		if ml, ok := v.(int); !ok || ml < meals {
			t.Errorf("phil %d ate %v meals, want %d", p, v, meals)
		}
	}
}

func TestChandyMisraExclusionLongRun(t *testing.T) {
	// Long random run with the exclusion predicate checked every step.
	const n = 7
	s, err := OrientedTable(n, SingleFlipOrientation(n))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ChandyMisraProgram(100)
	if err != nil {
		t.Fatal(err)
	}
	exclusion, err := ExclusionPred(s, prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(s, system.InstrL, prog)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for step := 0; step < 100_000; step++ {
		if err := m.Step(rng.Intn(n)); err != nil {
			t.Fatal(err)
		}
		if v := exclusion(m); v != "" {
			t.Fatalf("step %d: %s", step, v)
		}
	}
}

// AlternatingOrientation flips direction on every fork (acyclic for all
// even n; for odd n one adjacent pair shares direction, still acyclic).
func AlternatingOrientation(n int) []bool {
	out := make([]bool, n)
	for f := range out {
		out[f] = f%2 == 0
	}
	return out
}
