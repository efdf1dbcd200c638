package mimic

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"simsym/internal/core"
	"simsym/internal/system"
)

func TestFig3MimicStructure(t *testing.T) {
	// Figure 3's point: p and q are dissimilar in the full system (the
	// bounded-fair labeling separates all three processors), yet p and q
	// mimic each other via the subsystem without z — so neither can ever
	// learn its label under merely-fair schedules.
	s := system.Fig3()
	rel, err := Compute(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Mimics(0, 1) {
		t.Error("p should mimic q via the {p,q} subsystem")
	}
	if w := rel.WitnessSubset[0][1]; len(w) == 0 {
		t.Error("mimic pair should carry a witness subset")
	}
	// z also mimics q: drop p and the {q,z} subsystem makes them
	// symmetric (q: a->w, b->t; z: a->w, b->u — u and t both become
	// single-writer b-variables).
	if !rel.Mimics(1, 2) {
		t.Error("z should mimic q via the {q,z} subsystem")
	}
	// Every processor mimics someone: no selection for fair S on Fig3.
	if free := rel.MimicsNobody(); len(free) != 0 {
		t.Errorf("MimicsNobody = %v, want none (Fig3 is the BF-S/F-S separator)", free)
	}
}

func TestMarkedProcessorMimicsNobody(t *testing.T) {
	// A processor with a unique initial state can never be similar to
	// anyone in any subsystem: it mimics nobody, so fair-S selection
	// exists (it selects itself).
	s := system.Fig3()
	s.ProcInit[2] = "Z" // mark z
	rel, err := Compute(s)
	if err != nil {
		t.Fatal(err)
	}
	free := rel.MimicsNobody()
	if len(free) != 1 || free[0] != 2 {
		t.Errorf("MimicsNobody = %v, want [2]", free)
	}
	// p and q still mimic each other.
	if !rel.Mimics(0, 1) {
		t.Error("p and q should still mimic each other")
	}
}

func TestFig1EverybodyMimics(t *testing.T) {
	rel, err := Compute(system.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Mimics(0, 1) {
		t.Error("similar processors must mimic each other (Σ' = Σ)")
	}
	if free := rel.MimicsNobody(); len(free) != 0 {
		t.Errorf("MimicsNobody = %v, want none", free)
	}
}

func TestSimilarImpliesMimicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      2 + rng.Intn(5),
			Vars:       1 + rng.Intn(4),
			Names:      1 + rng.Intn(2),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		rel, err := Compute(s)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := SimilarImpliesMimic(s, rel)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: similarity not contained in mimicry\n%s", trial, s.Describe())
		}
		checked++
	}
	if checked < 20 {
		t.Errorf("only %d cases checked", checked)
	}
}

func TestMimicryIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 30; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      2 + rng.Intn(5),
			Vars:       1 + rng.Intn(3),
			Names:      1 + rng.Intn(2),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		rel, err := Compute(s)
		if err != nil {
			t.Fatal(err)
		}
		for x := range rel.Pairs {
			for y := range rel.Pairs[x] {
				if rel.Pairs[x][y] != rel.Pairs[y][x] {
					t.Fatalf("trial %d: asymmetric mimicry %d,%d", trial, x, y)
				}
			}
		}
	}
}

func TestTooLarge(t *testing.T) {
	big, err := system.Ring(MaxProcs + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestInvalidSystem(t *testing.T) {
	s := system.Fig1()
	s.Nbr[0][0] = 9
	if _, err := Compute(s); err == nil {
		t.Error("invalid system should fail")
	}
}

// SimilarImpliesMimic verifies the sanity property that full-system
// similarity (the Σ' = Σ case) is contained in mimicry.
func SimilarImpliesMimic(sys *system.System, rel *Relation) (bool, error) {
	lab, err := core.Similarity(sys, core.RuleSetS)
	if err != nil {
		return false, fmt.Errorf("mimic: %w", err)
	}
	for x := range lab.ProcLabels {
		for y := range lab.ProcLabels {
			if x != y && lab.ProcLabels[x] == lab.ProcLabels[y] && !rel.Pairs[x][y] {
				return false, nil
			}
		}
	}
	return true, nil
}
