package autgrp

import (
	"errors"
	"math/rand"
	"testing"

	"simsym/internal/core"
	"simsym/internal/system"
)

func TestRingGroupIsCyclic(t *testing.T) {
	// The left/right naming orients the ring, so Aut = rotations only:
	// |Aut| = n, one processor orbit, one variable orbit.
	for _, n := range []int{2, 3, 5, 6, 8} {
		s, err := system.Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Compute(s)
		if err != nil {
			t.Fatal(err)
		}
		if o.GroupOrder != n {
			t.Errorf("ring %d: |Aut| = %d, want %d (rotations)", n, o.GroupOrder, n)
		}
		if got := len(o.ProcClasses()); got != 1 {
			t.Errorf("ring %d: proc orbits = %d, want 1", n, got)
		}
		if got := len(o.VarClasses()); got != 1 {
			t.Errorf("ring %d: var orbits = %d, want 1", n, got)
		}
	}
}

func TestDiningFlippedGroupIsDihedralLike(t *testing.T) {
	// Figure 5's table admits rotations by even steps (n/2 of them) and
	// reflections through variables (which swap facing/backs
	// philosophers), per the paper's section 7 discussion. All
	// philosophers form one orbit; forks form two orbits.
	s, err := system.DiningFlipped(6)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Compute(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(o.ProcClasses()); got != 1 {
		t.Errorf("phil orbits = %d, want 1 (all philosophers symmetric)", got)
	}
	if got := len(o.VarClasses()); got != 2 {
		t.Errorf("fork orbits = %d, want 2 (right-forks, left-forks)", got)
	}
	if o.GroupOrder != 6 {
		t.Errorf("|Aut| = %d, want 6 (3 even rotations x reflection)", o.GroupOrder)
	}
}

func TestDining5FullOrbit(t *testing.T) {
	s, err := system.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Compute(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.ProcClasses()) != 1 {
		t.Errorf("phil orbits = %d, want 1", len(o.ProcClasses()))
	}
	if !Theorem11Hypothesis(s, o, o.ProcOrbit[0]) {
		t.Error("Theorem 11 hypothesis should hold for Dining(5): distributed, symmetric, prime")
	}
	// Six philosophers: composite size, hypothesis must fail.
	s6, err := system.Dining(6)
	if err != nil {
		t.Fatal(err)
	}
	o6, err := Compute(s6)
	if err != nil {
		t.Fatal(err)
	}
	if Theorem11Hypothesis(s6, o6, o6.ProcOrbit[0]) {
		t.Error("Theorem 11 hypothesis should fail for Dining(6): composite orbit size")
	}
}

func TestMarkedRingIsRigid(t *testing.T) {
	s, err := system.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	s.ProcInit[2] = "leader"
	o, err := Compute(s)
	if err != nil {
		t.Fatal(err)
	}
	if o.GroupOrder != 1 {
		t.Errorf("marked ring |Aut| = %d, want 1 (identity only)", o.GroupOrder)
	}
	if got := len(o.ProcClasses()); got != 5 {
		t.Errorf("marked ring proc orbits = %d, want 5", got)
	}
}

func TestFig2Orbits(t *testing.T) {
	o, err := Compute(system.Fig2())
	if err != nil {
		t.Fatal(err)
	}
	// p1 <-> p2 swap is the only non-trivial automorphism.
	if o.GroupOrder != 2 {
		t.Errorf("|Aut| = %d, want 2", o.GroupOrder)
	}
	if !o.Symmetric(0, 1) {
		t.Error("p1 and p2 should be symmetric")
	}
	if o.Symmetric(0, 2) {
		t.Error("p1 and p3 should not be symmetric")
	}
}

func TestTheorem10OrbitsRefineSimilarity(t *testing.T) {
	// Property test over random systems: symmetric nodes are similar in
	// Q (Theorem 10), i.e. orbits refine the Q similarity labeling.
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(6),
			Vars:       1 + rng.Intn(4),
			Names:      1 + rng.Intn(2),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		// At most 6!·4! = 17,280 automorphisms, well inside DefaultLimit.
		o, err := Compute(s)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := core.Similarity(s, core.RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		if !o.RefinesSimilarity(lab) {
			t.Fatalf("trial %d: orbits do not refine similarity (Theorem 10 violated)\n%s\norbit procs %v\nsim %s",
				trial, s.Describe(), o.ProcClasses(), lab)
		}
		checked++
	}
	if checked < 40 {
		t.Errorf("too few systems checked: %d", checked)
	}
}

func TestGroupClosureAndIdentity(t *testing.T) {
	// The set of automorphisms must contain the identity and be closed
	// under composition (it is a group).
	s, err := system.DiningFlipped(6)
	if err != nil {
		t.Fatal(err)
	}
	auts, err := Automorphisms(s)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(p system.Permutation) string {
		key := ""
		for _, x := range p.ProcPerm {
			key += string(rune('a' + x))
		}
		for _, x := range p.VarPerm {
			key += string(rune('A' + x))
		}
		return key
	}
	set := make(map[string]bool, len(auts))
	for _, a := range auts {
		set[keyOf(a)] = true
	}
	id := system.Permutation{ProcPerm: identity(s.NumProcs()), VarPerm: identity(s.NumVars())}
	if !set[keyOf(id)] {
		t.Error("identity missing from automorphism set")
	}
	for _, a := range auts {
		for _, b := range auts {
			comp := system.Permutation{
				ProcPerm: make([]int, s.NumProcs()),
				VarPerm:  make([]int, s.NumVars()),
			}
			for i, x := range a.ProcPerm {
				comp.ProcPerm[i] = b.ProcPerm[x]
			}
			for i, x := range a.VarPerm {
				comp.VarPerm[i] = b.VarPerm[x]
			}
			if !set[keyOf(comp)] {
				t.Fatal("automorphism set not closed under composition")
			}
		}
	}
}

func TestLimitExceeded(t *testing.T) {
	s, err := system.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := automorphisms(s, 3); !errors.Is(err, ErrTooMany) {
		t.Errorf("limit error = %v, want ErrTooMany", err)
	}
}

func TestInvalidSystem(t *testing.T) {
	s := system.Fig1()
	s.Nbr[0][0] = 42
	if _, err := Automorphisms(s); err == nil {
		t.Error("invalid system should fail")
	}
}

func TestIsDistributed(t *testing.T) {
	dp, err := system.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	if !IsDistributed(dp) {
		t.Error("Dining(5) is distributed (no fork touched by all)")
	}
	star, err := system.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	if IsDistributed(star) {
		t.Error("Star's center is accessed by all processors: not distributed")
	}
	if IsDistributed(system.Fig1()) {
		t.Error("Fig1's v is accessed by all: not distributed")
	}
}

func BenchmarkOrbitsDining(b *testing.B) {
	s, err := system.Dining(9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(s); err != nil {
			b.Fatal(err)
		}
	}
}
