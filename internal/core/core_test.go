package core

import (
	"errors"
	"math/rand"
	"testing"

	"simsym/internal/obs"
	"simsym/internal/system"
)

func mustRing(t *testing.T, n int) *system.System {
	t.Helper()
	s, err := system.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig1AllSimilar(t *testing.T) {
	for _, rule := range []Rule{RuleQ, RuleSetS} {
		lab, err := Similarity(system.Fig1(), rule)
		if err != nil {
			t.Fatal(err)
		}
		if lab.NumProcClasses() != 1 {
			t.Errorf("rule %s: Fig1 proc classes = %d, want 1", rule, lab.NumProcClasses())
		}
		if !lab.EveryProcPaired() {
			t.Errorf("rule %s: Fig1 should have every processor paired", rule)
		}
		if got := lab.UniqueProcs(); len(got) != 0 {
			t.Errorf("rule %s: Fig1 unique procs = %v, want none", rule, got)
		}
	}
}

func TestFig2ClassesUnderQ(t *testing.T) {
	lab, err := Similarity(system.Fig2(), RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: p1 ~ p2, p3 alone (two equivalence classes).
	if !lab.SameClass(0, 1) {
		t.Error("p1 and p2 should be similar")
	}
	if lab.SameClass(0, 2) || lab.SameClass(1, 2) {
		t.Error("p3 should be dissimilar to p1, p2")
	}
	if got := lab.UniqueProcs(); len(got) != 1 || got[0] != 2 {
		t.Errorf("unique procs = %v, want [2]", got)
	}
	// All three variables are pairwise dissimilar (1, 1, 3 neighbors
	// with distinct name/count structure).
	if lab.NumVarClasses() != 3 {
		t.Errorf("var classes = %d, want 3\n%s", lab.NumVarClasses(), lab)
	}
}

func TestFig2AllSimilarUnderSetS(t *testing.T) {
	// Counting is what separates p3; set-based environments cannot.
	lab, err := Similarity(system.Fig2(), RuleSetS)
	if err != nil {
		t.Fatal(err)
	}
	if lab.NumProcClasses() != 1 {
		t.Errorf("Fig2 under setS: proc classes = %d, want 1\n%s", lab.NumProcClasses(), lab)
	}
	if !lab.EveryProcPaired() {
		t.Error("Fig2 under setS should have all processors paired")
	}
}

func TestFig3AllDistinct(t *testing.T) {
	for _, rule := range []Rule{RuleQ, RuleSetS} {
		lab, err := Similarity(system.Fig3(), rule)
		if err != nil {
			t.Fatal(err)
		}
		if lab.NumProcClasses() != 3 {
			t.Errorf("rule %s: Fig3 proc classes = %d, want 3\n%s", rule, lab.NumProcClasses(), lab)
		}
	}
}

func TestRingAllSimilar(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13} {
		lab, err := Similarity(mustRing(t, n), RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		if lab.NumProcClasses() != 1 || lab.NumVarClasses() != 1 {
			t.Errorf("ring %d: classes = (%d,%d), want (1,1)", n, lab.NumProcClasses(), lab.NumVarClasses())
		}
	}
}

func TestMarkedRingFullySeparates(t *testing.T) {
	// One distinguished initial state breaks the ring's symmetry
	// entirely: refinement propagates distance-from-mark around the ring.
	s := mustRing(t, 7)
	s.ProcInit[3] = "leader"
	lab, err := Similarity(s, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	if lab.NumProcClasses() != 7 {
		t.Errorf("marked ring classes = %d, want 7\n%s", lab.NumProcClasses(), lab)
	}
	if got := lab.UniqueProcs(); len(got) != 7 {
		t.Errorf("unique procs = %v, want all", got)
	}
}

func TestMarkedEvenRingFullySeparates(t *testing.T) {
	// The left/right naming orients the ring (a reflection would swap
	// the names), so even on an even-size ring the mirror pairs around
	// the mark are NOT similar: a marked named ring separates fully.
	s := mustRing(t, 6)
	s.ProcInit[0] = "leader"
	lab, err := Similarity(s, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.NumProcClasses(); got != 6 {
		t.Errorf("classes = %d, want 6 (oriented ring separates fully)\n%s", got, lab)
	}
	if lab.SameClass(1, 5) {
		t.Errorf("p1 and p5 differ by orientation (left vs right of mark)\n%s", lab)
	}
}

func TestDiningFlippedAllPhilsSimilarInQ(t *testing.T) {
	// Theorem 10 sanity: all six philosophers of Figure 5 are graph-
	// symmetric, hence similar in Q; forks split into right-forks and
	// left-forks.
	s, err := system.DiningFlipped(6)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := Similarity(s, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	if lab.NumProcClasses() != 1 {
		t.Errorf("DP'6 proc classes = %d, want 1\n%s", lab.NumProcClasses(), lab)
	}
	if lab.NumVarClasses() != 2 {
		t.Errorf("DP'6 fork classes = %d, want 2 (right-forks, left-forks)\n%s", lab.NumVarClasses(), lab)
	}
}

func TestWorklistMatchesNaiveOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(8),
			Vars:       1 + rng.Intn(6),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(3),
		})
		if err != nil {
			continue
		}
		for _, rule := range []Rule{RuleQ, RuleSetS} {
			a, err := Similarity(s, rule)
			if err != nil {
				t.Fatal(err)
			}
			b, err := SimilarityNaive(s, rule)
			if err != nil {
				t.Fatal(err)
			}
			for p := range a.ProcLabels {
				for q := range a.ProcLabels {
					if (a.ProcLabels[p] == a.ProcLabels[q]) != (b.ProcLabels[p] == b.ProcLabels[q]) {
						t.Fatalf("trial %d rule %s: drivers disagree on procs %d,%d\n%s\n%s\n%s",
							trial, rule, p, q, s.Describe(), a, b)
					}
				}
			}
			for v := range a.VarLabels {
				for w := range a.VarLabels {
					if (a.VarLabels[v] == a.VarLabels[w]) != (b.VarLabels[v] == b.VarLabels[w]) {
						t.Fatalf("trial %d rule %s: drivers disagree on vars %d,%d", trial, rule, v, w)
					}
				}
			}
		}
	}
}

func TestSimilarityIsStable(t *testing.T) {
	// The fixpoint must satisfy its own environment rule (Theorem 4's
	// hypothesis): same label implies same environment.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(7),
			Vars:       1 + rng.Intn(5),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		for _, rule := range []Rule{RuleQ, RuleSetS} {
			lab, err := Similarity(s, rule)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := IsStable(s, rule, lab)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d rule %s: fixpoint unstable\n%s\n%s", trial, rule, s.Describe(), lab)
			}
		}
	}
}

func TestSetSIsCoarserThanQ(t *testing.T) {
	// Set environments forget counts, so the setS labeling is always a
	// coarsening of the Q labeling (same-label-in-Q implies
	// same-label-in-setS). This is the model-power comparison of
	// section 9 at the labeling level.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(7),
			Vars:       1 + rng.Intn(5),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		q, err := Similarity(s, RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := Similarity(s, RuleSetS)
		if err != nil {
			t.Fatal(err)
		}
		for p := range q.ProcLabels {
			for r := range q.ProcLabels {
				if q.ProcLabels[p] == q.ProcLabels[r] && ss.ProcLabels[p] != ss.ProcLabels[r] {
					t.Fatalf("trial %d: procs %d,%d similar in Q but not setS\n%s", trial, p, r, s.Describe())
				}
			}
		}
	}
}

func TestIsomorphicSystemsGetIsomorphicLabelings(t *testing.T) {
	// Metamorphic property: relabeling nodes by a permutation must
	// permute the similarity classes accordingly.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      2 + rng.Intn(6),
			Vars:       1 + rng.Intn(5),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		perm := system.Permutation{
			ProcPerm: rng.Perm(s.NumProcs()),
			VarPerm:  rng.Perm(s.NumVars()),
		}
		img, err := system.Apply(s, perm)
		if err != nil {
			t.Fatal(err)
		}
		labS, err := Similarity(s, RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		labI, err := Similarity(img, RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		for p := range labS.ProcLabels {
			for q := range labS.ProcLabels {
				same1 := labS.ProcLabels[p] == labS.ProcLabels[q]
				same2 := labI.ProcLabels[perm.ProcPerm[p]] == labI.ProcLabels[perm.ProcPerm[q]]
				if same1 != same2 {
					t.Fatalf("trial %d: permutation broke similarity of procs %d,%d", trial, p, q)
				}
			}
		}
	}
}

func TestIsStableDetectsInstability(t *testing.T) {
	s := system.Fig2()
	lab := &Labeling{
		Sys:        s,
		ProcLabels: []int{0, 0, 0}, // merges p3 with p1,p2: unstable under Q
		VarLabels:  []int{0, 1, 2},
	}
	ok, err := IsStable(s, RuleQ, lab)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("merging p3 into {p1,p2} should be unstable under Q")
	}
	// But it IS stable under setS (with the right variable merge).
	lab2 := &Labeling{
		Sys:        s,
		ProcLabels: []int{0, 0, 0},
		VarLabels:  []int{0, 0, 1}, // v1 ~ v2, v3 alone
	}
	ok, err = IsStable(s, RuleSetS, lab2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("the all-processors labeling should be stable under setS")
	}
}

func TestTrivialSupersimilarityLabeling(t *testing.T) {
	// "A labeling that assigns a unique label to each node is a trivial
	// supersimilarity labeling" — unique labels are vacuously stable.
	s := system.Fig2()
	lab := &Labeling{
		Sys:        s,
		ProcLabels: []int{0, 1, 2},
		VarLabels:  []int{0, 1, 2},
	}
	ok, err := IsStable(s, RuleQ, lab)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("discrete labeling must be stable")
	}
}

func TestNoSameNameSharers(t *testing.T) {
	// Figure 1: p and q call v by the same name and share a label under
	// the Q similarity labeling — the Theorem 8 condition fails, so that
	// labeling is NOT a supersimilarity labeling for L.
	s := system.Fig1()
	lab, err := Similarity(s, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := NoSameNameSharers(s, lab)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Fig1 Q-labeling should violate the Theorem 8 condition")
	}
	okL, err := IsSupersimilarityForL(s, lab)
	if err != nil {
		t.Fatal(err)
	}
	if okL {
		t.Error("Fig1 Q-labeling should not be L-supersimilarity")
	}
	// Dining(5): adjacent philosophers share forks under DIFFERENT
	// names, so the all-similar labeling does satisfy Theorem 8 —
	// exactly why DP is impossible (Theorem 11).
	dp, err := system.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	labDP, err := Similarity(dp, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	okDP, err := IsSupersimilarityForL(dp, labDP)
	if err != nil {
		t.Fatal(err)
	}
	if !okDP {
		t.Error("Dining(5) all-similar labeling should be L-supersimilarity (Theorem 11)")
	}
}

func TestNoSharersAtAllExtendedLocking(t *testing.T) {
	// Extended locking: similar processors may not share ANY variable.
	// Dining(5)'s all-similar labeling has similar fork-sharers, so it
	// fails the extended-locking condition even though it passes
	// Theorem 8 — extended locking is strictly more symmetry-breaking.
	dp, err := system.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := Similarity(dp, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := NoSharersAtAll(dp, lab)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Dining(5) all-similar labeling should fail the extended-locking condition")
	}
	// A fully discrete labeling passes trivially.
	discrete := &Labeling{
		Sys:        dp,
		ProcLabels: []int{0, 1, 2, 3, 4},
		VarLabels:  []int{0, 1, 2, 3, 4},
	}
	ok, err = NoSharersAtAll(dp, discrete)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("discrete labeling should pass the extended-locking condition")
	}
}

func TestErrorPaths(t *testing.T) {
	s := system.Fig1()
	if _, err := Similarity(s, Rule(99)); !errors.Is(err, ErrBadRule) {
		t.Errorf("bad rule error = %v", err)
	}
	bad := s.Clone()
	bad.Nbr[0][0] = 99
	if _, err := Similarity(bad, RuleQ); !errors.Is(err, ErrSystemShape) {
		t.Errorf("bad system error = %v", err)
	}
	lab := &Labeling{Sys: s, ProcLabels: []int{0}, VarLabels: []int{0}}
	if _, err := IsStable(s, RuleQ, lab); !errors.Is(err, ErrLabelingSize) {
		t.Errorf("labeling size error = %v", err)
	}
}

func TestLabelingStringMentionsIDs(t *testing.T) {
	lab, err := Similarity(system.Fig2(), RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	str := lab.String()
	for _, want := range []string{"p1", "p3", "v3"} {
		if !contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestSubsimilarityDefinitions(t *testing.T) {
	// Section 3's bracket: the trivial all-same labeling is always
	// subsimilar (never splits a similar pair); the discrete labeling is
	// always supersimilar (stable); Θ itself is both.
	s := system.Fig2()
	trivial := &Labeling{
		Sys:        s,
		ProcLabels: []int{0, 0, 0},
		VarLabels:  []int{0, 0, 0},
	}
	sub, err := IsSubsimilarity(s, RuleQ, trivial)
	if err != nil {
		t.Fatal(err)
	}
	if !sub {
		t.Error("trivial labeling must be subsimilar")
	}
	isTheta, err := IsSimilarityLabeling(s, RuleQ, trivial)
	if err != nil {
		t.Fatal(err)
	}
	if isTheta {
		t.Error("trivial labeling is not stable on Fig2, so not Θ")
	}

	discrete := &Labeling{
		Sys:        s,
		ProcLabels: []int{0, 1, 2},
		VarLabels:  []int{0, 1, 2},
	}
	sub, err = IsSubsimilarity(s, RuleQ, discrete)
	if err != nil {
		t.Fatal(err)
	}
	if sub {
		t.Error("discrete labeling splits the similar pair p1,p2: not subsimilar")
	}

	theta, err := Similarity(s, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	isTheta, err = IsSimilarityLabeling(s, RuleQ, theta)
	if err != nil {
		t.Fatal(err)
	}
	if !isTheta {
		t.Error("Θ must be both super- and subsimilar")
	}
}

func TestSimilarityLabelingUniqueness(t *testing.T) {
	// Property: on random systems, any labeling that passes
	// IsSimilarityLabeling induces exactly Θ's equivalence classes
	// ("unique up to isomorphism", section 3).
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 40; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(5),
			Vars:       1 + rng.Intn(4),
			Names:      1 + rng.Intn(2),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		theta, err := Similarity(s, RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		// Renamed copy of Θ must pass; any proper coarsening or
		// refinement must fail one side.
		renamed := &Labeling{
			Sys:        s,
			ProcLabels: make([]int, len(theta.ProcLabels)),
			VarLabels:  make([]int, len(theta.VarLabels)),
		}
		for i, l := range theta.ProcLabels {
			renamed.ProcLabels[i] = l*7 + 3
		}
		for i, l := range theta.VarLabels {
			renamed.VarLabels[i] = l*7 + 3
		}
		ok, err := IsSimilarityLabeling(s, RuleQ, renamed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: renamed Θ rejected", trial)
		}
	}
}

func TestRuleStringer(t *testing.T) {
	if RuleQ.String() != "Q" || RuleSetS.String() != "setS" {
		t.Errorf("rule stringers: %s %s", RuleQ, RuleSetS)
	}
	if Rule(42).String() == "" {
		t.Error("unknown rule should still render")
	}
}

func TestWorklistDriverMatchesHopcroft(t *testing.T) {
	// The ablation driver must agree with the production driver.
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 60; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(7),
			Vars:       1 + rng.Intn(5),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		a, err := Similarity(s, RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SimilarityWorklist(s, RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		for p := range a.ProcLabels {
			for q := range a.ProcLabels {
				if (a.ProcLabels[p] == a.ProcLabels[q]) != (b.ProcLabels[p] == b.ProcLabels[q]) {
					t.Fatalf("trial %d: hopcroft and worklist disagree on procs %d,%d\n%s",
						trial, p, q, s.Describe())
				}
			}
		}
	}
}

// TestSimilarityWithSetRuleRounds checks that the set rule's
// refine_round events meet the partition.RoundHook contract: rounds run
// 1..R without gaps, the last event reports the final class count, the
// splits sum to the final count minus the initial one, and
// core.refine_rounds counts R.
func TestSimilarityWithSetRuleRounds(t *testing.T) {
	marked := mustRing(t, 12)
	marked.ProcInit[0] = "leader"
	for _, sys := range []*system.System{system.Fig1(), system.Fig2(), system.QOverSWitness(), marked} {
		ring := obs.NewRing(1024)
		rec := obs.New(ring)
		lab, err := SimilarityWith(sys, RuleSetS, Config{Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		inits := make(map[string]bool)
		for _, s := range sys.ProcInit {
			inits["P"+s] = true
		}
		for _, s := range sys.VarInit {
			inits["V"+s] = true
		}
		final := int64(lab.NumProcClasses() + lab.NumVarClasses())
		var rounds, splits int64
		last := int64(len(inits))
		for _, e := range ring.Events() {
			if e.Kind != obs.KindRefineRound {
				continue
			}
			rounds++
			if e.Name != "worklist" || e.A != rounds {
				t.Fatalf("event %d: driver %q round %d", rounds, e.Name, e.A)
			}
			last = e.B
			splits += e.C
		}
		if rounds == 0 || last != final || splits != final-int64(len(inits)) {
			t.Fatalf("%d rounds, last reports %d classes, splits %d; want %d classes from %d", rounds, last, splits, final, len(inits))
		}
		if got := rec.Metrics().Counter("core.refine_rounds").Value(); got != rounds {
			t.Fatalf("core.refine_rounds = %d, want %d", got, rounds)
		}
	}
}

// IsSimilarityLabeling reports whether lab IS the similarity labeling:
// both a supersimilarity labeling (stable) and a subsimilarity labeling
// (coarser than or equal to Θ) — which pins it to Θ up to renaming.
func IsSimilarityLabeling(sys *system.System, rule Rule, lab *Labeling) (bool, error) {
	super, err := IsStable(sys, rule, lab)
	if err != nil {
		return false, err
	}
	if !super {
		return false, nil
	}
	return IsSubsimilarity(sys, rule, lab)
}

// IsSubsimilarity reports whether lab is a subsimilarity labeling under
// the rule: similar nodes have the same label, i.e. lab is a coarsening
// of the similarity labeling Θ (section 3; the trivial subsimilarity
// labeling gives every node one label). Together with IsStable this
// brackets Θ: a labeling that is both is THE similarity labeling, unique
// up to renaming.
func IsSubsimilarity(sys *system.System, rule Rule, lab *Labeling) (bool, error) {
	if err := lab.validateAgainst(sys); err != nil {
		return false, err
	}
	theta, err := Similarity(sys, rule)
	if err != nil {
		return false, err
	}
	// Θ-same must imply lab-same; check per class of Θ.
	repProc := make(map[int]int)
	for p, l := range theta.ProcLabels {
		if rep, ok := repProc[l]; ok {
			if lab.ProcLabels[rep] != lab.ProcLabels[p] {
				return false, nil
			}
		} else {
			repProc[l] = p
		}
	}
	repVar := make(map[int]int)
	for v, l := range theta.VarLabels {
		if rep, ok := repVar[l]; ok {
			if lab.VarLabels[rep] != lab.VarLabels[v] {
				return false, nil
			}
		} else {
			repVar[l] = v
		}
	}
	return true, nil
}
