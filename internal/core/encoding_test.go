package core

import (
	"fmt"
	"math/rand"
	"testing"

	"simsym/internal/system"
)

// TestInitKeyInjective pins the collision-proofing of InitKey: the
// length-prefixed encoding must keep every distinct (kind, init) pair
// distinct, even when initial states contain the encoding's own
// separator bytes or look like encoded keys themselves.
func TestInitKeyInjective(t *testing.T) {
	inits := []string{
		"", "a", "ab", "a|b", "a#b", ":", "::", "1:a", "2:ab",
		"P", "V", "P|x", "V|x", "P1:a", "3:1:a", "0:",
	}
	sys := &system.System{
		Names:    []system.Name{"n"},
		ProcIDs:  make([]string, len(inits)),
		VarIDs:   make([]string, len(inits)),
		Nbr:      make([][]int, len(inits)),
		ProcInit: append([]string(nil), inits...),
		VarInit:  append([]string(nil), inits...),
	}
	for i := range inits {
		sys.ProcIDs[i] = fmt.Sprintf("p%d", i)
		sys.VarIDs[i] = fmt.Sprintf("v%d", i)
		sys.Nbr[i] = []int{i}
	}
	g, err := newGraph(sys, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for i := 0; i < sys.NumNodes(); i++ {
		key := g.InitKey(i)
		if j, dup := seen[key]; dup {
			t.Errorf("nodes %d and %d collide on InitKey %q", j, i, key)
		}
		seen[key] = i
	}
	// Same init, same kind must still coincide.
	sys2 := sys.Clone()
	sys2.ProcInit[1] = sys2.ProcInit[0]
	g2, err := newGraph(sys2, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	if g2.InitKey(0) != g2.InitKey(1) {
		t.Error("equal inits produced different InitKeys")
	}
}

// TestSimilaritySeparatorAdversarialInits drives the separator
// adversaries through the full pipeline: on a symmetric ring where only
// initial states can distinguish processors, inits that differ only in
// separator placement must yield different labels, and equal inits equal
// labels — under every driver.
func TestSimilaritySeparatorAdversarialInits(t *testing.T) {
	s, err := system.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise-distinct adversarial inits that concatenation-style
	// encodings are prone to conflate.
	s.ProcInit = []string{"a", "a|b", "a#b", "1:a", "", "a"}
	for _, rule := range []Rule{RuleQ, RuleSetS} {
		lab, err := Similarity(s, rule)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 5; j++ {
				if lab.ProcLabels[i] == lab.ProcLabels[j] {
					t.Errorf("rule %d: procs %d (%q) and %d (%q) conflated",
						rule, i, s.ProcInit[i], j, s.ProcInit[j])
				}
			}
		}
		if ok, err := IsStable(s, rule, lab); err != nil || !ok {
			t.Errorf("rule %d: similarity labeling not stable (ok=%v err=%v)", rule, ok, err)
		}
	}
}

// randomSystem wraps system.RandomSystem keeping Vars attachable
// (every variable needs one of the Procs×Names edge slots).
func randomSystem(rng *rand.Rand, procs, names, initStates int) (*system.System, error) {
	return system.RandomSystem(rng, system.RandomOpts{
		Procs: procs, Names: names, InitStates: initStates,
		Vars: 1 + rng.Intn(procs*names),
	})
}

// shiftLabeling returns a copy of lab with the given injective
// per-kind relabelings applied.
func shiftLabeling(lab *Labeling, proc, vari func(int) int) *Labeling {
	out := &Labeling{
		Sys:        lab.Sys,
		ProcLabels: make([]int, len(lab.ProcLabels)),
		VarLabels:  make([]int, len(lab.VarLabels)),
	}
	for i, l := range lab.ProcLabels {
		out.ProcLabels[i] = proc(l)
	}
	for i, l := range lab.VarLabels {
		out.VarLabels[i] = vari(l)
	}
	return out
}

// TestIsStableRelabelInvariant pins the tagged (kind, label) encoding:
// IsStable's verdict must be invariant under any injective relabeling of
// the label values, including ranges that a fixed-offset scheme (the old
// "+1_000_000 for variables") cannot keep disjoint — processor labels
// sitting exactly one million above variable labels, and overlapping
// proc/var ranges.
func TestIsStableRelabelInvariant(t *testing.T) {
	shifts := []struct {
		name       string
		proc, vari func(int) int
	}{
		{"identity", func(l int) int { return l }, func(l int) int { return l }},
		{"procs-at-var-offset", func(l int) int { return l + 1_000_000 }, func(l int) int { return l }},
		{"vars-at-proc-range", func(l int) int { return l }, func(l int) int { return l * 2 }},
		{"both-huge", func(l int) int { return l + 1_000_000 }, func(l int) int { return l + 2_000_000 }},
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		s, err := randomSystem(rng, 2+rng.Intn(8), 1+rng.Intn(3), 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range []Rule{RuleQ, RuleSetS} {
			// Θ itself (stable) and a random coarsening (usually not).
			theta, err := Similarity(s, rule)
			if err != nil {
				t.Fatal(err)
			}
			coarse := shiftLabeling(theta,
				func(l int) int { return l % max(1, rng.Intn(4)+1) },
				func(l int) int { return l % max(1, rng.Intn(4)+1) })
			for _, lab := range []*Labeling{theta, coarse} {
				want, err := IsStable(s, rule, lab)
				if err != nil {
					t.Fatal(err)
				}
				for _, sh := range shifts {
					got, err := IsStable(s, rule, shiftLabeling(lab, sh.proc, sh.vari))
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("trial %d rule %d shift %s: IsStable flipped %v -> %v",
							trial, rule, sh.name, want, got)
					}
				}
			}
		}
	}
}

// labelsKey renders a labeling for exact comparison; fromPartition
// canonicalizes labels, so driver outputs are comparable verbatim.
func labelsKey(lab *Labeling) string {
	return fmt.Sprint(lab.ProcLabels, lab.VarLabels)
}

// TestDriversMatchNaiveOracle is the interned-pipeline cross-check: on
// rings, marked rings, stars, and randomized systems, the interned
// worklist driver and the Hopcroft driver must produce exactly the
// labeling of the naive string-signature oracle, under both environment
// rules.
func TestDriversMatchNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var cases []*system.System
	for _, n := range []int{1, 2, 3, 6, 9} {
		ring, err := system.Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, ring)
		marked := ring.Clone()
		marked.ProcInit[0] = "leader"
		cases = append(cases, marked)
		star, err := system.Star(n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, star)
	}
	for trial := 0; trial < 25; trial++ {
		s, err := randomSystem(rng, 1+rng.Intn(12), 1+rng.Intn(3), 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, s)
	}
	for ci, s := range cases {
		for _, rule := range []Rule{RuleQ, RuleSetS} {
			oracle, err := SimilarityNaive(s, rule)
			if err != nil {
				t.Fatal(err)
			}
			want := labelsKey(oracle)
			got := map[string]*Labeling{}
			if got["Similarity"], err = Similarity(s, rule); err != nil {
				t.Fatal(err)
			}
			if got["SimilarityWorklist"], err = SimilarityWorklist(s, rule); err != nil {
				t.Fatal(err)
			}
			for name, lab := range got {
				if labelsKey(lab) != want {
					t.Errorf("case %d rule %d: %s = %v, oracle %v",
						ci, rule, name, labelsKey(lab), want)
				}
			}
			if ok, err := IsStable(s, rule, oracle); err != nil || !ok {
				t.Errorf("case %d rule %d: oracle labeling unstable (ok=%v err=%v)", ci, rule, ok, err)
			}
		}
	}
}
