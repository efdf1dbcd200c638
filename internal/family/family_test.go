package family

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"simsym/internal/core"
	"simsym/internal/system"
)

func TestNewHomogeneousValidation(t *testing.T) {
	a := system.Fig1()
	b := system.Fig1()
	b.ProcInit[0] = "X"
	if _, err := NewHomogeneous([]*system.System{a, b}); err != nil {
		t.Errorf("init-only difference should be homogeneous: %v", err)
	}
	c := system.Fig2()
	if _, err := NewHomogeneous([]*system.System{a, c}); !errors.Is(err, ErrNotHomogeneous) {
		t.Errorf("different topology = %v, want ErrNotHomogeneous", err)
	}
	if _, err := NewHomogeneous(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty = %v, want ErrEmpty", err)
	}
}

func TestUnionRestrictionMatchesMemberLabeling(t *testing.T) {
	// Folklore 1-WL locality, load-bearing for the VERSIONS machinery:
	// the family (union) labeling restricted to a member induces exactly
	// the member's own similarity classes.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(6),
			Vars:       1 + rng.Intn(4),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(3),
		})
		if err != nil {
			continue
		}
		other := s.Clone()
		for p := range other.ProcInit {
			other.ProcInit[p] = other.ProcInit[p] + "x" + string(rune('0'+rng.Intn(2)))
		}
		fam, err := NewHomogeneous([]*system.System{s, other})
		if err != nil {
			t.Fatal(err)
		}
		labs, err := fam.Labeling(core.RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		own, err := core.Similarity(s, core.RuleQ)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < s.NumProcs(); p++ {
			for q := 0; q < s.NumProcs(); q++ {
				sameFam := labs[0].ProcLabels[p] == labs[0].ProcLabels[q]
				sameOwn := own.ProcLabels[p] == own.ProcLabels[q]
				if sameFam != sameOwn {
					t.Fatalf("trial %d: restriction mismatch on procs %d,%d\n%s", trial, p, q, s.Describe())
				}
			}
		}
	}
}

func TestIdenticalMembersShareLabels(t *testing.T) {
	// Two identical members must be labeled identically across the
	// union: corresponding nodes get the same label.
	s := system.Fig2()
	fam, err := NewHomogeneous([]*system.System{s, s.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	labs, err := fam.Labeling(core.RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	for p := range labs[0].ProcLabels {
		if labs[0].ProcLabels[p] != labs[1].ProcLabels[p] {
			t.Errorf("proc %d labeled differently across identical members", p)
		}
	}
}

func TestRelabelOutcomesFig1(t *testing.T) {
	// Fig1: one variable with two lockers: exactly 2 outcomes.
	outcomes, err := RelabelOutcomes(system.Fig1(), RelabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(outcomes))
	}
	// In each outcome, the two processors have different states (ranks
	// 0 and 1 on the shared variable).
	for i, o := range outcomes {
		if o.ProcInit[0] == o.ProcInit[1] {
			t.Errorf("outcome %d: same-name sharers got identical relabel states", i)
		}
		if o.VarInit[0] != "2" {
			t.Errorf("outcome %d: var init = %q, want degree 2", i, o.VarInit[0])
		}
	}
}

func TestRelabelOutcomesDining5(t *testing.T) {
	dp, err := system.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := RelabelOutcomes(dp, RelabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 32 { // 2^5 fork orders
		t.Fatalf("outcomes = %d, want 32", len(outcomes))
	}
	// The round-robin outcome — every philosopher rank 0 on one side and
	// rank 1 on the other — must be present: it makes all philosophers
	// identical, which is the Theorem 11 witness.
	found := false
	for _, o := range outcomes {
		all := true
		for p := 1; p < 5; p++ {
			if o.ProcInit[p] != o.ProcInit[0] {
				all = false
				break
			}
		}
		if all {
			found = true
			break
		}
	}
	if !found {
		t.Error("no relabel outcome gives all philosophers the same state (Theorem 11 witness missing)")
	}
}

func TestVersionsFig1AllDistinguish(t *testing.T) {
	// Fig1 in L: both outcomes isomorphic; every version labels the two
	// processors differently (they share v under the same name).
	versions, err := Versions(system.Fig1(), RelabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) == 0 {
		t.Fatal("no versions")
	}
	for i, v := range versions {
		if v.ProcLabels[0] == v.ProcLabels[1] {
			t.Errorf("version %d: same-name sharers similar after relabel", i)
		}
		if len(v.UniqueProcs()) != 2 {
			t.Errorf("version %d: unique procs = %v", i, v.UniqueProcs())
		}
	}
}

func TestVersionsRingNeverDistinguish(t *testing.T) {
	// Ring in L: forks are shared under different names, so the
	// round-robin relabel outcome keeps all processors similar; at
	// least one version must have every processor paired (hence no
	// selection in L — anonymous rings stay anonymous even with locks).
	ring, err := system.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := Versions(ring, RelabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	foundAllPaired := false
	for _, v := range versions {
		if v.EveryProcPaired() {
			foundAllPaired = true
			break
		}
	}
	if !foundAllPaired {
		t.Error("some relabel outcome of the ring should keep all processors paired")
	}
}

func TestVersionsShareLabelSpace(t *testing.T) {
	// Labels must be comparable across versions: the same rank pattern
	// in two different outcomes gets the same label.
	versions, err := Versions(system.Fig1(), RelabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 {
		// The two outcomes are label-isomorphic as vectors only if the
		// union merges them; they differ in WHICH processor has rank 0,
		// so the dedup keeps both, but their label SETS coincide.
		if len(versions) != 2 {
			t.Fatalf("versions = %d, want 1 or 2", len(versions))
		}
		a, b := versions[0].LabelSet(), versions[1].LabelSet()
		if len(a) != len(b) {
			t.Fatalf("label sets differ in size: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("label sets differ: %v vs %v", a, b)
			}
		}
	}
}

func TestRelabelOutcomeLimit(t *testing.T) {
	ring, err := system.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RelabelOutcomes(ring, RelabelOptions{Limit: 100}); !errors.Is(err, ErrTooManyOutcomes) {
		t.Errorf("limit error = %v, want ErrTooManyOutcomes", err)
	}
}

func TestRelabelStateEncoding(t *testing.T) {
	if RelabelState("x", []int{0, 2}) == RelabelState("x", []int{2, 0}) {
		t.Error("rank order must matter")
	}
	if RelabelState("a", []int{1}) == RelabelState("b", []int{1}) {
		t.Error("original init must matter")
	}
}

// TestRelabelStateInjective pins the length-prefixed encoding: distinct
// (orig, ranks) pairs must encode distinctly even when orig contains the
// separator bytes '|' and ',' or digit runs that mimic rank suffixes.
func TestRelabelStateInjective(t *testing.T) {
	origs := []string{"", "a", "a|b", "1|a", "a,1", "0", "a,", ",", "2|a,1"}
	rankss := [][]int{nil, {0}, {1}, {0, 1}, {1, 0}, {10}, {1, 0, 1}}
	seen := make(map[string][2]string)
	for _, orig := range origs {
		for _, ranks := range rankss {
			enc := RelabelState(orig, ranks)
			id := [2]string{orig, fmt.Sprint(ranks)}
			if prev, dup := seen[enc]; dup && prev != id {
				t.Errorf("collision: %v and %v both encode to %q", prev, id, enc)
			}
			seen[enc] = id
		}
	}
}

// LabelSet returns the member's set of processor labels, sorted.
func (ml *MemberLabeling) LabelSet() []int {
	seen := make(map[int]bool)
	for _, l := range ml.ProcLabels {
		seen[l] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
