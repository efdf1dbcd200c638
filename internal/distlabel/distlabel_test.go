package distlabel

import (
	"fmt"
	"math/rand"
	"testing"

	"simsym/internal/core"
	"simsym/internal/family"
	"simsym/internal/machine"
	"simsym/internal/sched"
	"simsym/internal/system"
)

// runToCompletion drives m under shuffled-round fair schedules until all
// processors halt, failing after maxRounds.
func runToCompletion(t *testing.T, m *machine.Machine, seed int64, maxRounds int) {
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
	if !m.AllHalted() {
		for p := 0; p < n; p++ {
			pec, _ := m.Local(p, "PEC1")
			t.Logf("proc %d PEC1=%v halted=%v", p, pec, m.Halted(p))
		}
		t.Fatalf("Algorithm did not converge in %d rounds", maxRounds)
	}
}

func learnedLabels(t *testing.T, m *machine.Machine, key string) []int {
	t.Helper()
	out := make([]int, m.System().NumProcs())
	for p := range out {
		v, ok := m.Local(p, key)
		if !ok {
			t.Fatalf("processor %d has no %s", p, key)
		}
		out[p] = v.(int)
	}
	return out
}

func TestAlgorithm2Fig2LearnsLabels(t *testing.T) {
	// The paper's Figure 2 walkthrough: p1,p2 discover v1 has two
	// writers; p3 learns its label from the resolved posts in v3.
	s := system.Fig2()
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := TopologyFromSystem(s, lab)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Algorithm2(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		m, err := machine.New(s, system.InstrQ, prog)
		if err != nil {
			t.Fatal(err)
		}
		runToCompletion(t, m, seed, 500)
		got := learnedLabels(t, m, "label1")
		for p := range got {
			if got[p] != lab.ProcLabels[p] {
				t.Errorf("seed %d: proc %d learned %d, want %d", seed, p, got[p], lab.ProcLabels[p])
			}
		}
	}
}

func TestAlgorithm2Fig1TrivialConvergence(t *testing.T) {
	// Both processors share one similarity label; each learns that
	// (correct) label immediately — Algorithm 2 never terminates with a
	// wrong answer, and here it terminates with a shared one.
	s := system.Fig1()
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := TopologyFromSystem(s, lab)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Algorithm2(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(s, system.InstrQ, prog)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, m, 1, 50)
	got := learnedLabels(t, m, "label1")
	if got[0] != got[1] || got[0] != lab.ProcLabels[0] {
		t.Errorf("labels = %v, want both %d", got, lab.ProcLabels[0])
	}
}

func TestAlgorithm2MarkedRing(t *testing.T) {
	// A marked ring separates fully; every processor must learn its own
	// unique label by distributed alibi propagation.
	for _, n := range []int{3, 5, 6} {
		t.Run(fmt.Sprintf("ring%d", n), func(t *testing.T) {
			s, err := system.Ring(n)
			if err != nil {
				t.Fatal(err)
			}
			s.ProcInit[0] = "leader"
			lab, err := core.Similarity(s, core.RuleQ)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := TopologyFromSystem(s, lab)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Algorithm2(topo, Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(s, system.InstrQ, prog)
			if err != nil {
				t.Fatal(err)
			}
			runToCompletion(t, m, int64(n), 2000)
			got := learnedLabels(t, m, "label1")
			for p := range got {
				if got[p] != lab.ProcLabels[p] {
					t.Errorf("proc %d learned %d, want %d", p, got[p], lab.ProcLabels[p])
				}
			}
		})
	}
}

func TestAlgorithm2SelectWithElite(t *testing.T) {
	// SELECT(Σ): learn labels, then the processor holding the
	// designated unique label selects itself.
	s := system.Fig2()
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := TopologyFromSystem(s, lab)
	if err != nil {
		t.Fatal(err)
	}
	elite := []int{lab.ProcLabels[2]} // p3 is uniquely labeled
	prog, err := Algorithm2(topo, Options{Elite: elite})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		m, err := machine.New(s, system.InstrQ, prog)
		if err != nil {
			t.Fatal(err)
		}
		runToCompletion(t, m, seed, 500)
		sel := m.SelectedProcs()
		if len(sel) != 1 || sel[0] != 2 {
			t.Errorf("seed %d: selected = %v, want [2]", seed, sel)
		}
	}
}

func TestTopologyRejectsUnstableLabeling(t *testing.T) {
	s := system.Fig2()
	bad := &core.Labeling{
		Sys:        s,
		ProcLabels: []int{0, 0, 0}, // merges dissimilar p3
		VarLabels:  []int{0, 1, 2},
	}
	if _, err := TopologyFromSystem(s, bad); err == nil {
		t.Error("unstable labeling should be rejected")
	}
	wrongShape := &core.Labeling{Sys: s, ProcLabels: []int{0}, VarLabels: []int{0}}
	if _, err := TopologyFromSystem(s, wrongShape); err == nil {
		t.Error("mis-shaped labeling should be rejected")
	}
}

func TestAlgorithm3HomogeneousFamily(t *testing.T) {
	// A family of differently-marked rings: the same uniform program
	// must let every processor of every member learn its family label.
	base, err := system.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	memberA := base.Clone()
	memberA.ProcInit[0] = "M"
	memberB := base.Clone()
	memberB.ProcInit[0] = "M"
	memberB.ProcInit[2] = "M"
	fam, err := family.NewHomogeneous([]*system.System{memberA, memberB})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanAlgorithm3(fam)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := plan.Program(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, member := range fam.Members {
		for seed := int64(0); seed < 3; seed++ {
			m, err := machine.New(member, system.InstrQ, prog)
			if err != nil {
				t.Fatal(err)
			}
			runToCompletion(t, m, seed+int64(i)*100, 2000)
			got := learnedLabels(t, m, "label2")
			for p := range got {
				if got[p] != plan.MemberLabels[i][p] {
					t.Errorf("member %d seed %d: proc %d learned %d, want %d",
						i, seed, p, got[p], plan.MemberLabels[i][p])
				}
			}
		}
	}
}

func TestAlgorithm3DistinguishesMembers(t *testing.T) {
	// The family labels of the two members must differ somewhere —
	// otherwise the test above would be vacuous.
	base, err := system.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	memberA := base.Clone()
	memberA.ProcInit[0] = "M"
	memberB := base.Clone()
	memberB.ProcInit[0] = "M"
	memberB.ProcInit[2] = "M"
	fam, err := family.NewHomogeneous([]*system.System{memberA, memberB})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanAlgorithm3(fam)
	if err != nil {
		t.Fatal(err)
	}
	// p0 is marked in both members but its environment differs (one vs
	// two marks): family labels must differ.
	if plan.MemberLabels[0][0] == plan.MemberLabels[1][0] {
		t.Error("marked processor should get different family labels in the two members")
	}
}

func BenchmarkAlgorithm2MarkedRing(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := system.Ring(n)
			if err != nil {
				b.Fatal(err)
			}
			s.ProcInit[0] = "leader"
			lab, err := core.Similarity(s, core.RuleQ)
			if err != nil {
				b.Fatal(err)
			}
			topo, err := TopologyFromSystem(s, lab)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := Algorithm2(topo, Options{})
			if err != nil {
				b.Fatal(err)
			}
			rr, err := sched.RoundRobin(n, 5000)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := machine.New(s, system.InstrQ, prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(rr); err != nil {
					b.Fatal(err)
				}
				if !m.AllHalted() {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

func TestAlgorithm4DirectOnFig1(t *testing.T) {
	// Direct in-package exercise of the L pipeline: relabel by lock
	// race, lock-simulated posts, two phases, ELITE election.
	s := system.Fig1()
	plan, outcomes, err := PlanAlgorithm4(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(outcomes))
	}
	if len(plan.MemberLabels) != 2 {
		t.Fatalf("versions = %d, want 2", len(plan.MemberLabels))
	}
	// ELITE: the label that is unique in both versions (rank-0 holder).
	elite := []int{plan.MemberLabels[0][0]}
	prog, err := plan.Program(Options{Elite: elite})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 6; seed++ {
		m, err := machine.New(s, system.InstrL, prog)
		if err != nil {
			t.Fatal(err)
		}
		runToCompletion(t, m, seed, 2000)
		sel := m.SelectedProcs()
		if len(sel) != 1 {
			t.Errorf("seed %d: selected %v", seed, sel)
		}
		// Every processor learned a phase-2 label.
		for p := 0; p < 2; p++ {
			if _, ok := m.Local(p, "label2"); !ok {
				t.Errorf("seed %d: proc %d has no label2", seed, p)
			}
		}
	}
}

func TestAlgorithm4Preconditions(t *testing.T) {
	bad := system.Fig1()
	bad.VarInit[0] = "7"
	if _, _, err := PlanAlgorithm4(bad); err == nil {
		t.Error("nonzero variable counter should be rejected")
	}
	dup := &system.System{
		Names:    []system.Name{"a", "b"},
		ProcIDs:  []string{"p"},
		VarIDs:   []string{"v"},
		Nbr:      [][]int{{0, 0}},
		ProcInit: []string{"0"},
		VarInit:  []string{"0"},
	}
	if err := ValidateRuntime(dup); err == nil {
		t.Error("duplicate name edges should be rejected")
	}
	if err := ValidateRuntime(system.Fig2()); err != nil {
		t.Errorf("Fig2 should pass runtime validation: %v", err)
	}
}

func TestRelabelStateStringMatchesFamily(t *testing.T) {
	// The local copy must stay in sync with family.RelabelState.
	if relabelStateString("x", []int{0, 2, 1}) != family.RelabelState("x", []int{0, 2, 1}) {
		t.Error("relabelStateString diverged from family.RelabelState")
	}
	if relabelStateString("", nil) != family.RelabelState("", nil) {
		t.Error("empty-case divergence")
	}
}

// TestCombineInitInjective pins the length-prefixed phase-2 state
// encoding: distinct (state, label) pairs must encode distinctly even
// when the state contains '@' or digit runs that mimic the frame.
func TestCombineInitInjective(t *testing.T) {
	states := []string{"", "a", "a@1", "1@a", "@", "a@", "0", "1", "2@a@1"}
	labels := []int{0, 1, 2, 10, 21}
	seen := make(map[string][2]string)
	for _, st := range states {
		for _, l := range labels {
			enc := CombineInit(st, l)
			id := [2]string{st, fmt.Sprint(l)}
			if prev, dup := seen[enc]; dup && prev != id {
				t.Errorf("collision: %v and %v both encode to %q", prev, id, enc)
			}
			seen[enc] = id
		}
	}
}
