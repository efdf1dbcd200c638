package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"simsym/internal/core"
	"simsym/internal/machine"
	"simsym/internal/system"
)

func similarity(t *testing.T, s *system.System, rule core.Rule) *core.Labeling {
	t.Helper()
	lab, err := core.Similarity(s, rule)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestFig1RandomProgramsStaySynced(t *testing.T) {
	// Theorem 4 empirically: for ANY program, the round-robin schedule
	// keeps the similar p and q of Figure 1 in the same state at every
	// round boundary.
	rng := rand.New(rand.NewSource(2))
	s := system.Fig1()
	lab := similarity(t, s, core.RuleQ)
	for trial := 0; trial < 60; trial++ {
		prog, err := machine.RandomProgram(rng, s.Names, system.InstrQ, 1+rng.Intn(12))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Witness(s, system.InstrQ, prog, lab, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Synced() {
			t.Fatalf("trial %d: %s", trial, rep.Violation)
		}
	}
}

func TestRandomSystemsRandomProgramsStaySynced(t *testing.T) {
	// The big fuzz: random systems, random programs, instruction sets S
	// and Q. The computed similarity labeling must keep classes in lock
	// step under the class-sorted round-robin.
	rng := rand.New(rand.NewSource(19))
	ran := 0
	for trial := 0; trial < 120; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(6),
			Vars:       1 + rng.Intn(4),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		instr := system.InstrQ
		rule := core.RuleQ
		if rng.Intn(2) == 0 {
			instr = system.InstrS
			rule = core.RuleSetS
		}
		lab := similarity(t, s, rule)
		prog, err := machine.RandomProgram(rng, s.Names, instr, 1+rng.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Witness(s, instr, prog, lab, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Synced() {
			t.Fatalf("trial %d (%v): %s\nsystem:\n%s", trial, instr, rep.Violation, s.Describe())
		}
		ran++
	}
	if ran < 60 {
		t.Errorf("only %d fuzz cases ran", ran)
	}
}

func TestWitnessDetectsDivergence(t *testing.T) {
	// Feed the witness a deliberately wrong labeling (merging dissimilar
	// p3 with p1/p2 of Figure 2) and a program that separates them: the
	// witness must report a violation, demonstrating it has teeth.
	s := system.Fig2()
	wrong := &core.Labeling{
		Sys:        s,
		ProcLabels: []int{0, 0, 0},
		VarLabels:  []int{0, 0, 1}, // also wrong: v1 ~ v2
	}
	b := machine.NewBuilder()
	b.Post("n", "init")
	b.Peek("n", "x") // p1,p2 see 2 subvalues; p3 sees 1
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Witness(s, system.InstrQ, prog, wrong, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Synced() {
		t.Fatal("witness failed to detect divergence of a wrong labeling")
	}
}

func TestFig1SelectionDoubles(t *testing.T) {
	// Theorem 2 via the machine: a program that tries to select by
	// "first to post wins" ends up selecting BOTH similar processors
	// under round-robin.
	s := system.Fig1()
	lab := similarity(t, s, core.RuleQ)
	b := machine.NewBuilder()
	x, selected := b.Sym("x"), b.Sym("selected")
	b.Peek("n", "x")
	b.Compute(func(r *machine.Regs) {
		pr := r.Get(x).(machine.PeekResult)
		if len(pr.Values) == 0 {
			r.Set(selected, true) // nobody posted yet: claim leadership
		}
	})
	b.Post("n", "init")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	two, err := EventuallySelectsTwo(s, system.InstrQ, prog, lab, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !two {
		t.Fatal("round-robin should select both similar processors (Uniqueness violation)")
	}
}

func TestWitnessShapeError(t *testing.T) {
	s := system.Fig1()
	lab := &core.Labeling{Sys: s, ProcLabels: []int{0}, VarLabels: []int{0}}
	b := machine.NewBuilder()
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Witness(s, system.InstrQ, prog, lab, 1); err == nil {
		t.Error("mismatched labeling should fail")
	}
	if _, err := EventuallySelectsTwo(s, system.InstrQ, prog, lab, 1); err == nil {
		t.Error("mismatched labeling should fail")
	}
}

func TestWitnessStopsOnHalt(t *testing.T) {
	s := system.Fig1()
	lab := similarity(t, s, core.RuleQ)
	b := machine.NewBuilder()
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Witness(s, system.InstrQ, prog, lab, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds >= 1000 {
		t.Errorf("witness ran %d rounds; should stop after halt", rep.Rounds)
	}
	if !rep.Synced() {
		t.Error("halted machine should stay synced")
	}
}

func TestClassSortedRoundGroupsClasses(t *testing.T) {
	s := system.Fig2()
	lab := similarity(t, s, core.RuleQ)
	round := ClassSortedRound(lab)
	if len(round) != 3 {
		t.Fatalf("round length = %d", len(round))
	}
	// Same-labeled p1,p2 must be adjacent in the round.
	pos := make(map[int]int)
	for i, p := range round {
		pos[p] = i
	}
	if d := pos[0] - pos[1]; d != 1 && d != -1 {
		t.Errorf("similar processors not adjacent in round: %v", round)
	}
}

// TestEventuallySelectsTwoMidRound is the regression test for the
// round-boundary blind spot: the double selection exists only between
// two steps of one round (the earlier-scheduled processor selects before
// the other deselects), so a check that inspects SelectedProcs only at
// round boundaries never sees it.
func TestEventuallySelectsTwoMidRound(t *testing.T) {
	s := system.Fig1().Clone()
	s.ProcInit[1] = "1" // mark p1 so the uniform program can phase-shift it
	// Labels put p1 first in the class-sorted round, so within a round
	// p1's selection lands while p0 is still selected, and p0's
	// deselection closes the window before the boundary.
	lab := &core.Labeling{Sys: s, ProcLabels: []int{1, 0}, VarLabels: []int{0}}
	b := machine.NewBuilder()
	selected := b.Sym("selected")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(machine.SymInit) == "1" }, "late")
	b.Compute(func(r *machine.Regs) { r.Set(selected, true) })  // p0, round 2
	b.Compute(func(r *machine.Regs) { r.Set(selected, false) }) // p0, round 3
	b.Halt()
	b.Label("late")
	b.Compute(func(*machine.Regs) {})                           // p1, round 2
	b.Compute(func(r *machine.Regs) { r.Set(selected, true) })  // p1, round 3
	b.Compute(func(r *machine.Regs) { r.Set(selected, false) }) // p1, round 4
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Round 3 runs p1 (select: both selected now) then p0 (deselect):
	// every boundary and the final state have at most one selected.
	two, err := EventuallySelectsTwo(s, system.InstrS, prog, lab, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !two {
		t.Fatal("mid-round double selection missed: EventuallySelectsTwo is only checking round boundaries")
	}
}

// EventuallySelectsTwo runs prog under the class-sorted round-robin and
// reports whether at some point two same-labeled processors are both
// selected — the Theorem 2 violation scenario (if a selection algorithm
// selects p under this schedule, the similar q is selected too).
func EventuallySelectsTwo(sys *system.System, instr system.InstrSet, prog *machine.Program, lab *core.Labeling, rounds int) (bool, error) {
	if len(lab.ProcLabels) != sys.NumProcs() {
		return false, ErrShape
	}
	m, err := machine.New(sys, instr, prog)
	if err != nil {
		return false, fmt.Errorf("trace: %w", err)
	}
	round := ClassSortedRound(lab)
	for r := 0; r < rounds; r++ {
		for _, p := range round {
			if err := m.Step(p); err != nil {
				return false, fmt.Errorf("trace: %w", err)
			}
			// Check after every step, not just at round boundaries: a
			// double selection can appear and resolve within one round
			// (one twin selecting before the other deselects), which a
			// boundary-only check never sees.
			if len(m.SelectedProcs()) >= 2 {
				return true, nil
			}
		}
		if m.AllHalted() {
			break
		}
	}
	return len(m.SelectedProcs()) >= 2, nil
}
