package adversary

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"simsym/internal/dining"
	"simsym/internal/distlabel"
	"simsym/internal/family"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/sched"
	"simsym/internal/system"
)

// markedFig1 is Figure 1's two-processor shared-variable system with one
// processor marked: graph-symmetric, but the initial states break the
// similarity, so SELECT is solvable in S under bounded-fair schedules.
func markedFig1() *system.System {
	s := system.Fig1().Clone()
	s.ProcInit[1] = "1"
	return s
}

func TestFLPStarvesSelectUnderGeneralSchedules(t *testing.T) {
	// Theorem 1's other half: on a system where SELECT is solvable under
	// bounded-fair schedules, the general-schedule adversary simply
	// starves the would-be leader's selecting step forever. The run
	// never violates anything — selection just never happens.
	h, err := NewSelectHarness(markedFig1(), system.InstrS, system.SchedBoundedFair, NewFLP())
	if err != nil {
		t.Fatal(err)
	}
	h.MaxSlots = 2000
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("starvation run should be violation-free, got %+v", *res.Violation)
	}
	if res.Done {
		t.Fatal("FLP adversary let SELECT settle under a general schedule")
	}
	if got := res.Final.SelectedProcs(); len(got) != 0 {
		t.Fatalf("FLP adversary let processors %v select", got)
	}
}

func TestKBoundedEnforcerDefeatsFLP(t *testing.T) {
	// Wrapping the same adversary in the k-bounded-fair enforcer is the
	// paper's dividing line: the starved processor gets its step within
	// k slots, and SELECT terminates with exactly one selected.
	const k = 4
	sys := markedFig1()
	inner := NewFLP()
	enf, err := NewKBounded(inner, sys.NumProcs(), k)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewSelectHarness(sys, system.InstrS, system.SchedBoundedFair, enf)
	if err != nil {
		t.Fatal(err)
	}
	h.MaxSlots = 2000
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %+v", *res.Violation)
	}
	if !res.Done {
		t.Fatal("k-bounded enforcer failed to defeat the FLP adversary")
	}
	if got := res.Final.SelectedProcs(); len(got) != 1 {
		t.Fatalf("want exactly one selected, got %v", got)
	}
	if !sched.IsKBounded(res.Schedule, sys.NumProcs(), k) {
		t.Fatalf("enforced schedule prefix is not %d-bounded", k)
	}
	// The trace is replayable: same schedule + fault log => same run.
	rep, err := h.Replay(res)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Diff(rep); d != "" {
		t.Fatalf("replay diverged: %s", d)
	}
}

func TestDiningCrashKeepsExclusion(t *testing.T) {
	// Crash-stop faults can starve neighbors (a philosopher dies holding
	// a fork) but must never break mutual exclusion.
	sys, err := system.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		h, err := NewDiningHarness(sys, 2, Shuffled(rand.New(rand.NewSource(seed)), sys.NumProcs()))
		if err != nil {
			t.Fatal(err)
		}
		h.Faults = NewFaults(Spec{CrashRate: 0.01, MaxCrashes: 1, CrashSeed: seed}, sys.NumProcs(), sys.NumVars())
		h.MaxSlots = 20000
		res, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d: crash fault broke exclusion: %+v", seed, *res.Violation)
		}
	}
}

func TestDiningStallsOnlyDelay(t *testing.T) {
	// Stalls burn slots but stall no assumption: every philosopher still
	// eats and exclusion holds.
	sys, err := system.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewDiningHarness(sys, 2, Shuffled(rand.New(rand.NewSource(3)), sys.NumProcs()))
	if err != nil {
		t.Fatal(err)
	}
	h.Faults = NewFaults(Spec{StallRate: 0.05, StallLen: 9, StallSeed: 3}, sys.NumProcs(), sys.NumVars())
	h.MaxSlots = 20000
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("stall fault broke exclusion: %+v", *res.Violation)
	}
	if !res.Done {
		t.Fatalf("stalled table failed to converge: meals %v after %d slots", dining.Meals(res.Final), res.Slots)
	}
}

func TestDiningLockDropBreaksExclusion(t *testing.T) {
	// Lock-drop attacks the assumption the locking solution rests on. A
	// hand-crafted trace: philosopher 0 acquires both forks and starts
	// eating; every fork lock is dropped; philosopher 1 then acquires
	// both of its forks (one shared with 0) and eats too — two adjacent
	// philosophers eating, caught by the exclusion predicate. Injecting
	// through the replay layer shows the fault log is a first-class
	// trace format, not just a recording.
	sys, err := system.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	var schedule []int
	for i := 0; i < 7; i++ {
		schedule = append(schedule, 0)
	}
	for i := 0; i < 7; i++ {
		schedule = append(schedule, 1)
	}
	var log []Event
	for v := 0; v < sys.NumVars(); v++ {
		log = append(log, Event{Slot: 7, Kind: KindDrop, Target: v})
	}
	h, err := NewDiningHarness(sys, 1, FromSlice(schedule))
	if err != nil {
		t.Fatal(err)
	}
	h.Faults = NewReplayer(log)
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("lock-drop should have broken exclusion; meals %v", dining.Meals(res.Final))
	}
	if !strings.Contains(res.Violation.Reason, "eating together") {
		t.Fatalf("unexpected violation: %+v", *res.Violation)
	}
	// The emitted trace replays to the identical violation.
	rep, err := h.Replay(res)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Diff(rep); d != "" {
		t.Fatalf("replay diverged: %s", d)
	}
}

// TestParseSpecSeedsApart: ParseSpec seeds the crash, stall and drop
// streams apart from the base seed, which a run's schedule stream takes,
// and from each other, so no two of a run's streams draw alike.
func TestParseSpecSeedsApart(t *testing.T) {
	for _, seed := range []int64{0, 7, -3} {
		spec, err := ParseSpec("crash,stall,lockdrop", seed)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []int64{seed, spec.CrashSeed, spec.StallSeed, spec.DropSeed}
		for i := range seeds {
			for j := i + 1; j < len(seeds); j++ {
				if seeds[i] == seeds[j] {
					t.Errorf("base seed %d: the base, crash, stall and drop seeds %v repeat one", seed, seeds)
				}
			}
		}
	}
}

func markedRingFamily(t *testing.T) *family.Family {
	t.Helper()
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
	return fam
}

func TestAlgorithm3HarnessConverges(t *testing.T) {
	fam := markedRingFamily(t)
	for member := range fam.Members {
		h, err := NewAlgorithm3Harness(fam, member, Shuffled(rand.New(rand.NewSource(11)), fam.Members[member].NumProcs()))
		if err != nil {
			t.Fatal(err)
		}
		h.MaxSlots = 20000
		res, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("member %d: %+v", member, *res.Violation)
		}
		if !res.Done {
			t.Fatalf("member %d: Algorithm 3 failed to converge in %d slots", member, res.Slots)
		}
	}
}

func TestAlgorithm3HarnessToleratesCrashSafely(t *testing.T) {
	// A crashed processor blocks Algorithm 3's convergence (everyone
	// waits to see all posts), but no surviving processor may ever halt
	// with a wrong label: safety degrades gracefully, progress does not.
	fam := markedRingFamily(t)
	h, err := NewAlgorithm3Harness(fam, 0, Shuffled(rand.New(rand.NewSource(5)), fam.Members[0].NumProcs()))
	if err != nil {
		t.Fatal(err)
	}
	h.Faults = NewFaults(Spec{CrashRate: 0.05, MaxCrashes: 1, CrashSeed: 5}, fam.Members[0].NumProcs(), fam.Members[0].NumVars())
	h.MaxSlots = 5000
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("crash fault produced a mislabeling: %+v", *res.Violation)
	}
}

// TestHarnessReportsStabilityViolation drives a transition violation
// through the harness: every processor but the marked one selects
// itself and then unselects, and the marked one halts at once, so its
// later picks burn slots. StabilityPred must flag the unselecting step
// at its slot and step count, and the replay must flag the same.
func TestHarnessReportsStabilityViolation(t *testing.T) {
	b := machine.NewBuilder()
	initS, sel := b.Sym("init"), b.Sym("selected")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(initS) == "1" }, "end")
	b.Compute(func(r *machine.Regs) { r.Set(sel, true) })
	b.Compute(func(r *machine.Regs) { r.Set(sel, false) })
	b.Label("end")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := &Harness{
		Sys:        markedFig1(),
		Instr:      system.InstrS,
		Prog:       prog,
		Sched:      FromSlice([]int{1, 1, 1, 1, 0, 0, 0}),
		TransPreds: []mc.TransitionPredicate{mc.StabilityPred},
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := Violation{Slot: 6, Step: 5, Reason: "stability violated: processor 0 unselected"}
	if res.Violation == nil || *res.Violation != want {
		t.Fatalf("violation = %+v, want %+v", res.Violation, want)
	}
	rep, err := h.Replay(res)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Diff(rep); d != "" {
		t.Fatalf("replay diverged: %s", d)
	}
}

// TestHarnessBeforeMatchesReplay: the harness rewrites one before
// machine ahead of every step, so a transition predicate must see, at
// each executed step, the state a fresh replay of the schedule up to
// that slot reaches.
func TestHarnessBeforeMatchesReplay(t *testing.T) {
	sys := system.Fig2()
	h, err := NewSelectHarness(sys, system.InstrQ, system.SchedFair, Shuffled(rand.New(rand.NewSource(7)), sys.NumProcs()))
	if err != nil {
		t.Fatal(err)
	}
	var seen [][]byte
	record := func(before, after *machine.Machine, _ int) string {
		if before == after {
			return "before is the running machine"
		}
		seen = append(seen, before.AppendStateKey(nil, nil, nil))
		return ""
	}
	h.TransPreds = append([]mc.TransitionPredicate{record}, h.TransPreds...)
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %+v", *res.Violation)
	}
	if len(seen) != res.Steps || res.Steps == 0 {
		t.Fatalf("the predicate saw %d steps of %d", len(seen), res.Steps)
	}
	i := 0
	for slot, p := range res.Schedule {
		r, err := machine.New(sys, system.InstrQ, h.Prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range res.Schedule[:slot] {
			if _, err := r.StepOrSkip(q); err != nil {
				t.Fatal(err)
			}
		}
		if r.Halted(p) {
			continue // a burned slot: no step, no predicate call
		}
		if !bytes.Equal(seen[i], r.AppendStateKey(nil, nil, nil)) {
			t.Fatalf("slot %d (step %d): before differs from a replay of the schedule prefix", slot, i+1)
		}
		i++
	}
	if i != len(seen) {
		t.Fatalf("replay found %d steps, the predicate saw %d", i, len(seen))
	}
}

// NewAlgorithm3Harness builds a harness running distlabel Algorithm 3's
// uniform program on member of fam (instruction set Q), with an invariant
// that any processor halting on its own has learned its correct family
// label, and convergence when all of them have.
func NewAlgorithm3Harness(fam *family.Family, member int, s machine.Scheduler) (*Harness, error) {
	if member < 0 || member >= len(fam.Members) {
		return nil, fmt.Errorf("adversary: member %d out of range (%d members)", member, len(fam.Members))
	}
	plan, err := distlabel.PlanAlgorithm3(fam)
	if err != nil {
		return nil, err
	}
	prog, err := plan.Program(distlabel.Options{})
	if err != nil {
		return nil, err
	}
	want := plan.MemberLabels[member]
	labelCheck := func(m *machine.Machine) string {
		for p := 0; p < m.NumProcs(); p++ {
			if !m.Halted(p) || m.Crashed(p) {
				continue // crashed processors owe nothing
			}
			v, ok := m.Local(p, "label2")
			if !ok {
				return fmt.Sprintf("algorithm 3: processor %d halted without a family label", p)
			}
			if v != want[p] {
				return fmt.Sprintf("algorithm 3: processor %d halted with label %v, want %d", p, v, want[p])
			}
		}
		return ""
	}
	return &Harness{
		Sys:        fam.Members[member],
		Instr:      system.InstrQ,
		Prog:       prog,
		Sched:      s,
		StatePreds: []mc.StatePredicate{labelCheck},
		Done:       func(m *machine.Machine) bool { return distlabel.AllResolved(m, "label2") },
	}, nil
}
