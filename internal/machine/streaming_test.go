package machine

import (
	"testing"

	"simsym/internal/system"
)

func newFig1Machine(t *testing.T, prog *Program) *Machine {
	t.Helper()
	m, err := New(system.Fig1(), system.InstrS, prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunDelegatesToRunWith(t *testing.T) {
	// Run and RunWith over the same finite schedule must be
	// step-for-step identical, including the early stop on AllHalted.
	prog := counterProgram(t, 3)
	schedule := []int{0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	m1 := newFig1Machine(t, prog)
	n1, err := m1.Run(schedule)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newFig1Machine(t, prog)
	n2, err := m2.RunWith(&sliceScheduler{schedule: schedule})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("Run executed %d steps, RunWith %d", n1, n2)
	}
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatal("Run and RunWith reached different states")
	}
}

// stepsThenStop schedules processor p for exactly n steps.
type stepsThenStop struct{ p, n int }

func (s *stepsThenStop) Next(*Machine) (int, bool) {
	if s.n <= 0 {
		return 0, false
	}
	s.n--
	return s.p, true
}

func TestRunWithStopsWhenSchedulerEnds(t *testing.T) {
	m := newFig1Machine(t, counterProgram(t, 100))
	n, err := m.RunWith(&stepsThenStop{p: 0, n: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("executed %d steps, want 5", n)
	}
	if m.AllHalted() {
		t.Fatal("machine should still be running")
	}
}

func TestCrashHaltsWithoutCountingASteps(t *testing.T) {
	m := newFig1Machine(t, counterProgram(t, 3))
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	before := m.Steps()
	fpBefore := m.Fingerprint()
	if err := m.Crash(0); err != nil {
		t.Fatal(err)
	}
	if m.Steps() != before {
		t.Fatal("Crash must not consume a schedule step")
	}
	if !m.Halted(0) || !m.Crashed(0) {
		t.Fatal("crashed processor should be halted and marked crashed")
	}
	if m.Crashed(1) {
		t.Fatal("processor 1 did not crash")
	}
	if m.Fingerprint() == fpBefore {
		t.Fatal("crash must show up in the fingerprint (halted bit flipped)")
	}
	// Stepping a crashed processor is the usual legal stutter.
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	// A clone remembers who crashed.
	if c := m.Clone(); !c.Crashed(0) || c.Crashed(1) {
		t.Fatal("Clone lost the crash record")
	}
	// Crashing an already-halted processor is a no-op, not a crash.
	m2 := newFig1Machine(t, counterProgram(t, 0))
	for i := 0; i < 4; i++ {
		if err := m2.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if !m2.Halted(1) {
		t.Fatal("processor 1 should have halted on its own")
	}
	if err := m2.Crash(1); err != nil {
		t.Fatal(err)
	}
	if m2.Crashed(1) {
		t.Fatal("crashing a voluntarily-halted processor must not mark it crashed")
	}
}

func TestStepOrSkipLeavesHaltedUntouched(t *testing.T) {
	m := newFig1Machine(t, counterProgram(t, 1))
	if err := m.Crash(0); err != nil {
		t.Fatal(err)
	}
	before := m.Steps()
	stepped, err := m.StepOrSkip(0)
	if err != nil {
		t.Fatal(err)
	}
	if stepped {
		t.Fatal("StepOrSkip should skip a crashed processor")
	}
	if m.Steps() != before {
		t.Fatal("skipped pick must not consume a step (unlike Step's stutter)")
	}
	stepped, err = m.StepOrSkip(1)
	if err != nil {
		t.Fatal(err)
	}
	if !stepped || m.Steps() != before+1 {
		t.Fatal("StepOrSkip should execute a live processor's step")
	}
	if _, err := m.StepOrSkip(9); err == nil {
		t.Fatal("out-of-range pick should error")
	}
}

func TestDropLockReleasesHeldLock(t *testing.T) {
	b := NewBuilder()
	b.Lock("n", "g")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(system.Fig1(), system.InstrL, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if !m.Locked(0) {
		t.Fatal("processor 0 should hold the lock")
	}
	fpHeld := string(m.AppendVarFingerprint(nil, 0))
	steps := m.Steps()
	if err := m.DropLock(0); err != nil {
		t.Fatal(err)
	}
	if m.Locked(0) {
		t.Fatal("DropLock left the lock held")
	}
	if m.Steps() != steps {
		t.Fatal("DropLock must not consume a step")
	}
	if string(m.AppendVarFingerprint(nil, 0)) == fpHeld {
		t.Fatal("drop must invalidate the variable fingerprint")
	}
	// The oblivious holder can now be raced: processor 1 acquires the
	// same lock even though 0 never unlocked.
	if err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if g, _ := m.Local(1, "g"); g != true {
		t.Fatal("processor 1 should have acquired the dropped lock")
	}
	// Dropping an unheld lock is a no-op; out of range errors.
	if err := m.DropLock(0); err != nil {
		t.Fatal(err)
	}
	if err := m.DropLock(5); err == nil {
		t.Fatal("out-of-range variable should error")
	}
}
