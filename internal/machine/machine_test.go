package machine

import (
	"errors"
	"strings"
	"testing"

	"simsym/internal/sched"
	"simsym/internal/system"
)

// counterProgram increments a local counter k times then halts.
func counterProgram(t *testing.T, k int) *Program {
	t.Helper()
	b := NewBuilder()
	n := b.Sym("n")
	b.Compute(func(r *Regs) { r.Set(n, 0) })
	b.Label("loop")
	b.JumpIf(func(r *Regs) bool { return r.Int(n) >= k }, "done")
	b.Compute(func(r *Regs) { r.Set(n, r.Int(n)+1) })
	b.Jump("loop")
	b.Label("done")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLocalComputation(t *testing.T) {
	m, err := New(system.Fig1(), system.InstrS, counterProgram(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sched.RoundRobin(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(rr); err != nil {
		t.Fatal(err)
	}
	if !m.AllHalted() {
		t.Fatal("machine should halt")
	}
	if m.System().NumProcs() != 2 {
		t.Error("System accessor wrong")
	}
	if m.Steps() == 0 {
		t.Error("Steps should count executed steps")
	}
	for p := 0; p < 2; p++ {
		v, ok := m.Local(p, "n")
		if !ok || v.(int) != 5 {
			t.Errorf("proc %d: n = %v, want 5", p, v)
		}
	}
}

func TestReadWriteSharedVariable(t *testing.T) {
	// p and q share v. Each writes its init and then reads; under a
	// sequential schedule the second writer's value wins.
	s := system.Fig1()
	s.ProcInit[0] = "A"
	s.ProcInit[1] = "B"
	b := NewBuilder()
	b.Write("n", "init")
	b.Read("n", "seen")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(s, system.InstrS, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Schedule: p writes, q writes, p reads, q reads.
	for _, step := range []int{0, 1, 0, 1} {
		if err := m.Step(step); err != nil {
			t.Fatal(err)
		}
	}
	got0, _ := m.Local(0, "seen")
	got1, _ := m.Local(1, "seen")
	if got0 != "B" || got1 != "B" {
		t.Errorf("seen = (%v,%v), want (B,B): q's write overwrote p's", got0, got1)
	}
}

func TestInstructionSetEnforcement(t *testing.T) {
	tests := []struct {
		name  string
		instr system.InstrSet
		build func(b *Builder)
		want  error
	}{
		{"lock under S", system.InstrS, func(b *Builder) { b.Lock("n", "ok") }, ErrInstrNotAllowed},
		{"peek under S", system.InstrS, func(b *Builder) { b.Peek("n", "x") }, ErrInstrNotAllowed},
		{"read under Q", system.InstrQ, func(b *Builder) { b.Read("n", "x") }, ErrInstrNotAllowed},
		{"post under L", system.InstrL, func(b *Builder) { b.Post("n", "init") }, ErrInstrNotAllowed},
		{"lock under L ok", system.InstrL, func(b *Builder) { b.Lock("n", "ok") }, nil},
		{"peek under Q ok", system.InstrQ, func(b *Builder) { b.Peek("n", "x") }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder()
			tt.build(b)
			b.Halt()
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(system.Fig1(), tt.instr, prog)
			if err != nil {
				t.Fatal(err)
			}
			err = m.Step(0)
			if !errors.Is(err, tt.want) && !(tt.want == nil && err == nil) {
				t.Errorf("Step = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestLockSemantics(t *testing.T) {
	b := NewBuilder()
	b.Lock("n", "got")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(system.Fig1(), system.InstrL, prog)
	if err != nil {
		t.Fatal(err)
	}
	// p locks first and wins; q's attempt fails.
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	got0, _ := m.Local(0, "got")
	got1, _ := m.Local(1, "got")
	if got0 != true || got1 != false {
		t.Errorf("lock outcomes = (%v,%v), want (true,false)", got0, got1)
	}
}

func TestUnlockAllowsRelock(t *testing.T) {
	b := NewBuilder()
	b.Lock("n", "first")
	b.Unlock("n")
	b.Lock("n", "second")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(system.Fig1(), system.InstrL, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	first, _ := m.Local(0, "first")
	second, _ := m.Local(0, "second")
	if first != true || second != true {
		t.Errorf("lock-unlock-lock = (%v,%v), want (true,true)", first, second)
	}
}

func TestPeekPostMultiset(t *testing.T) {
	s := system.Fig1()
	s.ProcInit[0] = "A"
	s.ProcInit[1] = "B"
	b := NewBuilder()
	b.Post("n", "init")
	b.Peek("n", "seen")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(s, system.InstrQ, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Before any post, a peek returns the empty multiset.
	probe, err := New(s, system.InstrQ, mustProg(t, func(b *Builder) { b.Peek("n", "x"); b.Halt() }))
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Step(0); err != nil {
		t.Fatal(err)
	}
	x, _ := probe.Local(0, "x")
	if pr := x.(PeekResult); len(pr.Values) != 0 || pr.Init != "0" {
		t.Errorf("fresh peek = %+v, want empty multiset with init 0", pr)
	}
	// Both post, then both peek: each sees the multiset {A, B}.
	for _, step := range []int{0, 1, 0, 1} {
		if err := m.Step(step); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 2; p++ {
		seen, _ := m.Local(p, "seen")
		pr := seen.(PeekResult)
		if len(pr.Values) != 2 {
			t.Fatalf("proc %d peek = %+v, want 2 subvalues", p, pr)
		}
		if pr.Values[0] != "A" || pr.Values[1] != "B" {
			t.Errorf("proc %d peek values = %v, want [A B] (canonical order)", p, pr.Values)
		}
	}
}

func TestPostOverwritesOwnSubvalue(t *testing.T) {
	b := NewBuilder()
	x := b.Sym("x")
	b.Compute(func(r *Regs) { r.Set(x, "first") })
	b.Post("n", "x")
	b.Compute(func(r *Regs) { r.Set(x, "second") })
	b.Post("n", "x")
	b.Peek("n", "seen")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(system.Fig1(), system.InstrQ, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	seen, _ := m.Local(0, "seen")
	pr := seen.(PeekResult)
	if len(pr.Values) != 1 || pr.Values[0] != "second" {
		t.Errorf("peek after re-post = %v, want [second]: post replaces own subvalue", pr.Values)
	}
}

func TestAnonymityIdenticalInitsStayIdentical(t *testing.T) {
	// Two processors with the same init running the same program under
	// round-robin must have identical fingerprints after every full
	// round — the dynamic core of the similarity argument.
	s := system.Fig1()
	b := NewBuilder()
	initS := b.Sym("init")
	b.Label("loop")
	b.Post("n", "init")
	b.Peek("n", "x")
	b.Compute(func(r *Regs) { r.Set(initS, r.Get(initS).(string)+"!") })
	b.Jump("loop")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(s, system.InstrQ, prog)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		if err := m.Step(0); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(1); err != nil {
			t.Fatal(err)
		}
		if procFP(m, 0) != procFP(m, 1) {
			t.Fatalf("round %d: fingerprints diverged for identical processors", round)
		}
	}
}

func TestHaltedStepIsNoop(t *testing.T) {
	m, err := New(system.Fig1(), system.InstrS, mustProg(t, func(b *Builder) { b.Halt() }))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if !m.Halted(0) {
		t.Fatal("proc 0 should be halted")
	}
	before, stepsBefore := procFP(m, 0), m.Steps()
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if procFP(m, 0) != before {
		t.Error("stepping a halted processor changed its state")
	}
	if m.Steps() != stepsBefore+1 {
		t.Error("halted step must still count as a schedule step")
	}
}

// TestHaltedStepPreservesFingerprintCache is the regression test for the
// halted-step bug: stepping an already-halted processor used to clear
// its window (and re-assign Halted) although the state was unchanged.
// The name dates from the fingerprint cache, since deleted; what stays
// is that the halted stutter leaves every window alone: the whole-state
// key, re-encoded into the same buffer, is byte-identical, while a
// second processor that has not yet run keeps its own window.
func TestHaltedStepPreservesFingerprintCache(t *testing.T) {
	m, err := New(system.Fig1(), system.InstrS, mustProg(t, func(b *Builder) { b.Halt() }))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	key := m.AppendStateKey(nil, nil, nil)
	want, fp1 := string(key), procFP(m, 1)
	stepsBefore := m.Steps()
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if m.Steps() != stepsBefore+1 {
		t.Error("halted step must still count as a schedule step")
	}
	if !m.Halted(0) || m.Halted(1) {
		t.Errorf("halted step changed who is halted: p0 %v, p1 %v", m.Halted(0), m.Halted(1))
	}
	if got := string(m.AppendStateKey(key[:0], nil, nil)); got != want {
		t.Errorf("halted step changed the state key: %q -> %q", want, got)
	}
	if got := procFP(m, 1); got != fp1 {
		t.Errorf("halted step of p0 changed p1's window: %q -> %q", fp1, got)
	}
}

// TestAppendProcFingerprintRejectsVariables: AppendProcFingerprint takes
// a processor index only. Index NumProcs() names no processor, so the
// call must panic rather than hand back variable 0's window.
func TestAppendProcFingerprintRejectsVariables(t *testing.T) {
	m, err := New(system.Fig2(), system.InstrQ, mustProg(t, func(b *Builder) { b.Halt() }))
	if err != nil {
		t.Fatal(err)
	}
	if !panics(func() { m.AppendProcFingerprint(nil, m.NumProcs()) }) {
		t.Error("AppendProcFingerprint(nil, NumProcs()) did not panic")
	}
}

func TestRunStopsWhenAllHalted(t *testing.T) {
	m, err := New(system.Fig1(), system.InstrS, counterProgram(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sched.RoundRobin(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Run(rr)
	if err != nil {
		t.Fatal(err)
	}
	if n >= 200 {
		t.Errorf("Run executed %d steps; should stop early after halt", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, err := New(system.Fig1(), system.InstrQ, mustProg(t, func(b *Builder) {
		z := b.Sym("z")
		b.Post("n", "init")
		b.Compute(func(r *Regs) { r.Set(z, 1) })
		b.Halt()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if c.Fingerprint() != m.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == m.Fingerprint() {
		t.Error("stepping the original changed the clone")
	}
}

func TestSelectedProcs(t *testing.T) {
	prog := mustProg(t, func(b *Builder) {
		initS, sel := b.Sym("init"), b.Sym("selected")
		b.Compute(func(r *Regs) {
			if r.Get(initS) == "A" {
				r.Set(sel, true)
			}
		})
		b.Halt()
	})
	s := system.Fig1()
	s.ProcInit[0] = "A"
	m, err := New(s, system.InstrS, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	got := m.SelectedProcs()
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("SelectedProcs = %v, want [0]", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Build(); !errors.Is(err, ErrEmptyProgram) {
		t.Errorf("empty program error = %v", err)
	}
	b := NewBuilder()
	b.Jump("nowhere")
	if _, err := b.Build(); !errors.Is(err, ErrUnknownLabel) {
		t.Errorf("unknown label error = %v", err)
	}
	b2 := NewBuilder()
	b2.JumpIf(func(*Regs) bool { return true }, "missing")
	if _, err := b2.Build(); !errors.Is(err, ErrUnknownLabel) {
		t.Errorf("unknown JumpIf label error = %v", err)
	}
}

// TestBuilderRejectsDuplicateLabel is the regression test for labels
// defined twice: Label used to overwrite the earlier definition, so
// every jump to the label silently landed on the last one. Build must
// fail with ErrDupLabel and name the label.
func TestBuilderRejectsDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.Halt()
	b.Label("loop")
	b.Jump("top")
	b.Label("top")
	b.Jump("loop")
	_, err := b.Build()
	if !errors.Is(err, ErrDupLabel) {
		t.Fatalf("Build error = %v, want ErrDupLabel", err)
	}
	if !strings.Contains(err.Error(), `"top"`) {
		t.Errorf("error %q does not name the duplicate label", err)
	}
}

func TestStepErrors(t *testing.T) {
	m, err := New(system.Fig1(), system.InstrS, mustProg(t, func(b *Builder) {
		b.Write("n", "unset")
		b.Halt()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(5); !errors.Is(err, ErrBadProcessor) {
		t.Errorf("bad processor = %v", err)
	}
	if err := m.Step(0); !errors.Is(err, ErrMissingLocal) {
		t.Errorf("missing local = %v", err)
	}
}

func TestNewErrors(t *testing.T) {
	prog := mustProgStandalone(func(b *Builder) { b.Halt() })
	bad := system.Fig1()
	bad.Nbr[0][0] = 9
	if _, err := New(bad, system.InstrS, prog); err == nil {
		t.Error("invalid system should fail")
	}
	if _, err := New(system.Fig1(), system.InstrSet(42), prog); !errors.Is(err, ErrBadInstrSet) {
		t.Error("bad instruction set should fail")
	}
}

// TestNewBindsSharedNames pins that shared-name resolution moved to New:
// a program naming a variable the system does not define fails at bind
// time, before any step runs.
func TestNewBindsSharedNames(t *testing.T) {
	prog := mustProgStandalone(func(b *Builder) { b.Read("no-such-name", "x"); b.Halt() })
	if _, err := New(system.Fig1(), system.InstrS, prog); !errors.Is(err, system.ErrUnknownName) {
		t.Errorf("New with unknown shared name = %v, want ErrUnknownName", err)
	}
}

// procFP is processor p's fingerprint window as a string.
func procFP(m *Machine, p int) string { return string(m.AppendProcFingerprint(nil, p)) }

// panics reports whether fn panicked.
func panics(fn func()) (panicked bool) {
	defer func() {
		panicked = recover() != nil
	}()
	fn()
	return
}

func mustProg(t *testing.T, f func(*Builder)) *Program {
	t.Helper()
	b := NewBuilder()
	f(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustProgStandalone(f func(*Builder)) *Program {
	b := NewBuilder()
	f(b)
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
