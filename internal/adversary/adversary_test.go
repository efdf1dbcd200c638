package adversary

import (
	"fmt"
	"math/rand"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/sched"
	"simsym/internal/system"
)

// loopMachine builds a machine whose processors never halt, for driving
// schedulers that ignore or only lightly inspect the state.
func loopMachine(t *testing.T, n int) *machine.Machine {
	t.Helper()
	sys, err := system.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	b := machine.NewBuilder()
	b.Label("top")
	b.Compute(func(*machine.Regs) {})
	b.Jump("top")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(sys, system.InstrS, prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// collect drives s against m for up to max picks, stepping the machine
// so adaptive schedulers see a live run.
func collect(t *testing.T, s machine.Scheduler, m *machine.Machine, max int) []int {
	t.Helper()
	var out []int
	for len(out) < max {
		p, ok := s.Next(m)
		if !ok {
			break
		}
		out = append(out, p)
		if err := m.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestAdaptersMatchSchedGenerators(t *testing.T) {
	const n, rounds = 4, 6
	m := loopMachine(t, n)

	rr, err := sched.RoundRobin(n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, RoundRobin(n), m, n*rounds); !equalInts(got, rr) {
		t.Errorf("RoundRobin adapter %v != sched %v", got, rr)
	}

	want, err := sched.ShuffledRounds(rand.New(rand.NewSource(9)), n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, Shuffled(rand.New(rand.NewSource(9)), n), m, n*rounds)
	if !equalInts(got, want) {
		t.Errorf("Shuffled adapter %v != sched %v", got, want)
	}

	want, err = sched.UniformRandom(rand.New(rand.NewSource(9)), n, 40)
	if err != nil {
		t.Fatal(err)
	}
	got = collect(t, Uniform(rand.New(rand.NewSource(9)), n), m, 40)
	if !equalInts(got, want) {
		t.Errorf("Uniform adapter %v != sched %v", got, want)
	}

	if _, ok := Uniform(rand.New(rand.NewSource(9)), 0).Next(m); ok {
		t.Error("Uniform over no processors should end the stream")
	}
	u := Uniform(rand.New(rand.NewSource(9)), n)
	if allocs := testing.AllocsPerRun(100, func() { u.Next(m) }); allocs != 0 {
		t.Errorf("a Uniform pick allocates %v times, want 0", allocs)
	}

	want, err = sched.Starve([]int{1, 3}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	got = collect(t, Starver([]int{1, 3}), m, 2*rounds)
	if !equalInts(got, want) {
		t.Errorf("Starver adapter %v != sched %v", got, want)
	}

	fin := []int{2, 0, 1, 0}
	got = collect(t, FromSlice(fin), m, 100)
	if !equalInts(got, fin) {
		t.Errorf("FromSlice %v != %v (must end when exhausted)", got, fin)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKBoundedRejectsTightWindows(t *testing.T) {
	if _, err := NewKBounded(RoundRobin(3), 3, 2); err == nil {
		t.Error("k < n should be rejected: no k-window can cover n processors")
	}
	if _, err := NewKBounded(RoundRobin(3), 0, 5); err == nil {
		t.Error("n < 1 should be rejected")
	}
}

func TestKBoundedEnforcerEmitsKBoundedStreams(t *testing.T) {
	// Whatever the inner scheduler proposes — uniform random picks are
	// not k-bounded for any k — the enforcer's output must satisfy
	// sched.IsKBounded on every prefix.
	for seed := int64(0); seed < 8; seed++ {
		const n, k, steps = 5, 7, 600
		m := loopMachine(t, n)
		s, err := NewKBounded(Uniform(rand.New(rand.NewSource(seed)), n), n, k)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, s, m, steps)
		if len(got) != steps {
			t.Fatalf("seed %d: enforcer ended early at %d", seed, len(got))
		}
		if !sched.IsKBounded(got, n, k) {
			t.Errorf("seed %d: enforced stream is not %d-bounded", seed, k)
		}
	}
}

func TestKBoundedPassesThroughLegalInner(t *testing.T) {
	// Round-robin is n-bounded, so with k >= 2n-1 the enforcer should
	// never override it.
	const n, k, steps = 4, 7, 80
	m := loopMachine(t, n)
	s, err := NewKBounded(RoundRobin(n), n, k)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, s, m, steps)
	want, err := sched.RoundRobin(n, steps/n)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, want) {
		t.Errorf("enforcer rewrote a legal round-robin: %v", got[:12])
	}
}

// strawmanProgram is the E7 naive selection attempt in S: read the shared
// variable, select if it still holds "0", then mark it. Correct under
// round-robin by luck of interleaving, broken under the FLP adversary.
func strawmanProgram(t *testing.T) *machine.Program {
	t.Helper()
	b := machine.NewBuilder()
	x, selected, mark := b.Sym("x"), b.Sym("selected"), b.Sym("mark")
	b.Read("n", "x")
	b.Compute(func(r *machine.Regs) {
		if r.Get(x) == "0" {
			r.Set(selected, true)
			r.Set(mark, "taken")
		} else {
			r.Set(mark, "seen")
		}
	})
	b.Write("n", "mark")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestFLPForcesDoubleSelectionOnSymmetricSystem(t *testing.T) {
	// Theorem 1 on Figure 1: both processors read "0" and are poised to
	// select; the adversary steps them back-to-back and Uniqueness
	// breaks. No general-schedule algorithm escapes this on a symmetric
	// system.
	h := &Harness{
		Sys:        system.Fig1(),
		Instr:      system.InstrS,
		Prog:       strawmanProgram(t),
		Sched:      NewFLP(),
		StatePreds: []mc.StatePredicate{mc.UniquenessPred},
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("FLP adversary should have forced a double selection")
	}
	if got := res.Final.SelectedProcs(); len(got) < 2 {
		t.Errorf("expected >= 2 selected, got %v", got)
	}
}

// Starver streams only the given processors, round-robin, forever —
// Theorem 1's static starving adversary (sched.Starve as a stream).
func Starver(active []int) machine.Scheduler {
	return &generator{gen: func() ([]int, error) { return sched.Starve(active, 1) }}
}

// NewKBounded wraps inner so the emitted stream is k-bounded fair for n
// processors. Requires k >= n (no schedule with fewer slots than
// processors per window can cover them all).
func NewKBounded(inner machine.Scheduler, n, k int) (*KBounded, error) {
	if n < 1 || k < n {
		return nil, fmt.Errorf("%w: n=%d k=%d (need k >= n >= 1)", sched.ErrBadArgs, n, k)
	}
	last := make([]int, n)
	for i := range last {
		last[i] = -1
	}
	return &KBounded{inner: inner, k: k, last: last, ds: make([]int, 0, n-1)}, nil
}
