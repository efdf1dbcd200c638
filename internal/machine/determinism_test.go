package machine

import (
	"math/rand"
	"testing"

	"simsym/internal/sched"
	"simsym/internal/system"
)

// TestRunIsDeterministic: the machine is a deterministic function of
// (system, program, schedule) — the only nondeterminism in the model is
// the schedule itself. Property-checked over random programs, systems,
// and schedules.
func TestRunIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 60; trial++ {
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(5),
			Vars:       1 + rng.Intn(4),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			continue
		}
		instr := system.InstrQ
		if rng.Intn(2) == 0 {
			instr = system.InstrL
		}
		prog, err := RandomProgram(rng, s.Names, instr, 1+rng.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		schedule, err := sched.UniformRandom(rng, s.NumProcs(), 120)
		if err != nil {
			t.Fatal(err)
		}
		run := func() string {
			m, err := New(s, instr, prog)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(schedule); err != nil {
				t.Fatal(err)
			}
			return m.Fingerprint()
		}
		if run() != run() {
			t.Fatalf("trial %d: same schedule produced different final states", trial)
		}
	}
}

// TestFingerprintConsistency: the fingerprint after any step sequence
// equals its clone's after every step, and the fingerprint of a fresh
// machine replaying the same steps.
func TestFingerprintConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	s := system.Fig2()
	prog, err := RandomProgram(rng, s.Names, system.InstrQ, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(s, system.InstrQ, prog)
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	for i := 0; i < 200; i++ {
		p := rng.Intn(3)
		steps = append(steps, p)
		if err := m.Step(p); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Clone().Fingerprint(), m.Fingerprint(); got != want {
			t.Fatalf("step %d: clone fingerprint differs from original", i)
		}
	}
	replay, err := New(s, system.InstrQ, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range steps {
		if err := replay.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	if m.Fingerprint() != replay.Fingerprint() {
		t.Fatal("replayed machine fingerprint differs (nondeterminism)")
	}
}
