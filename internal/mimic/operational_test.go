package mimic

import (
	"bytes"
	"math/rand"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

// TestFig3OperationalMimicry is the dynamic face of the mimic relation:
// with z starved (never scheduled), p and q run in lock step for ANY
// program — their states are equal after every {p,q} round — even though
// the full system's similarity labeling separates them. This is exactly
// the prose of Figure 3: "if z has not executed, then processors p and q
// behave as if they were similar."
func TestFig3OperationalMimicry(t *testing.T) {
	s := system.Fig3()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		prog, err := machine.RandomProgram(rng, s.Names, system.InstrQ, 1+rng.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(s, system.InstrQ, prog)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40; round++ {
			// Starve z: only p (0) and q (1) run.
			if err := m.Step(0); err != nil {
				t.Fatal(err)
			}
			if err := m.Step(1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.AppendProcFingerprint(nil, 0), m.AppendProcFingerprint(nil, 1)) {
				t.Fatalf("trial %d round %d: p and q diverged with z starved", trial, round)
			}
		}
	}
}

// TestFig3DivergenceOnceZRuns: the flip side — once z executes, p and q
// CAN diverge (z's posts reach only p's variable u and q's variable w
// asymmetrically). We find a program and schedule where they do, showing
// the lock step above is about z's silence, not about p ~ q.
func TestFig3DivergenceOnceZRuns(t *testing.T) {
	s := system.Fig3()
	b := machine.NewBuilder()
	b.Post("a", "init") // p posts into u, q posts into w, z posts into w
	b.Peek("a", "x")    // p sees only its own post; q sees z's too
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(s, system.InstrQ, prog)
	if err != nil {
		t.Fatal(err)
	}
	// z posts first, then p and q both post and peek in lock step.
	for _, step := range []int{2, 0, 1, 0, 1} {
		if err := m.Step(step); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(m.AppendProcFingerprint(nil, 0), m.AppendProcFingerprint(nil, 1)) {
		t.Fatal("after z runs, q's peek of w should differ from p's peek of u")
	}
}
