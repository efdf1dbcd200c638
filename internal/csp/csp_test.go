package csp

import (
	"errors"
	"math/rand"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/sched"
	"simsym/internal/selection"
	"simsym/internal/system"
)

func TestValidate(t *testing.T) {
	if err := PairNet().Validate(); err != nil {
		t.Errorf("pair net: %v", err)
	}
	ring, err := RingNet(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.Validate(); err != nil {
		t.Errorf("ring net: %v", err)
	}
	bad := PairNet()
	bad.Chan = [][]int{{0}, {7}}
	if err := bad.Validate(); !errors.Is(err, ErrShape) {
		t.Errorf("bad channel = %v", err)
	}
	three := &Net{
		Ports:    []system.Name{"x"},
		ProcIDs:  []string{"a", "b", "c"},
		Init:     []string{"0", "0", "0"},
		Chan:     [][]int{{0}, {0}, {0}},
		NumChans: 1,
	}
	if err := three.Validate(); !errors.Is(err, ErrShape) {
		t.Errorf("three-endpoint channel = %v", err)
	}
	if _, err := RingNet(1); !errors.Is(err, ErrShape) {
		t.Errorf("tiny ring = %v", err)
	}
}

func TestToSystemShape(t *testing.T) {
	ring, err := RingNet(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ring.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	vn := s.VarNeighbors()
	for c := range vn {
		if len(vn[c]) != 2 {
			t.Errorf("channel %d has %d edges", c, len(vn[c]))
		}
	}
}

func TestPairIsElectableInExtendedCSP(t *testing.T) {
	// Two processes on one channel: the symmetric rendezvous race picks
	// a winner, exactly like Figure 1's lock race.
	d, err := DecideExtended(PairNet())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Fatalf("pair should be solvable in extended CSP: %s", d.Reason)
	}
	ok, err := TransferCondition(PairNet())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("pair's similar neighbors should FAIL the transfer condition (they need the race)")
	}
}

func TestRingNotElectableEvenExtended(t *testing.T) {
	// Anonymous CSP rings cannot elect even with output guards: each
	// rendezvous orders one PAIR, but a rotation-symmetric outcome
	// remains possible (the L analogy: different-name sharers).
	ring, err := RingNet(4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecideExtended(ring)
	if err != nil {
		t.Fatal(err)
	}
	if d.Solvable {
		t.Errorf("anonymous CSP ring should not be electable: %s", d.Reason)
	}
}

func TestMarkedRingElectable(t *testing.T) {
	ring, err := RingNet(5)
	if err != nil {
		t.Fatal(err)
	}
	ring.Init[2] = "leader"
	d, err := DecideExtended(ring)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Fatalf("marked CSP ring should be electable: %s", d.Reason)
	}
	ok, err := TransferCondition(ring)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("marked ring's full separation should satisfy the transfer condition")
	}
}

func TestSelectExtendedPairEndToEnd(t *testing.T) {
	prog, d, err := SelectExtended(PairNet())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Fatalf("decision: %s", d.Reason)
	}
	sys, err := PairNet().ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		m, err := machine.New(sys, system.InstrL, prog)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < 2000 && !m.AllHalted(); r++ {
			round, err := sched.ShuffledRounds(rng, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(round); err != nil {
				t.Fatal(err)
			}
		}
		if sel := m.SelectedProcs(); len(sel) != 1 {
			t.Errorf("seed %d: selected %v", seed, sel)
		}
	}
}

func TestPlainLimitation(t *testing.T) {
	if err := PlainLimitation(); err == nil {
		t.Error("plain CSP limitation should be an error")
	}
}

// SelectExtended generates the runnable election program (Algorithm 4 on
// the channel-shaped system — the rendezvous race is the lock race) for
// an extended-CSP-solvable network.
func SelectExtended(n *Net) (*machine.Program, *selection.Decision, error) {
	s, err := n.ToSystem()
	if err != nil {
		return nil, nil, err
	}
	return selection.Select(s, system.InstrL, system.SchedFair)
}
