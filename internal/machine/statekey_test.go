package machine

import (
	"bytes"
	"math/rand"
	"testing"

	"simsym/internal/system"
)

// TestAppendStateKeyMatchesFingerprint checks the binary key and the
// oracle string fingerprint agree on equality across random runs.
func TestAppendStateKeyMatchesFingerprint(t *testing.T) {
	s := system.Fig1()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		prog, err := RandomProgram(rng, s.Names, system.InstrQ, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		var machines []*Machine
		var keys [][]byte
		var fps []string
		for run := 0; run < 3; run++ {
			m, err := New(s, system.InstrQ, prog)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < rng.Intn(12); step++ {
				if err := m.Step(rng.Intn(s.NumProcs())); err != nil {
					t.Fatal(err)
				}
			}
			machines = append(machines, m)
			keys = append(keys, m.AppendStateKey(nil, nil, nil))
			fps = append(fps, m.FingerprintOracle())
		}
		for i := range machines {
			for j := range machines {
				if (fps[i] == fps[j]) != bytes.Equal(keys[i], keys[j]) {
					t.Fatalf("key/fingerprint equality disagree for runs %d,%d:\nfp i %q\nfp j %q", i, j, fps[i], fps[j])
				}
			}
		}
	}
}

// TestAppendStateKeyPermutation checks that a permuted key equals the key
// of the symmetric image state: stepping processor 0 then permuting under
// the Fig1 swap automorphism gives the key of stepping processor 1.
func TestAppendStateKeyPermutation(t *testing.T) {
	s := system.Fig1()
	b := NewBuilder()
	x, x2 := b.Sym("x"), b.Sym("x2")
	b.Read("n", "x")
	b.Compute(func(r *Regs) { r.Set(x2, r.Get(x)) })
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	step := func(p int) *Machine {
		m, err := New(s, system.InstrS, prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Step(p); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, bm := step(0), step(1)
	swapProc := []int{1, 0}
	idVar := []int{0}
	got := a.AppendStateKey(nil, swapProc, idVar)
	want := bm.AppendStateKey(nil, nil, nil)
	if !bytes.Equal(got, want) {
		t.Error("permuted key should equal the symmetric image's key")
	}
	if bytes.Equal(a.AppendStateKey(nil, nil, nil), want) {
		t.Error("the two asymmetric states should have distinct raw keys")
	}
}
