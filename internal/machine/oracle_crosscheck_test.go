package machine_test

// Oracle cross-check for the compiled slot-frame VM: the test oracles
// (ProcFingerprintOracle, VarFingerprintOracle, FingerprintOracle)
// reproduce the pre-compilation string encodings, and these tests drive
// both encoders over every shipped topology to prove the binary encoding
// induces exactly the same equality classes — two states get equal state
// keys iff their oracle fingerprints are equal. CI runs this file under
// -race -count=2.

import (
	"fmt"
	"math/rand"
	"testing"

	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/system"
)

// bijection accumulates a one-to-one correspondence between two string
// encodings and fails the test on the first conflict in either direction.
type bijection struct {
	fwd, rev map[string]string
}

func newBijection() *bijection {
	return &bijection{fwd: make(map[string]string), rev: make(map[string]string)}
}

func (bj *bijection) observe(t *testing.T, where, a, b string) {
	t.Helper()
	if prev, ok := bj.fwd[a]; ok && prev != b {
		t.Fatalf("%s: new fingerprint maps to two oracle classes:\nnew   %q\noracle %q vs %q", where, a, b, prev)
	}
	if prev, ok := bj.rev[b]; ok && prev != a {
		t.Fatalf("%s: oracle fingerprint maps to two new classes:\noracle %q\nnew   %q vs %q", where, b, a, prev)
	}
	bj.fwd[a] = b
	bj.rev[b] = a
}

// crosscheck random-walks the machine and checks, at every reached state,
// that the state key and the per-processor and per-variable fingerprints
// stay in bijection with their oracle encodings.
func crosscheck(t *testing.T, sys *system.System, instr system.InstrSet, prog *machine.Program, seed int64, walks, steps int) {
	t.Helper()
	state := newBijection()
	procs := newBijection()
	vars := newBijection()
	rng := rand.New(rand.NewSource(seed))
	record := func(where string, m *machine.Machine) {
		state.observe(t, where, m.Fingerprint(), m.FingerprintOracle())
		for p := 0; p < m.NumProcs(); p++ {
			procs.observe(t, where, string(m.AppendProcFingerprint(nil, p)), m.ProcFingerprintOracle(p))
		}
		for v := 0; v < m.NumVars(); v++ {
			vars.observe(t, where, string(m.AppendVarFingerprint(nil, v)), m.VarFingerprintOracle(v))
		}
	}
	for w := 0; w < walks; w++ {
		m, err := machine.New(sys, instr, prog)
		if err != nil {
			t.Fatal(err)
		}
		record(fmt.Sprintf("walk %d init", w), m)
		for i := 0; i < steps; i++ {
			p := rng.Intn(sys.NumProcs())
			if err := m.Step(p); err != nil {
				t.Fatal(err)
			}
			record(fmt.Sprintf("walk %d step %d (proc %d)", w, i, p), m)
		}
	}
	if len(state.fwd) < 2 {
		t.Fatalf("cross-check degenerate: only %d distinct states reached", len(state.fwd))
	}
}

func TestOracleCrosscheckFigures(t *testing.T) {
	cases := []struct {
		name  string
		sys   *system.System
		instr system.InstrSet
	}{
		{"Fig1/S", system.Fig1(), system.InstrS},
		{"Fig1/L", system.Fig1(), system.InstrL},
		{"Fig2/Q", system.Fig2(), system.InstrQ},
		{"Fig2/S", system.Fig2(), system.InstrS},
		{"Fig3/S", system.Fig3(), system.InstrS},
		{"Fig3/Q", system.Fig3(), system.InstrQ},
	}
	for i, tc := range cases {
		tc := tc
		seed := int64(100 + i)
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 6; trial++ {
				prog, err := machine.RandomProgram(rng, tc.sys.Names, tc.instr, 2+rng.Intn(9))
				if err != nil {
					t.Fatal(err)
				}
				crosscheck(t, tc.sys, tc.instr, prog, seed+int64(trial), 4, 30)
			}
		})
	}
}

func TestOracleCrosscheckDiningTables(t *testing.T) {
	fork := func(meals int) *machine.Program {
		prog, err := dining.Program("left", "right", meals)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	cm, err := dining.ChandyMisraProgram(1)
	if err != nil {
		t.Fatal(err)
	}
	dp5, err := system.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	dp6, err := system.DiningFlipped(6)
	if err != nil {
		t.Fatal(err)
	}
	oriented, err := dining.OrientedTable(5, dining.SingleFlipOrientation(5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sys  *system.System
		prog *machine.Program
	}{
		{"DP5", dp5, fork(2)},
		{"DP6-flipped", dp6, fork(2)},
		{"Oriented5-ChandyMisra", oriented, cm},
	}
	for i, tc := range cases {
		tc := tc
		seed := int64(200 + i)
		t.Run(tc.name, func(t *testing.T) {
			crosscheck(t, tc.sys, system.InstrL, tc.prog, seed, 5, 60)
		})
	}
}
