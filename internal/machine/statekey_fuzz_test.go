package machine_test

// Differential fuzzing of AppendStateKey against the pre-compilation
// oracle encodings. The harness lives in an external test package so it
// can seed from every shipped topology, including the oriented tables
// (internal/dining imports machine, so an internal test file could not
// import it back).

import (
	"bytes"
	"math/rand"
	"testing"

	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/system"
)

// fuzzTopologies returns the shipped topologies the harness seeds from;
// sel indexes into them modulo the count.
func fuzzTopology(t testing.TB, sel uint8) *system.System {
	switch sel % 6 {
	case 0:
		return system.Fig1()
	case 1:
		return system.Fig2()
	case 2:
		return system.Fig3()
	case 3:
		s, err := system.Dining(5)
		if err != nil {
			t.Fatal(err)
		}
		return s
	case 4:
		s, err := system.DiningFlipped(4)
		if err != nil {
			t.Fatal(err)
		}
		return s
	default:
		s, err := dining.OrientedTable(4, dining.SingleFlipOrientation(4))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// FuzzStateKeyOracle differentially fuzzes the compiled state-key encode
// path against the oracle encodings, over random programs and schedules
// on every shipped topology:
//
//  1. Equality classes: AppendStateKey keys of two machines are equal
//     exactly when their FingerprintOracle strings are equal — compared
//     against replays of schedule prefixes, of which the full-length
//     one must reproduce the key, and against the schedule with
//     processors 0 and 1 exchanged, which on a symmetric topology swaps
//     a Q program's posters.
//  2. Relabelings: AppendStateKey with a permutation's procAt/varAt must
//     produce byte-for-byte the plain key of an explicitly permuted
//     machine — the same program run on system.Apply(s, perm) under the
//     correspondingly permuted schedule.
//  3. Sampled schedules: two runs of a schedule drawn the way the
//     statistical checker draws them — a PRNG stream seeded per sample
//     index (mc.SampleSeed) — land on equal keys and equal oracle
//     strings, so the encoders are fuzzed on the exact step
//     distributions mc.Sample runs.
func FuzzStateKeyOracle(f *testing.F) {
	for topo := uint8(0); topo < 6; topo++ {
		for is := uint8(0); is < 3; is++ {
			f.Add(topo, is, int64(topo)*31+int64(is), []byte{0, 1, 2, 0, 1, 2, 1, 0, 2, 2, 0, 1})
		}
	}
	// On Fig1 under Q, seed 373's program and this schedule leave the
	// same frames and the same multiset under n as the exchanged
	// schedule, but with p's and q's posts swapped.
	f.Add(uint8(0), uint8(2), int64(373), []byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, topo, instrSel uint8, seed int64, schedule []byte) {
		if len(schedule) > 64 {
			schedule = schedule[:64]
		}
		s := fuzzTopology(t, topo)
		instr := []system.InstrSet{system.InstrS, system.InstrL, system.InstrQ}[int(instrSel)%3]
		rng := rand.New(rand.NewSource(seed))
		prog, err := machine.RandomProgram(rng, s.Names, instr, 1+rng.Intn(8))
		if err != nil {
			t.Skip("generator rejected the shape")
		}
		perm := system.Permutation{ProcPerm: rng.Perm(s.NumProcs()), VarPerm: rng.Perm(s.NumVars())}
		s2, err := system.Apply(s, perm)
		if err != nil {
			t.Fatal(err)
		}

		// run executes the schedule (proc indices mod NumProcs, remapped
		// through mapProc when set) and reports how far it got.
		run := func(sys *system.System, n int, mapProc []int) (*machine.Machine, int) {
			m, err := machine.New(sys, instr, prog)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				p := int(schedule[i]) % sys.NumProcs()
				if mapProc != nil {
					p = mapProc[p]
				}
				if _, err := m.StepOrSkip(p); err != nil {
					return m, i
				}
			}
			return m, n
		}

		m, steps := run(s, len(schedule), nil)
		mKey := m.AppendStateKey(nil, nil, nil)
		mOracle := m.FingerprintOracle()

		// 1. Key equality ⇔ oracle equality against prefix replays. The
		// full-length replay must land in m's own class.
		for _, cut := range []int{steps, steps / 2, 0} {
			o, osteps := run(s, cut, nil)
			if osteps != cut {
				t.Fatalf("replay of %d steps stopped at %d; execution is not deterministic", cut, osteps)
			}
			keyEq := bytes.Equal(mKey, o.AppendStateKey(nil, nil, nil))
			oracleEq := mOracle == o.FingerprintOracle()
			if keyEq != oracleEq {
				t.Fatalf("cut %d/%d: key equality %v but oracle equality %v\nkey    %q\noracle %q",
					cut, steps, keyEq, oracleEq, mKey, mOracle)
			}
			if cut == steps && !keyEq {
				t.Fatalf("full-length replay diverged from the key")
			}
		}
		swap := make([]int, s.NumProcs())
		for p := range swap {
			swap[p] = p
		}
		swap[0], swap[1] = 1, 0
		if o, _ := run(s, steps, swap); bytes.Equal(mKey, o.AppendStateKey(nil, nil, nil)) != (mOracle == o.FingerprintOracle()) {
			t.Fatalf("exchanged processors 0 and 1: key equality disagrees with oracle equality\nkey    %q\nswapped %q", mKey, o.AppendStateKey(nil, nil, nil))
		}

		// 2. Permuted relabeling vs. the explicitly permuted machine.
		m2, steps2 := run(s2, steps, perm.ProcPerm)
		if steps2 != steps {
			t.Fatalf("permuted machine stopped at %d/%d; permutation broke execution symmetry", steps2, steps)
		}
		invP := make([]int, len(perm.ProcPerm))
		for p, ip := range perm.ProcPerm {
			invP[ip] = p
		}
		invV := make([]int, len(perm.VarPerm))
		for v, iv := range perm.VarPerm {
			invV[iv] = v
		}
		relabeled := m.AppendStateKey(nil, invP, invV)
		plain := m2.AppendStateKey(nil, nil, nil)
		if !bytes.Equal(relabeled, plain) {
			t.Fatalf("relabeled key of m != plain key of the permuted machine\nrelabeled %q\nplain     %q", relabeled, plain)
		}

		// 3. One sampled-schedule execution: derive the per-sample seed
		// exactly as mc.Sample would for trial 0 of this base seed, draw a
		// uniform schedule from it, and check that two runs of the same
		// draws land in the same key/oracle class.
		sampled := func(sys *system.System) *machine.Machine {
			srng := rand.New(rand.NewSource(mc.SampleSeed(seed, 0)))
			m, err := machine.New(sys, instr, prog)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 48; i++ {
				if _, err := m.StepOrSkip(srng.Intn(sys.NumProcs())); err != nil {
					break
				}
			}
			return m
		}
		first, second := sampled(s), sampled(s)
		if !bytes.Equal(first.AppendStateKey(nil, nil, nil), second.AppendStateKey(nil, nil, nil)) {
			t.Fatalf("sampled schedule: the key diverged between two runs")
		}
		if first.FingerprintOracle() != second.FingerprintOracle() {
			t.Fatalf("sampled schedule: oracle strings diverged between two runs")
		}
	})
}
