package machine

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"simsym/internal/sched"
	"simsym/internal/system"
)

// TestStateKeyIffFingerprintQuick pins the soundness premise of
// mc.stateIndex as a property: for machines over the same system and
// program, AppendStateKey keys are equal exactly when FingerprintOracle
// strings are equal. Property-checked with testing/quick over random
// systems, random programs, and random schedules.
func TestStateKeyIffFingerprintQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := system.RandomSystem(rng, system.RandomOpts{
			Procs:      1 + rng.Intn(4),
			Vars:       1 + rng.Intn(3),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(2),
		})
		if err != nil {
			return true // generator rejected a degenerate shape; not a property failure
		}
		instr := []system.InstrSet{system.InstrS, system.InstrL, system.InstrQ}[rng.Intn(3)]
		prog, err := RandomProgram(rng, s.Names, instr, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
			return false
		}
		var keys [][]byte
		var fps []string
		for run := 0; run < 4; run++ {
			m, err := New(s, instr, prog)
			if err != nil {
				t.Fatal(err)
				return false
			}
			schedule, err := sched.UniformRandom(rng, s.NumProcs(), 1+rng.Intn(25))
			if err != nil {
				t.Fatal(err)
				return false
			}
			if _, err := m.Run(schedule); err != nil {
				t.Fatal(err)
				return false
			}
			keys = append(keys, m.AppendStateKey(nil, nil, nil))
			fps = append(fps, m.FingerprintOracle())
		}
		for i := range keys {
			for j := range keys {
				if (fps[i] == fps[j]) != bytes.Equal(keys[i], keys[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
