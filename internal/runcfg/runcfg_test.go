package runcfg

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzRuncfgDecode feeds arbitrary bytes to the JSON decoding simsymd
// runs on session configs. No input may panic, and whatever decodes
// must survive a round trip: its encoding decodes to an equal Common,
// Duration fields included.
func FuzzRuncfgDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`null`,
		`{"max_states":1000,"max_duration":"1m30s","max_mem_bytes":1048576,"workers":2,` +
			`"hot_index_bytes":65536,"spill_dir":"/tmp","seed":-7,"symmetry":true,"epsilon":0.01,` +
			`"delta":0.05,"max_samples":100,"depth":64,"faults":"crash,stall","sched":"shuffled","max_slots":500}`,
		`{"max_duration":1500000000}`,
		`{"max_duration":"-2562047h47m16.854775808s"}`,
		`{"max_duration":"bogus"}`,
		nullDuration,
		`{"epsilon":1e308,"delta":5e-324,"seed":9223372036854775807}`,
		`{"MAX_STATES":1,"max_states":2}`,
		`[1]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Common
		err := json.Unmarshal(data, &c)
		if string(data) == nullDuration && (err != nil || c.MaxDuration != 0) {
			t.Fatalf("%s decoded to %+v, %v; want an unset MaxDuration", data, c, err)
		}
		if err != nil {
			return
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%+v decoded but does not encode: %v", c, err)
		}
		var back Common
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("the encoding %s of %+v does not decode: %v", enc, c, err)
		}
		if back != c {
			t.Fatalf("round trip changed the config:\n%+v\n%+v\nvia %s", c, back, enc)
		}
	})
}

// nullDuration is a config whose max_duration is JSON null.
const nullDuration = `{"max_duration":null}`

// TestDurationNullIsUnset: JSON null leaves a Duration unset, as it
// leaves every other Common field: a zero Common stays zero, and a set
// MaxDuration keeps its value.
func TestDurationNullIsUnset(t *testing.T) {
	var c Common
	if err := json.Unmarshal([]byte(nullDuration), &c); err != nil || c != (Common{}) {
		t.Fatalf("%s decoded to %+v, %v; want the zero Common", nullDuration, c, err)
	}
	c = Common{MaxDuration: Duration(time.Second), MaxStates: 7}
	if err := json.Unmarshal([]byte(`{"max_duration":null,"max_states":null}`), &c); err != nil ||
		c != (Common{MaxDuration: Duration(time.Second), MaxStates: 7}) {
		t.Fatalf("null fields changed a set config: %+v, %v", c, err)
	}
}

// TestSpillKeysStillDecode: configs from when the checker had a disk
// spill tier carry hot_index_bytes and spill_dir. Common no longer has
// those fields and ignores unknown keys, so such a config decodes to its
// other fields without error.
func TestSpillKeysStillDecode(t *testing.T) {
	const old = `{"hot_index_bytes":65536,"spill_dir":"/tmp","max_states":7}`
	var c Common
	if err := json.Unmarshal([]byte(old), &c); err != nil || c != (Common{MaxStates: 7}) {
		t.Fatalf("%s decoded to %+v, %v; want {MaxStates: 7} and no error", old, c, err)
	}
}
