// Package runcfg defines the run-configuration vocabulary shared by the
// simsym facade's functional options and the simsymd daemon's JSON
// session API. The facade's Options embeds Common, and simsymd's
// session-create endpoint unmarshals the same struct from JSON, so a
// daemon config file and a Go option list spell every knob identically.
//
// Common deliberately excludes the two knobs that cannot cross a process
// boundary — context.Context and the *obs.Recorder — which stay on the
// facade's Options wrapper.
package runcfg

import (
	"encoding/json"
	"fmt"
	"time"
)

// Duration is a time.Duration that marshals to JSON as a Go duration
// string ("30s", "1h2m") and unmarshals from either that string form or
// a bare number of nanoseconds (the encoding/json default for
// time.Duration), so hand-written daemon configs stay readable while
// machine-emitted ones round-trip.
type Duration time.Duration

// Std returns the wrapped time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string or a number of nanoseconds.
// JSON null leaves d as it is, as it does every other Common field.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("runcfg: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("runcfg: duration must be a string or nanoseconds: %s", data)
	}
	*d = Duration(ns)
	return nil
}

// Common is the option set shared by every options-based facade entry
// point (SimilarityOpts, DecideOpts, BuildSelectOpts, CheckOpts,
// CheckDiningOpts, CheckStatistical*, RunFair) and by simsymd sessions.
// The zero value means: engine-default budgets, sequential execution,
// seed 0, no symmetry reduction, no faults, default schedule kind.
type Common struct {
	// MaxStates bounds model-checker exploration (0 = engine default).
	MaxStates int `json:"max_states,omitempty"`
	// MaxDuration bounds wall-clock run time (0 = unbounded).
	MaxDuration Duration `json:"max_duration,omitempty"`
	// MaxMemBytes bounds the checker's estimated footprint (0 = unbounded).
	MaxMemBytes int64 `json:"max_mem_bytes,omitempty"`
	// Workers > 1 spreads statistical trials over that many goroutines;
	// results are identical to sequential runs. Every other engine runs
	// sequentially and ignores it.
	Workers int `json:"workers,omitempty"`
	// Seed drives every seeded randomness consumer: RunFair, statistical
	// trials, and daemon session schedules and fault streams.
	Seed int64 `json:"seed,omitempty"`
	// Symmetry dedups model-checker states modulo the automorphism group.
	Symmetry bool `json:"symmetry,omitempty"`
	// Epsilon and Delta configure the statistical checkers' stopping
	// rule (zero values mean the engine defaults, 0.01 / 0.05).
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// MaxSamples caps statistical trials below the Okamoto bound.
	MaxSamples int `json:"max_samples,omitempty"`
	// Depth bounds each sampled run's scheduler slots (0 = engine
	// default, 1024).
	Depth int `json:"depth,omitempty"`
	// FaultClasses names the seeded fault classes injected into sampled
	// or session runs ("crash", "stall", "lockdrop", comma-separated;
	// "" injects nothing).
	FaultClasses string `json:"faults,omitempty"`
	// SchedKind picks the seeded schedule generator: "uniform" (default)
	// or "shuffled" ((2n-1)-bounded fair).
	SchedKind string `json:"sched,omitempty"`
	// MaxSlots bounds a harness-driven run's schedule slots, including
	// skipped ones (0 = harness default, 10000). Consumed by daemon
	// sessions only: a sampled trial's slots are bounded by Depth.
	MaxSlots int `json:"max_slots,omitempty"`
}
