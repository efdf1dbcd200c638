// Statistical model checking: instead of exhaustively closing the state
// space, Sample draws i.i.d. random executions and estimates the
// probability that a bounded run violates the checked predicates. The
// sample size is fixed a priori by the Okamoto/Chernoff–Hoeffding bound,
// so "stopping" means drawing exactly OkamotoBound(ε, δ) trials: the
// empirical violation frequency is then within ε of the true probability
// with confidence 1−δ, unconditionally (no variance estimate, no
// sequential-testing correction needed).
//
// The sampler is generic over a TrialFunc rather than running the
// adversary harness directly, because the adversary package imports mc
// for its predicate types; the root facade closes the loop by wiring
// harness-backed trials into Sample. Determinism is by construction:
// every trial's PRNG seed is derived from (base seed, sample index) via
// SplitMix64, trials are merged in sample-index order, and progress
// events fire at fixed round boundaries — so the result is byte-for-byte
// identical across worker counts.
package mc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"simsym/internal/machine"
	"simsym/internal/obs"
)

// ProcPredicate inspects the machine immediately after processor proc
// executed a step; a non-empty return is a violation description. Unlike
// StatePredicate — which sampled runs would otherwise evaluate over all
// n processors after every step — implementations are expected to
// confine their inspection to state within O(1) of proc, which is what
// makes per-step safety checking affordable at large n inside sampled
// executions.
type ProcPredicate func(m *machine.Machine, proc int) string

// LocalUniquenessPred is the ProcPredicate form of UniquenessPred. After
// a step, a second selected processor can exist only if the stepping
// processor is itself selected (selection flags change only on the
// owner's own steps; faults halt or unlock, never select), so the O(n)
// scan runs only on the rare selected step — every other step costs one
// slot read.
func LocalUniquenessPred(m *machine.Machine, proc int) string {
	if !m.Selected(proc) {
		return ""
	}
	return UniquenessPred(m)
}

// Trial reports one sampled execution.
type Trial struct {
	// Violated reports whether any checked predicate flagged the run.
	Violated bool
	// Reason is the first violation's description (empty otherwise).
	Reason string
	// Steps counts executed machine steps; Slots counts scheduler slots
	// offered (burned slots included).
	Steps int
	Slots int
	// Schedule is the slot-by-slot processor sequence, recorded only
	// when the trial was run with capture=true (nil otherwise — the hot
	// path must not allocate per-slot history).
	Schedule []int
}

// TrialFunc runs one sampled execution: it derives all randomness
// (schedule and faults) from seed, runs for at most depth scheduler
// slots, and reports the outcome. capture requests the slot-by-slot
// schedule for counterexample replay; implementations may skip recording
// it otherwise. A TrialFunc must be deterministic in its arguments and
// safe for concurrent calls when SampleOptions.Workers > 1.
type TrialFunc func(seed int64, depth int, capture bool) (Trial, error)

// SampleOptions configures a statistical check.
type SampleOptions struct {
	// Epsilon is the target half-width of the two-sided confidence
	// interval around the violation-probability estimate; 0 means the
	// default (0.01). Must lie in (0, 1).
	Epsilon float64
	// Delta is the allowed error probability: the interval covers the
	// true probability with confidence 1−Delta. 0 means the default
	// (0.05). Must lie in (0, 1).
	Delta float64
	// MaxSamples caps the number of trials; 0 means uncapped (the
	// Okamoto bound decides). A cap below the bound exhausts the
	// "samples" budget: like any other spent budget, the run returns its
	// partial result, with the achieved (wider) half-width reported.
	MaxSamples int
	// Depth is the per-trial scheduler-slot budget; 0 means the default
	// (1024).
	Depth int
	// Workers > 1 runs trials of each round concurrently over that many
	// goroutines. Seeds are per-sample, not per-worker, and merging is
	// in sample-index order, so the result is identical for every
	// worker count.
	Workers int
	// Seed is the base PRNG seed; each trial i runs with
	// SampleSeed(Seed, i).
	Seed int64
	// MaxDuration bounds wall-clock sampling time, checked at round
	// boundaries; 0 means unbounded.
	MaxDuration time.Duration
	// Progress, when non-nil, receives a SampleStats snapshot after
	// every merged round and once when sampling finishes.
	Progress func(SampleStats)
	// ProgressEvery is the round size in samples — the unit of merging,
	// budget polling, and progress reporting; 0 means the default
	// (512). Round boundaries are fixed by this option alone, so the
	// event stream does not depend on Workers.
	ProgressEvery int
	// Obs, when non-nil, receives structured events and metrics: an
	// mc.sample phase, one KindSample event per merged round, counters
	// mirroring SampleStats, and the final verdict. Events are
	// deterministic; the elapsed duration goes to the mc.sample
	// histogram only.
	Obs *obs.Recorder
	// Ctx, when non-nil, cancels sampling at round boundaries:
	// cancellation is a spent budget (Exhausted="canceled") and returns
	// the partial result like any other.
	Ctx context.Context
}

// Statistical-check defaults.
const (
	DefaultEpsilon     = 0.01
	DefaultDelta       = 0.05
	DefaultSampleDepth = 1024
	DefaultSampleEvery = 512
)

// SampleStats is the sampler's observability surface, exposed through
// SampleResult and the Progress callback. Every field is a deterministic
// function of (seed, options): wall-clock and worker-count facts are
// deliberately absent so that same-seed results compare byte-for-byte.
type SampleStats struct {
	// Samples and Violations count merged trials and flagged trials.
	Samples    int
	Violations int
	// Target is the Okamoto bound for the configured ε and δ.
	Target int
	// Steps and Slots accumulate over all merged trials.
	Steps int64
	Slots int64
	// Depth is the per-trial slot budget in force.
	Depth int
	// Rounds counts completed merge rounds.
	Rounds int
}

// SampleViolation describes the first violating trial, in sample-index
// order (not discovery order — index order is what every worker count
// agrees on).
type SampleViolation struct {
	// Sample is the violating trial's index; Seed is its derived seed,
	// sufficient to reproduce the run through the same TrialFunc.
	Sample int
	Seed   int64
	// Reason is the predicate's description.
	Reason string
	// Steps and Slots are the violating run's own counts.
	Steps int
	Slots int
	// Schedule is the slot-by-slot processor sequence of the violating
	// run, obtained by re-running the trial with capture on.
	Schedule []int
}

// SampleResult reports a statistical check.
type SampleResult struct {
	// Samples counts trials actually merged; Target is the Okamoto
	// bound they were measured against.
	Samples int
	Target  int
	// Violations counts flagged trials; Estimate is Violations/Samples.
	Violations int
	Estimate   float64
	// HalfWidth is the achieved two-sided confidence half-width at
	// level 1−δ for the drawn sample count: sqrt(ln(2/δ) / (2·Samples)),
	// clamped to 1. When Complete, HalfWidth ≤ ε.
	HalfWidth float64
	// Complete reports whether the full Okamoto target was drawn.
	Complete bool
	// Exhausted names the budget that ended an incomplete run:
	// "samples", "time", or "canceled".
	Exhausted string
	// FirstViolation is the index-least violating trial, nil when no
	// trial was flagged.
	FirstViolation *SampleViolation
	// Stats carries the deterministic counters.
	Stats SampleStats
}

// OkamotoBound returns the number of i.i.d. trials sufficient for the
// empirical mean of a [0,1] variable to lie within epsilon of its true
// mean with probability at least 1−delta (two-sided Hoeffding):
// ceil(ln(2/δ) / (2ε²)).
func OkamotoBound(epsilon, delta float64) int {
	return int(math.Ceil(math.Log(2/delta) / (2 * epsilon * epsilon)))
}

// HoeffdingHalfWidth returns the two-sided confidence half-width at
// level 1−delta after samples trials, clamped to 1 (and to 1 when no
// trial was drawn: an empty sample bounds nothing).
func HoeffdingHalfWidth(delta float64, samples int) float64 {
	if samples <= 0 {
		return 1
	}
	hw := math.Sqrt(math.Log(2/delta) / (2 * float64(samples)))
	if hw > 1 {
		return 1
	}
	return hw
}

// SampleSeed derives trial i's PRNG seed from the base seed via one
// SplitMix64 step. Seeds are per-sample, never per-worker, so the
// mapping from index to executed trial is independent of scheduling;
// consecutive indices land in decorrelated streams.
func SampleSeed(base int64, i int) int64 {
	z := uint64(base) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Sample draws i.i.d. trials until the Okamoto target (or a tighter
// budget) is met and returns the violation-probability estimate with its
// confidence interval. A spent budget returns the partial result, with
// Complete=false, Exhausted naming the budget and a nil error; a trial
// error aborts the run and is returned as-is (first in sample-index order).
func Sample(trial TrialFunc, opts SampleOptions) (*SampleResult, error) {
	if trial == nil {
		return nil, fmt.Errorf("mc: Sample requires a trial function")
	}
	eps, delta := opts.Epsilon, opts.Delta
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if delta == 0 {
		delta = DefaultDelta
	}
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("mc: epsilon and delta must lie in (0, 1), got ε=%v δ=%v", eps, delta)
	}
	depth := opts.Depth
	if depth == 0 {
		depth = DefaultSampleDepth
	}
	if depth < 1 || opts.MaxSamples < 0 {
		return nil, fmt.Errorf("mc: depth=%d maxSamples=%d", depth, opts.MaxSamples)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	round := opts.ProgressEvery
	if round <= 0 {
		round = DefaultSampleEvery
	}

	target := OkamotoBound(eps, delta)
	draw := target
	if opts.MaxSamples > 0 && opts.MaxSamples < draw {
		draw = opts.MaxSamples
	}

	start := time.Now()
	var deadline time.Time
	if opts.MaxDuration > 0 {
		deadline = start.Add(opts.MaxDuration)
	}
	opts.Obs.PhaseStart("mc.sample")

	res := &SampleResult{Target: target}
	res.Stats = SampleStats{Target: target, Depth: depth}
	outcomes := make([]Trial, round)
	errs := make([]error, round)
	firstIdx := -1
	var firstTrial Trial

	for base := 0; base < draw && res.Exhausted == ""; base += round {
		m := round
		if base+m > draw {
			m = draw - base
		}
		if workers == 1 {
			for j := 0; j < m; j++ {
				outcomes[j], errs[j] = trial(SampleSeed(opts.Seed, base+j), depth, false)
			}
		} else {
			var wg sync.WaitGroup
			per := (m + workers - 1) / workers
			for lo := 0; lo < m; lo += per {
				hi := lo + per
				if hi > m {
					hi = m
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for j := lo; j < hi; j++ {
						outcomes[j], errs[j] = trial(SampleSeed(opts.Seed, base+j), depth, false)
					}
				}(lo, hi)
			}
			wg.Wait()
		}
		// Merge strictly in sample-index order: counters, the first
		// violating index, and the first trial error are all index-order
		// facts, shared by every worker count.
		for j := 0; j < m; j++ {
			if errs[j] != nil {
				return nil, fmt.Errorf("mc: trial %d: %w", base+j, errs[j])
			}
			o := outcomes[j]
			res.Samples++
			res.Stats.Steps += int64(o.Steps)
			res.Stats.Slots += int64(o.Slots)
			if o.Violated {
				res.Violations++
				if firstIdx < 0 {
					firstIdx = base + j
					firstTrial = o
				}
			}
		}
		res.Stats.Samples = res.Samples
		res.Stats.Violations = res.Violations
		res.Stats.Rounds++
		opts.Obs.SampleRound("mc.sample", res.Samples, res.Violations, target)
		if opts.Progress != nil {
			opts.Progress(res.Stats)
		}
		switch {
		case opts.Ctx != nil && opts.Ctx.Err() != nil:
			res.Exhausted = "canceled"
		case !deadline.IsZero() && time.Now().After(deadline):
			res.Exhausted = "time"
		}
	}
	if res.Exhausted == "" && res.Samples < target {
		res.Exhausted = "samples"
	}

	res.Complete = res.Exhausted == ""
	if res.Samples > 0 {
		res.Estimate = float64(res.Violations) / float64(res.Samples)
	}
	res.HalfWidth = HoeffdingHalfWidth(delta, res.Samples)
	if firstIdx >= 0 {
		seed := SampleSeed(opts.Seed, firstIdx)
		v := &SampleViolation{
			Sample: firstIdx,
			Seed:   seed,
			Reason: firstTrial.Reason,
			Steps:  firstTrial.Steps,
			Slots:  firstTrial.Slots,
		}
		// Re-run the index-least violating trial with capture on to
		// recover its schedule; the replay is deterministic per seed, so
		// disagreement means the TrialFunc broke its own contract.
		rerun, err := trial(seed, depth, true)
		if err != nil {
			return nil, fmt.Errorf("mc: recapturing trial %d: %w", firstIdx, err)
		}
		if !rerun.Violated || rerun.Reason != firstTrial.Reason {
			return nil, fmt.Errorf("mc: trial %d is not deterministic: %q replayed as %q",
				firstIdx, firstTrial.Reason, rerun.Reason)
		}
		v.Schedule = rerun.Schedule
		res.FirstViolation = v
	}

	if r := opts.Obs; r.Enabled() {
		r.Count("mc.samples", int64(res.Samples))
		r.Count("mc.sample_violations", int64(res.Violations))
		r.Count("mc.sample_steps", res.Stats.Steps)
		r.Count("mc.sample_slots", res.Stats.Slots)
		r.Stat("mc.sample_target", int64(target))
		r.Observe("mc.sample", time.Since(start))
		detail := ""
		switch {
		case res.FirstViolation != nil:
			detail = res.FirstViolation.Reason
		case !res.Complete:
			detail = "budget exhausted: " + res.Exhausted
		}
		r.Verdict("mc.sample", res.Violations == 0, detail)
		r.PhaseEnd("mc.sample", int64(res.Samples))
	}
	if opts.Progress != nil {
		opts.Progress(res.Stats)
	}
	return res, nil
}
