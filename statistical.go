package simsym

import (
	"fmt"
	"math/rand"

	"simsym/internal/adversary"
	"simsym/internal/dining"
	"simsym/internal/mc"
)

// Statistical checking, re-exported from the internal mc and adversary
// packages.
type (
	// SampleStats is the statistical checkers' deterministic counter
	// surface: trials, violations, the Okamoto target, accumulated
	// steps/slots, depth, and merge rounds. No wall-clock or
	// worker-count facts appear, so same-seed reports compare
	// byte-for-byte across worker counts.
	SampleStats = mc.SampleStats
	// FaultEvent is one injected fault, recorded in slot order; the
	// fault log plus the schedule is a complete replayable trace.
	FaultEvent = adversary.Event
)

// OkamotoSamples returns how many i.i.d. trials a statistical check
// needs for its estimate to be within epsilon of the true violation
// probability with confidence 1−delta: ceil(ln(2/δ) / (2ε²)).
func OkamotoSamples(epsilon, delta float64) int { return mc.OkamotoBound(epsilon, delta) }

// StatReport is the outcome of a statistical check: a confidence
// interval around the probability that one random bounded run violates
// the invariants, plus — when any sampled run violated — a fully
// replayable counterexample trace.
type StatReport struct {
	// Safe reports that no sampled run violated; with Estimate and
	// HalfWidth it is a probabilistic claim, not a proof.
	Safe bool
	// Complete reports that the full Okamoto target was sampled, so
	// Estimate ± HalfWidth covers the truth at the requested confidence.
	Complete bool
	// Exhausted names the budget that ended an incomplete run:
	// "samples", "time", or "canceled".
	Exhausted string
	// Samples counts merged trials, Target the Okamoto bound they were
	// measured against, Violations the flagged trials.
	Samples    int
	Target     int
	Violations int
	// Estimate is Violations/Samples; HalfWidth is the achieved
	// two-sided confidence half-width at level 1−delta.
	Estimate  float64
	HalfWidth float64
	// Violation describes the first (sample-index-least) violating run
	// ("" when Safe); Sample is its trial index and SampleSeed its
	// derived seed. Schedule and Faults are the run's slot-by-slot
	// processor sequence and fault log — together a complete replayable
	// trace of the counterexample.
	Violation  string
	Sample     int
	SampleSeed int64
	Schedule   []int
	Faults     []FaultEvent
	// Stats carries the deterministic counters.
	Stats SampleStats
}

// statHarness configures one family of sampled runs: a harness template
// plus the per-trial randomness recipe. Every trial copies the template,
// installs a freshly seeded scheduler and fault layer, and runs — so
// trials are independent, deterministic per seed, and safe to run
// concurrently (the shared System/Program are only read).
type statHarness struct {
	base  adversary.Harness
	spec  adversary.Spec
	kind  string
	procs int
	vars  int
}

func (s *statHarness) run(seed int64, depth int) (*adversary.Result, error) {
	h := s.base
	h.MaxSlots = depth
	rng := rand.New(rand.NewSource(seed))
	if s.kind == "shuffled" {
		h.Sched = adversary.Shuffled(rng, s.procs)
	} else {
		h.Sched = adversary.Uniform(rng, s.procs)
	}
	if s.spec.Enabled() {
		h.Faults = adversary.NewFaults(s.spec.Seeded(seed), s.procs, s.vars)
	}
	return h.Run()
}

func (s *statHarness) trial(seed int64, depth int, capture bool) (mc.Trial, error) {
	r, err := s.run(seed, depth)
	if err != nil {
		return mc.Trial{}, err
	}
	t := mc.Trial{Steps: r.Steps, Slots: r.Slots}
	if r.Violation != nil {
		t.Violated = true
		t.Reason = r.Violation.Reason
	}
	if capture {
		t.Schedule = r.Schedule
	}
	return t, nil
}

// checkStatistical validates the shared facade options, runs the
// sampler, and folds the result into a StatReport.
func (sh *statHarness) check(name string, o Options) (*StatReport, error) {
	switch o.SchedKind {
	case "", "uniform", "shuffled":
		sh.kind = o.SchedKind
	default:
		return nil, fmt.Errorf("%w: %s: unknown schedule kind %q", ErrBadArgs, name, o.SchedKind)
	}
	if o.Epsilon < 0 || o.Epsilon >= 1 || o.Delta < 0 || o.Delta >= 1 {
		return nil, fmt.Errorf("%w: %s: epsilon %v and delta %v must lie in (0, 1)", ErrBadArgs, name, o.Epsilon, o.Delta)
	}
	if o.Depth < 0 || o.MaxSamples < 0 {
		return nil, fmt.Errorf("%w: %s: depth %d and samples %d must be >= 0", ErrBadArgs, name, o.Depth, o.MaxSamples)
	}
	if o.FaultClasses != "" {
		spec, err := adversary.ParseSpec(o.FaultClasses, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrBadArgs, name, err)
		}
		sh.spec = spec
	}
	res, err := mc.Sample(sh.trial, mc.SampleOptions{
		Epsilon:     o.Epsilon,
		Delta:       o.Delta,
		MaxSamples:  o.MaxSamples,
		Depth:       o.Depth,
		Workers:     o.Workers,
		Seed:        o.Seed,
		MaxDuration: o.MaxDuration.Std(),
		Obs:         o.Obs,
		Ctx:         o.Ctx,
	})
	if err != nil {
		return nil, err
	}
	rep := &StatReport{
		Safe:       res.Violations == 0,
		Complete:   res.Complete,
		Exhausted:  res.Exhausted,
		Samples:    res.Samples,
		Target:     res.Target,
		Violations: res.Violations,
		Estimate:   res.Estimate,
		HalfWidth:  res.HalfWidth,
		Stats:      res.Stats,
	}
	if v := res.FirstViolation; v != nil {
		rep.Violation = v.Reason
		rep.Sample = v.Sample
		rep.SampleSeed = v.Seed
		rep.Schedule = append([]int(nil), v.Schedule...)
		// The sampler's Trial carries no fault log (mc cannot know the
		// adversary's event type); one more deterministic re-run of the
		// violating seed recovers it.
		depth := o.Depth
		if depth == 0 {
			depth = mc.DefaultSampleDepth
		}
		rr, err := sh.run(v.Seed, depth)
		if err != nil {
			return nil, err
		}
		rep.Faults = rr.FaultLog
	}
	return rep, nil
}

// CheckStatistical estimates, by sampling random schedules on the
// compiled VM, the probability that a bounded run of a selection program
// violates Uniqueness or Stability. Each trial draws an i.i.d. seeded
// schedule (and, with WithFaults, an i.i.d. fault sequence), runs to the
// WithDepth slot budget, and checks the same invariants as CheckOpts —
// Uniqueness through its per-step localized form, Stability on every
// transition. Sampling stops once the estimate's confidence interval at
// level 1−delta has half-width epsilon (WithConfidence), per the
// Okamoto/Chernoff–Hoeffding bound; same seed and options reproduce the
// identical report at any worker count. Unlike CheckOpts this never
// proves safety — it bounds the violation probability of one random
// bounded run. Recognized options: WithConfidence, WithSamples,
// WithDepth, WithFaults, WithScheduleKind, WithSeed, WithWorkers,
// WithBudget (duration only), WithObserver, WithContext.
func CheckStatistical(sys *System, instr InstrSet, prog *Program, opts ...Option) (*StatReport, error) {
	if sys == nil || prog == nil {
		return nil, fmt.Errorf("%w: CheckStatistical: nil system or program", ErrBadArgs)
	}
	o := buildOptions(opts)
	sh := &statHarness{
		base: adversary.Harness{
			Sys:        sys,
			Instr:      instr,
			Prog:       prog,
			ProcPreds:  []mc.ProcPredicate{mc.LocalUniquenessPred},
			TransPreds: []mc.TransitionPredicate{mc.StabilityPred},
		},
		procs: sys.NumProcs(),
		vars:  sys.NumVars(),
	}
	return sh.check("CheckStatistical", o)
}

// CheckStatisticalDining estimates, by sampling random schedules on the
// compiled VM, the probability that a bounded run of a dining program
// (instruction set L) violates fork exclusion. Exclusion is checked
// after every executed step through its per-step localized form, so
// trials stay O(1) per step even on large tables; lock-drop faults
// (WithFaults("lockdrop")) are how exclusion actually breaks — a dropped
// fork can be re-acquired while its holder still eats. See
// CheckStatistical for the stopping rule, determinism guarantees, and
// recognized options.
func CheckStatisticalDining(sys *System, prog *Program, opts ...Option) (*StatReport, error) {
	if sys == nil || prog == nil {
		return nil, fmt.Errorf("%w: CheckStatisticalDining: nil system or program", ErrBadArgs)
	}
	o := buildOptions(opts)
	excl, err := dining.LocalExclusionPred(sys, prog)
	if err != nil {
		return nil, fmt.Errorf("CheckStatisticalDining: %w", err)
	}
	sh := &statHarness{
		base: adversary.Harness{
			Sys:       sys,
			Instr:     InstrL,
			Prog:      prog,
			ProcPreds: []mc.ProcPredicate{excl},
		},
		procs: sys.NumProcs(),
		vars:  sys.NumVars(),
	}
	return sh.check("CheckStatisticalDining", o)
}
