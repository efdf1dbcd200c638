package simsym

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"simsym/internal/adversary"
	"simsym/internal/core"
	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/obs"
	"simsym/internal/runcfg"
	"simsym/internal/sched"
	"simsym/internal/selection"
)

// Observability surface, re-exported from the internal obs package.
type (
	// Recorder emits structured events to a sink and aggregates metrics;
	// create one with NewRecorder and pass it via WithObserver. All
	// methods are safe on a nil *Recorder.
	Recorder = obs.Recorder
	// EventSink receives emitted events; implementations must tolerate
	// concurrent Emit calls.
	EventSink = obs.Sink
	// ObsEvent is one structured event: a sequence number, a kind, and a
	// small typed payload. Events never carry wall-clock readings, so
	// equal runs produce byte-identical streams.
	ObsEvent = obs.Event
	// ObsKind enumerates event kinds (phase boundaries, refinement
	// rounds, state expansions, scheduler steps, faults, verdicts).
	ObsKind = obs.Kind
	// EventRing is a bounded in-memory sink retaining the newest events.
	EventRing = obs.Ring
	// JSONLSink streams events as JSON Lines.
	JSONLSink = obs.JSONL
	// Metrics is a registry of named counters and latency histograms,
	// renderable in Prometheus text exposition format via WriteText.
	Metrics = obs.Registry
)

// NewRecorder returns a Recorder emitting to sink (a no-op sink when
// nil) with a fresh metrics registry.
func NewRecorder(sink EventSink) *Recorder { return obs.New(sink) }

// NewEventRing returns an in-memory ring sink; capacity <= 0 selects a
// default.
func NewEventRing(capacity int) *EventRing { return obs.NewRing(capacity) }

// NewJSONLSink returns a sink writing one JSON object per event to w.
// Call Close (or Flush) before reading what was written.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONL(w) }

// MultiSink fans events out to several sinks.
func MultiSink(sinks ...EventSink) EventSink { return obs.Multi(sinks...) }

// ReadJSONL decodes an event stream written by a JSONLSink.
func ReadJSONL(r io.Reader) ([]ObsEvent, error) { return obs.ReadJSONL(r) }

// RunConfig is the serializable option set shared by the options-based
// entry points and the simsymd daemon's session API: budgets, workers,
// seed, symmetry reduction, the statistical stopping rule, fault
// classes, and the schedule kind. Its JSON form is exactly
// the "config" object a simsymd session-create request carries, so
// daemon configs and Go options are one vocabulary. Apply a whole
// RunConfig at once with WithConfig, or set individual fields through
// the With* option constructors, which are thin aliases onto its fields.
type RunConfig = runcfg.Common

// ConfigDuration is RunConfig's duration type: a time.Duration that
// JSON-marshals as a Go duration string ("30s") and unmarshals from that
// form or bare nanoseconds.
type ConfigDuration = runcfg.Duration

// Options collects the cross-cutting knobs shared by the options-based
// entry points: the serializable RunConfig plus the two process-local
// knobs (context and observer) that cannot cross a daemon boundary.
// Build one implicitly by passing Option values; the zero value means:
// background context, no observer, engine-default budgets, sequential
// execution, seed 0, no symmetry reduction.
type Options struct {
	// RunConfig holds every serializable knob; see its field docs.
	RunConfig
	// Ctx cancels long explorations; cancellation degrades into a
	// partial result (Exhausted = "canceled"), never a panic.
	Ctx context.Context
	// Obs receives structured events and metrics; nil records nothing.
	Obs *Recorder
}

// Option mutates Options; see With*.
type Option func(*Options)

// WithConfig applies a whole RunConfig at once — the form a daemon
// config file or a simsymd session request deserializes into. Later
// options still override individual fields.
func WithConfig(cfg RunConfig) Option { return func(o *Options) { o.RunConfig = cfg } }

// WithContext cancels long-running work when ctx is done.
func WithContext(ctx context.Context) Option { return func(o *Options) { o.Ctx = ctx } }

// WithObserver attaches an event recorder; nil detaches.
func WithObserver(rec *Recorder) Option { return func(o *Options) { o.Obs = rec } }

// WithMaxStates bounds model-checker exploration.
func WithMaxStates(n int) Option { return func(o *Options) { o.MaxStates = n } }

// WithBudget bounds model-checker exploration by states, wall-clock
// time, and estimated memory at once; zero values mean "engine default"
// (states) or "unbounded" (time, memory).
func WithBudget(maxStates int, maxDuration time.Duration, maxMemBytes int64) Option {
	return func(o *Options) {
		o.MaxStates = maxStates
		o.MaxDuration = ConfigDuration(maxDuration)
		o.MaxMemBytes = maxMemBytes
	}
}

// WithWorkers spreads the statistical checkers' trials
// (CheckStatistical, CheckStatisticalDining) over n goroutines; results
// are identical at every n. Every other entry point runs sequentially
// and ignores it.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithSeed sets the seed for entry points that consume randomness.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithSymmetry toggles automorphism-quotient state deduplication in the
// model checker.
func WithSymmetry(on bool) Option { return func(o *Options) { o.Symmetry = on } }

// WithConfidence sets the statistical checkers' stopping rule: sample
// until the violation-probability estimate is within epsilon of the
// truth with confidence 1−delta. Zero values keep the engine defaults
// (0.01 and 0.05).
func WithConfidence(epsilon, delta float64) Option {
	return func(o *Options) {
		o.Epsilon = epsilon
		o.Delta = delta
	}
}

// WithSamples caps the number of statistical trials; a cap below the
// Okamoto bound yields a partial report with a wider interval.
func WithSamples(max int) Option { return func(o *Options) { o.MaxSamples = max } }

// WithDepth bounds each sampled run's scheduler slots.
func WithDepth(slots int) Option { return func(o *Options) { o.Depth = slots } }

// WithFaults enables seeded fault injection in sampled runs: classes is
// a comma-separated subset of "crash", "stall", "lockdrop" with the CLI
// flags' default rates.
func WithFaults(classes string) Option { return func(o *Options) { o.FaultClasses = classes } }

// WithScheduleKind picks the sampled schedule generator: "uniform" or
// "shuffled".
func WithScheduleKind(kind string) Option { return func(o *Options) { o.SchedKind = kind } }

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// mcOptions maps the facade knobs onto the model checker's options.
func (o Options) mcOptions() mc.Options {
	return mc.Options{
		MaxStates:      o.MaxStates,
		MaxDuration:    o.MaxDuration.Std(),
		MaxMemBytes:    o.MaxMemBytes,
		SymmetryReduce: o.Symmetry,
		Obs:            o.Obs,
		Ctx:            o.Ctx,
	}
}

// SimilarityOpts computes the similarity labeling Θ of sys under the
// given environment rule (Algorithm 1 / Theorem 5). Recognized options:
// WithObserver.
func SimilarityOpts(sys *System, rule Rule, opts ...Option) (*Labeling, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: Similarity: nil system", ErrBadArgs)
	}
	o := buildOptions(opts)
	return core.SimilarityWith(sys, rule, core.Config{Obs: o.Obs})
}

// NewDynSystem builds a dynamic similarity engine seeded from sys under
// the given environment rule: the labeling is maintained incrementally
// as processors and variables are added, removed, crashed, and rewired
// through Apply, and Similarity on
// Snapshot() is always the cross-checked oracle. Recognized options:
// WithObserver (relabel events and dyn.* counters).
func NewDynSystem(sys *System, rule Rule, opts ...Option) (*DynSystem, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: NewDynSystem: nil system", ErrBadArgs)
	}
	o := buildOptions(opts)
	return core.NewDynSystem(sys, rule, core.Config{Obs: o.Obs})
}

// NewChurn builds a seeded, replayable churn stream over d: each Step
// applies one join/leave/crash/restart/rewire event and reports the
// incremental relabel stats. The stream is a deterministic function of
// (seed, opts, d's population at construction).
func NewChurn(seed int64, d *DynSystem, copts ChurnOpts) (*Churn, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: NewChurn: nil dynamic system", ErrBadArgs)
	}
	return adversary.NewChurn(rand.New(rand.NewSource(seed)), d, copts), nil
}

// DecideOpts solves the selection problem's decision half for the given
// model (Theorems 1–3, 7–9 and the section 6 mimicry criterion).
// Recognized options: WithObserver.
func DecideOpts(sys *System, instr InstrSet, sch ScheduleClass, opts ...Option) (*Decision, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: Decide: nil system", ErrBadArgs)
	}
	o := buildOptions(opts)
	return selection.DecideWith(sys, instr, sch, o.Obs)
}

// BuildSelectOpts produces a runnable selection program (the paper's
// SELECT / Algorithm 4) for a solvable system in Q, S, or L. Recognized
// options: WithObserver.
func BuildSelectOpts(sys *System, instr InstrSet, sch ScheduleClass, opts ...Option) (*Program, *Decision, error) {
	if sys == nil {
		return nil, nil, fmt.Errorf("%w: BuildSelect: nil system", ErrBadArgs)
	}
	o := buildOptions(opts)
	return selection.SelectWith(sys, instr, sch, o.Obs)
}

// CheckStats re-exports the model checker's engine statistics.
type CheckStats = mc.Stats

// CheckReport is the full outcome of CheckOpts: Safe reports that no
// violation was found, Complete that the whole reachable space was
// explored (making Safe a proof rather than bounded evidence).
type CheckReport struct {
	Safe     bool
	Complete bool
	// Exhausted names the budget that ended an incomplete run:
	// "states", "time", "memory", or "canceled".
	Exhausted      string
	StatesExplored int
	// Violation describes the breached invariant ("" when Safe) and
	// Schedule is a witness step sequence reaching it.
	Violation string
	Schedule  []int
	Stats     CheckStats
}

// CheckOpts model-checks a selection program over every schedule: no
// state with two selected processors (Uniqueness), no transition that
// unselects one (Stability). Budget exhaustion and context cancellation
// yield a partial report (Safe=true, Complete=false, Exhausted set), not
// an error. Recognized options: WithObserver, WithMaxStates, WithBudget,
// WithSymmetry, WithContext.
func CheckOpts(sys *System, instr InstrSet, prog *Program, opts ...Option) (*CheckReport, error) {
	if sys == nil || prog == nil {
		return nil, fmt.Errorf("%w: Check: nil system or program", ErrBadArgs)
	}
	o := buildOptions(opts)
	if o.MaxStates < 0 {
		return nil, fmt.Errorf("%w: Check: MaxStates %d < 0", ErrBadArgs, o.MaxStates)
	}
	mo := o.mcOptions()
	mo.StatePreds = []mc.StatePredicate{mc.UniquenessPred}
	mo.TransPreds = []mc.TransitionPredicate{mc.StabilityPred}
	res, err := mc.Check(func() (*Machine, error) {
		return machine.New(sys, instr, prog)
	}, mo)
	if err != nil {
		return nil, err
	}
	rep := &CheckReport{
		Safe:           res.Violation == nil,
		Complete:       res.Complete,
		Exhausted:      res.Exhausted,
		StatesExplored: res.StatesExplored,
		Stats:          res.Stats,
	}
	if res.Violation != nil {
		rep.Violation = res.Violation.Reason
		rep.Schedule = append([]int(nil), res.Violation.Schedule...)
	}
	return rep, nil
}

// CheckDiningOpts model-checks a dining program for exclusion and
// deadlock with full engine control. Recognized options: WithObserver,
// WithMaxStates, WithBudget, WithSymmetry, WithContext.
func CheckDiningOpts(sys *System, prog *Program, opts ...Option) (*DiningReport, error) {
	if sys == nil || prog == nil {
		return nil, fmt.Errorf("%w: CheckDining: nil system or program", ErrBadArgs)
	}
	o := buildOptions(opts)
	if o.MaxStates < 0 {
		return nil, fmt.Errorf("%w: CheckDining: MaxStates %d < 0", ErrBadArgs, o.MaxStates)
	}
	return dining.CheckWith(sys, prog, o.mcOptions())
}

// RunFair executes prog on a fresh machine under a seeded fair schedule
// (every processor once per round, order shuffled per round) for the
// given number of rounds, stopping early when all processors halt. It
// returns the final machine and the number of executed steps. Recognized
// options: WithSeed, WithObserver (the machine emits one scheduler-step
// event per executed step).
func RunFair(sys *System, instr InstrSet, prog *Program, rounds int, opts ...Option) (*Machine, int, error) {
	if sys == nil || prog == nil {
		return nil, 0, fmt.Errorf("%w: RunFair: nil system or program", ErrBadArgs)
	}
	if rounds < 1 {
		return nil, 0, fmt.Errorf("%w: RunFair: rounds %d < 1", ErrBadArgs, rounds)
	}
	o := buildOptions(opts)
	m, err := machine.New(sys, instr, prog)
	if err != nil {
		return nil, 0, err
	}
	m.Observe(o.Obs)
	schedule, err := sched.ShuffledRounds(rand.New(rand.NewSource(o.Seed)), sys.NumProcs(), rounds)
	if err != nil {
		return nil, 0, err
	}
	steps, err := m.Run(schedule)
	if err != nil {
		return nil, steps, err
	}
	return m, steps, nil
}
