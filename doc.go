// Package simsym is a library companion to Johnson & Schneider,
// "Symmetry and Similarity in Distributed Systems" (PODC 1985).
//
// It models anonymous concurrent systems — processors connected to shared
// variables through local names — and implements the paper's theory end
// to end: similarity labelings (Algorithm 1) under the S, L, and Q
// instruction sets; the distributed label-learning programs (Algorithms 2
// and 3); the selection problem's decision procedures and the SELECT /
// Algorithm 4 constructions; graph-theoretic symmetry and Theorems 10–11;
// the Dining Philosophers results DP and DP'; message-passing and CSP
// transfers; and the randomized symmetry breakers of section 8. A small
// VM executes the generated programs one atomic step at a time, and an
// explicit-state model checker verifies Uniqueness, Stability, exclusion,
// and deadlock-freedom over every schedule.
//
// This package is the public facade: it re-exports the stable surface of
// the internal packages so downstream users never import simsym/internal.
//
// Quick start:
//
//	sys, _ := simsym.Ring(5)
//	lab, _ := simsym.SimilarityOpts(sys, simsym.RuleQ)
//	fmt.Println(lab)                       // one class: all similar
//	d, _ := simsym.DecideOpts(sys, simsym.InstrL, simsym.SchedFair)
//	fmt.Println(d.Solvable, d.Reason)      // false: rings stay anonymous
//
// # Options and observability
//
// Every entry point has an options-based variant — SimilarityOpts,
// DecideOpts, BuildSelectOpts, CheckOpts, CheckDiningOpts, RunFair —
// configured with functional options:
//
//	rec := simsym.NewRecorder(simsym.NewEventRing(0))
//	rep, err := simsym.CheckOpts(sys, simsym.InstrL, prog,
//	    simsym.WithObserver(rec),
//	    simsym.WithBudget(500_000, 30*time.Second, 1<<30),
//	    simsym.WithSymmetry(true),
//	    simsym.WithContext(ctx))
//
// The observer receives typed, deterministic events (phase boundaries,
// refinement rounds, state expansions, scheduler steps, fault
// injections, verdicts) through a pluggable sink — an in-memory ring
// (NewEventRing), a JSONL stream (NewJSONLSink), or any EventSink — and
// aggregates counters and latency histograms in a metrics registry
// (Recorder.Metrics) renderable in Prometheus text format. A nil
// observer costs one pointer check on the hot paths.
//
// # Statistical checking
//
// When the state space is too large for CheckOpts to enumerate,
// CheckStatistical and CheckStatisticalDining estimate the probability
// that one random bounded run violates the invariants, by sampling
// i.i.d. seeded schedules (optionally under seeded crash/stall/lock-drop
// faults) and stopping per the Okamoto/Chernoff–Hoeffding bound:
//
//	rep, err := simsym.CheckStatisticalDining(sys, prog,
//	    simsym.WithConfidence(0.01, 0.05), // half-width ε, 1−δ confidence
//	    simsym.WithDepth(1024),            // slots per sampled run
//	    simsym.WithFaults("lockdrop"),
//	    simsym.WithSeed(42),
//	    simsym.WithWorkers(4))
//	// rep.Estimate ± rep.HalfWidth bounds the violation probability;
//	// rep.Schedule and rep.Faults replay any counterexample exactly.
//
// The same seed produces a byte-identical report at every worker count,
// and a report's counterexample trace replays through the adversary
// harness. Unlike CheckOpts this is never a proof — Safe means "no
// sampled run violated", qualified by the confidence interval.
//
// # Shared run configuration
//
// The knobs behind the functional options live in one JSON-taggable
// struct, RunConfig, shared verbatim with the simsymd daemon's
// session-create endpoint — a config that drives CheckOpts locally is
// the same document a session carries over HTTP:
//
//	cfg := simsym.RunConfig{MaxStates: 500_000, Symmetry: true}
//	rep, err := simsym.CheckOpts(sys, instr, prog, simsym.WithConfig(cfg))
//
// # Dynamic topologies
//
// NewDynSystem lifts a system into an incrementally-maintained
// similarity labeling: processors and variables join, leave, crash,
// restart, rewire, and change initial state while the engine repairs
// only the equivalence classes each event invalidates (splitting where
// a member's environment signature diverged, merging exactly where the
// class-graph quotient proves coarseness restorable):
//
//	d, err := simsym.NewDynSystem(sys, simsym.RuleQ)
//	st, err := d.Apply(
//		simsym.Mutation{Op: simsym.OpAddVar, Var: "vx", Init: "0"},
//		simsym.Mutation{Op: simsym.OpAddProc, Proc: "px", Init: "0", Bind: []string{"v0", "vx"}},
//	)
//	fmt.Println(d.NumClasses(), st.Splits, st.Merges)
//
// A mutation batch is one churn event: one settle, one stats record.
// ApplyDiff diffs a whole target system against the current topology
// and applies it as a single event. Labeling and Snapshot expose the
// canonical labeling and a compacted static system at any instant, and
// the result always equals a from-scratch SimilarityOpts on that
// snapshot — the fuzzer FuzzIncrementalSimilarity holds the two paths
// equal after every event. NewChurn wraps a DynSystem in a seeded,
// replayable stream of join/leave/crash/restart/rewire events for soak
// tests and benchmarks; the simsymd daemon exposes the same
// engine per session via POST /v1/sessions/{id}/topology.
//
// # Migrating from the positional API
//
// The deprecated positional wrappers from earlier releases — Similarity,
// Decide, BuildSelect, CheckSelectionSafety, CheckDining — have been
// removed. Each has a drop-in options-based replacement:
//
//	simsym.Similarity(sys, rule)        →  simsym.SimilarityOpts(sys, rule)
//	simsym.Decide(sys, instr, sch)      →  simsym.DecideOpts(sys, instr, sch)
//	simsym.BuildSelect(sys, instr, sch) →  simsym.BuildSelectOpts(sys, instr, sch)
//
// The two checkers return richer reports instead of bare booleans:
//
//	safe, complete, err := simsym.CheckSelectionSafety(sys, instr, prog, 100_000)
//	// becomes
//	rep, err := simsym.CheckOpts(sys, instr, prog, simsym.WithMaxStates(100_000))
//	// with safe == rep.Safe, complete == rep.Complete, plus the witness
//	// schedule, the exhausted budget, and the engine statistics.
//
//	report, err := simsym.CheckDining(sys, prog, 60_000)
//	// becomes
//	report, err := simsym.CheckDiningOpts(sys, prog, simsym.WithMaxStates(60_000))
//
// Facade helpers validate their arguments and report violations with
// errors wrapping ErrBadArgs:
//
//	if _, err := simsym.Ring(0); errors.Is(err, simsym.ErrBadArgs) { ... }
package simsym
