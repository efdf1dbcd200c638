package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"simsym/internal/canon"
	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/system"
)

// The check-close workload model-checks DP′ on the flipped 4-table
// (Figure 5, two meals each) exhaustively with the default engine
// options, repeatedly until the time budget is spent. Its state space is
// fixed, so every check must report exactly these counts.
const (
	closeTableSize   = 4
	closeMeals       = 2
	closeMaxStates   = 1 << 20 // above the closure, so the default budget never cuts it
	closeStates      = 366160
	closeDepth       = 93
	closeTransitions = 1389376
)

type closeInput struct {
	sys  *system.System
	prog *machine.Program
	m    *machine.Machine // the initial machine, as the checker builds it
}

func buildCloseInput() (closeInput, error) {
	sys, err := system.DiningFlipped(closeTableSize)
	if err != nil {
		return closeInput{}, err
	}
	prog, err := dining.Program("left", "right", closeMeals)
	if err != nil {
		return closeInput{}, err
	}
	m, err := machine.New(sys, system.InstrL, prog)
	if err != nil {
		return closeInput{}, err
	}
	return closeInput{sys, prog, m}, nil
}

func runClose(in closeInput, progress func(mc.Stats)) (*dining.Report, time.Duration, error) {
	runtime.GC() // every check starts from a collected heap, like a fresh process
	t0 := time.Now()
	rep, err := dining.CheckWith(in.sys, in.prog, mc.Options{MaxStates: closeMaxStates, Progress: progress})
	return rep, time.Since(t0), err
}

// verifyClose is the correctness gate for one check.
func verifyClose(rep *dining.Report, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("check: %w", err)
	case !rep.Complete:
		return errors.New("check did not close the state space")
	case rep.StatesExplored != closeStates || rep.Stats.Depth != closeDepth || rep.Stats.Transitions != closeTransitions:
		return fmt.Errorf("check counts states=%d depth=%d transitions=%d, want %d/%d/%d",
			rep.StatesExplored, rep.Stats.Depth, rep.Stats.Transitions, closeStates, closeDepth, closeTransitions)
	case rep.ExclusionViolated != nil:
		return fmt.Errorf("exclusion violated by schedule %v", rep.ExclusionViolated)
	case rep.Deadlocked != nil:
		return fmt.Errorf("deadlock reached by schedule %v", rep.Deadlocked)
	}
	return nil
}

// closeSetupReps is how many set-ups are timed before each check. A
// set-up takes about 20 µs, so a single batch at the start of a run
// would sample the host during a few milliseconds only; batches before
// every check sample it across the run.
const closeSetupReps = 13

func measureCheckClose(cfg config) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var lat durHist
	var wall time.Duration
	for wall < cfg.duration {
		in, secs, err := timeSetups(closeSetupReps, buildCloseInput, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs...)
		rep, d, err := runClose(in, nil)
		o.op(verifyClose(rep, err))
		lat.add(d)
		wall += d
	}
	o.set("setup_s", median(setups), "s")
	o.set("ops_per_s", closeStates/(lat.quantileMS(0.50)/1e3), "1/s")
	o.set("p50_ms", lat.quantileMS(0.50), "ms")
	o.note("p99_ms", lat.quantileMS(0.99), "ms")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Fprintf(cfg.out, "checks %d (one op = one exhaustive check; ops_per_s is states over the median check time)\n", lat.n)
	return o, nil
}

func traceCheckClose(cfg config) (*outcome, error) {
	o := newOutcome()
	in, err := buildCloseInput()
	if err != nil {
		return nil, err
	}

	// Untraced pass: the baseline for the tracing overhead and the Go
	// runtime counters.
	rw := startRuntimeWindow()
	rep, untraced, err := runClose(in, nil)
	o.op(verifyClose(rep, err))
	rw.stop(o, int64(closeStates))

	// Traced pass: a span around the check, one child span per Progress
	// window. The heap is collected first, so the span's own collection
	// in runClose finds nothing to do.
	runtime.GC()
	tr := newTracer(time.Now())
	root := tr.begin("mc.check", -1, 0)
	last := time.Now()
	var window []float64 // states/s between Progress callbacks
	var prev mc.Stats
	progress := func(s mc.Stats) {
		now := time.Now()
		tr.add("mc.progress_window", root, 0, last, now)
		if dt := (s.Elapsed - prev.Elapsed).Seconds(); dt > 0 && s.StatesExplored > prev.StatesExplored {
			window = append(window, float64(s.StatesExplored-prev.StatesExplored)/dt)
		}
		prev, last = s, now
	}
	rep, traced, err := runClose(in, progress)
	tr.end(root)
	o.op(verifyClose(rep, err))
	overhead(o, untraced, traced)
	if err != nil {
		return o, nil
	}

	st := rep.Stats
	o.set("mc.states", float64(st.StatesExplored), "count")
	o.set("mc.transitions", float64(st.Transitions), "count")
	o.set("mc.depth", float64(st.Depth), "count")
	o.set("mc.peak_frontier", float64(st.PeakFrontier), "count")
	o.set("mc.dedup_ratio", float64(st.DedupHits)/float64(st.Transitions), "ratio")
	o.set("mc.bytes_per_state", float64(st.PeakMemBytes)/float64(st.StatesExplored), "B")
	o.set("mc.key_compression", float64(st.LogicalKeyBytes)/float64(st.StoredKeyBytes), "ratio")
	o.set("mc.window_states_per_s", median(window), "1/s")

	walk, err := machineWalk(tr, in, cfg.seed)
	if err != nil {
		return nil, err
	}
	walk.report(o)
	perTransition := walk.clone + walk.step + walk.key + walk.hash
	o.set("mc.other_share", 1-float64(st.Transitions)*perTransition/float64(untraced), "ratio")
	return o, tr.report(cfg, "check-close")
}

// walkCost is the mean cost in nanoseconds of the four primitives the
// checker runs per transition.
type walkCost struct{ clone, step, key, hash float64 }

func (w walkCost) report(o *outcome) {
	o.set("machine.clone_ns", w.clone, "ns")
	o.set("machine.step_ns", w.step, "ns")
	o.set("machine.key_ns", w.key, "ns")
	o.set("canon.hash_ns", w.hash, "ns")
}

// machineWalk times the checker's per-transition primitives on a seeded
// random walk over the same system: each round clones the current
// machine into a batch of pool slots (CloneInto), steps each clone by a
// random processor, encodes its state key (AppendStateKey) and hashes it
// (HashBytes), then continues from one of the children. Each primitive is
// timed per batch, so timer overhead is amortized over the batch.
func machineWalk(tr *tracer, in closeInput, seed int64) (walkCost, error) {
	const rounds, batch = 400, 64
	rng := rand.New(rand.NewSource(seed))
	n := in.sys.NumProcs()
	cur := in.m.Clone()
	pool := make([]*machine.Machine, batch)
	for i := range pool {
		pool[i] = in.m.Clone()
	}
	keys := make([][]byte, batch)
	picks := make([]int, batch)
	var sink uint64
	var total [4]time.Duration
	root := tr.begin("machine.walk", -1, seed)
	for r := 0; r < rounds; r++ {
		for i := range picks {
			picks[i] = rng.Intn(n)
		}
		t0 := time.Now()
		for _, dst := range pool {
			cur.CloneInto(dst)
		}
		t1 := time.Now()
		for i, dst := range pool {
			if err := dst.Step(picks[i]); err != nil {
				return walkCost{}, fmt.Errorf("walk step: %w", err)
			}
		}
		t2 := time.Now()
		for i, dst := range pool {
			keys[i] = dst.AppendStateKey(keys[i][:0], nil, nil)
		}
		t3 := time.Now()
		for _, k := range keys {
			sink += canon.HashBytes(k)
		}
		t4 := time.Now()
		tr.add("machine.clone", root, int64(r), t0, t1)
		tr.add("machine.step", root, int64(r), t1, t2)
		tr.add("machine.key", root, int64(r), t2, t3)
		tr.add("canon.hash", root, int64(r), t3, t4)
		total[0] += t1.Sub(t0)
		total[1] += t2.Sub(t1)
		total[2] += t3.Sub(t2)
		total[3] += t4.Sub(t3)

		next := pool[rng.Intn(batch)]
		if next.AllHalted() {
			next = in.m
		}
		next.CloneInto(cur)
	}
	tr.end(root)
	if sink == 0 {
		return walkCost{}, errors.New("walk produced no key hashes")
	}
	ops := float64(rounds * batch)
	ns := func(d time.Duration) float64 { return float64(d) / ops }
	return walkCost{ns(total[0]), ns(total[1]), ns(total[2]), ns(total[3])}, nil
}
