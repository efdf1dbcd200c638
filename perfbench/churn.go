package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"time"

	"simsym"
	"simsym/internal/core"
	"simsym/internal/partition"
	"simsym/internal/system"
)

// The churn-tree workload drives a seeded leaf join/leave stream through
// DynSystem.Apply on Tree(treeSize). The traced run applies a fixed
// number of events, so its counters repeat exactly for one seed.
const (
	treeSize         = 1000
	treeSetupReps    = 15
	treeTracedEvents = 400
)

// splicer generates E17's shape-preserving tree churn in benchmark code:
// a join hangs a new leaf (with a fresh variable) under a uniformly
// chosen processor, and a leave removes the most recent join, so every
// generated batch is valid. The splicer tracks each processor's own
// variable itself and never queries the engine: the stream is a function
// of the seed and the starting topology alone.
type splicer struct {
	rng  *rand.Rand
	pool []poolProc // live processors; joined leaves form the LIFO tail
	base int        // processors below this index never leave
	seq  int
}

type poolProc struct{ id, own string }

func newSplicer(sys *system.System, seed int64) *splicer {
	s := &splicer{rng: rand.New(rand.NewSource(seed))}
	for p, id := range sys.ProcIDs {
		s.pool = append(s.pool, poolProc{id: id, own: sys.VarIDs[sys.Nbr[p][1]]})
	}
	s.base = len(s.pool)
	return s
}

// maxLiveSplices caps the joined leaves live at once, which makes the
// stream stationary. Uncapped, their count random-walks, and on
// Tree(1000) the engine drifts from merge-pass events into rebuilding on
// every event once about ten leaves are live, at a seed-dependent point
// of the stream, so events/s depended on the seed by up to 2x.
const maxLiveSplices = 8

// next returns the mutations of the next churn event.
func (s *splicer) next() []core.Mutation {
	live := len(s.pool) - s.base
	if live == maxLiveSplices || live > 0 && s.rng.Intn(2) == 1 {
		px := s.pool[len(s.pool)-1].id
		s.pool = s.pool[:len(s.pool)-1]
		// Removing px orphans its variable, which cascades away.
		return []core.Mutation{{Op: core.OpRemoveProc, Proc: px}}
	}
	p := s.pool[s.rng.Intn(len(s.pool))]
	s.seq++
	seq := strconv.Itoa(s.seq)
	vx, px := "xv"+seq, "xp"+seq
	s.pool = append(s.pool, poolProc{id: px, own: vx})
	// Bindings follow the tree's names: up = p's own variable, own = vx.
	return []core.Mutation{
		{Op: core.OpAddVar, Var: vx, Init: "0"},
		{Op: core.OpAddProc, Proc: px, Init: "0", Bind: []string{p.own, vx}},
	}
}

// churnRun drives one engine with a splicer and records per-event cost
// and work. LastStats is read after every Apply: TotalStats would fold
// in the initial build, whose Rebuild flag is set before any event.
type churnRun struct {
	d    *core.DynSystem
	sp   *splicer
	lat  durHist
	win  *windows      // per-slice latencies, when measuring end to end
	wall time.Duration // summed over timed chunks (event generation excluded)
	work workTotals
}

// workTotals sums LastStats over the events of a run.
type workTotals struct {
	events, touched, touchedClasses, splits, merges, relabeled, sigComputes, rounds int64
	mergePasses, rebuilds                                                           int64
}

func (w *workTotals) add(st partition.UpdateStats) {
	w.events++
	w.touched += int64(st.Touched)
	w.touchedClasses += int64(st.TouchedClasses)
	w.splits += int64(st.Splits)
	w.merges += int64(st.Merges)
	w.relabeled += int64(st.Relabeled)
	w.sigComputes += int64(st.SigComputes)
	w.rounds += int64(st.Rounds)
	if st.MergePass {
		w.mergePasses++
	}
	if st.Rebuild {
		w.rebuilds++
	}
}

const churnChunk = 64 // events generated ahead of each timed chunk

// run applies events until maxEvents have been applied or the timed
// wall clock reaches budget (0 means no time limit). tr, when non-nil,
// gets one dyn.apply span per event.
func (c *churnRun) run(o *outcome, maxEvents int64, budget time.Duration, tr *tracer, parent int) {
	chunk := make([][]core.Mutation, 0, churnChunk)
	for (maxEvents == 0 || c.lat.n < maxEvents) && (budget == 0 || c.wall < budget) {
		chunk = chunk[:0]
		for i := 0; i < churnChunk && (maxEvents == 0 || c.lat.n+int64(i) < maxEvents); i++ {
			chunk = append(chunk, c.sp.next())
		}
		t0 := time.Now()
		for _, ev := range chunk {
			e0 := time.Now()
			_, err := c.d.Apply(ev...)
			e1 := time.Now()
			c.lat.add(e1.Sub(e0))
			if c.win != nil {
				c.win.add(c.wall+e1.Sub(t0), e1.Sub(e0))
			}
			if tr != nil {
				tr.add("dyn.apply", parent, c.lat.n, e0, e1)
			}
			o.op(err)
			c.work.add(c.d.LastStats())
			if budget > 0 && e1.Sub(t0)+c.wall >= budget {
				break
			}
		}
		c.wall += time.Since(t0)
	}
}

// verify is the churn correctness gate, run outside the timed window:
// the engine's invariants hold and its labeling is the partition a
// from-scratch similarity computation gives on the same population. It
// returns the duration of that from-scratch recompute.
func (c *churnRun) verify(o *outcome) time.Duration {
	o.op(c.d.Check())
	t0 := time.Now()
	want, err := simsym.SimilarityOpts(c.d.Snapshot(), c.d.Rule())
	recompute := time.Since(t0)
	if err != nil {
		o.op(fmt.Errorf("recompute: %w", err))
		return recompute
	}
	got := c.d.Labeling()
	if !reflect.DeepEqual(got.ProcClasses(), want.ProcClasses()) || !reflect.DeepEqual(got.VarClasses(), want.VarClasses()) {
		err = fmt.Errorf("incremental labeling (%d proc classes) differs from recompute (%d)", got.NumProcClasses(), want.NumProcClasses())
	}
	o.op(err)
	return recompute
}

func newChurnRun(sys *system.System, seed int64, setupReps int) (*churnRun, float64, error) {
	d, setups, err := timeSetups(setupReps, func() (*core.DynSystem, error) {
		return core.NewDynSystem(sys, core.RuleQ, core.Config{})
	}, nil)
	if err != nil {
		return nil, 0, err
	}
	return &churnRun{d: d, sp: newSplicer(sys, seed)}, median(setups), nil
}

func measureChurn(cfg config) (*outcome, error) {
	sys, err := system.Tree(treeSize)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	c, setup, err := newChurnRun(sys, cfg.seed, treeSetupReps)
	if err != nil {
		return nil, err
	}
	c.win = newWindows(cfg.duration)
	c.run(o, 0, cfg.duration, nil, -1)
	c.verify(o)
	o.set("setup_s", setup, "s")
	c.win.report(o)
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Fprintf(cfg.out, "events %d rebuilds %d merge_passes %d\n", c.work.events, c.work.rebuilds, c.work.mergePasses)
	return o, nil
}

func traceChurn(cfg config) (*outcome, error) {
	sys, err := system.Tree(treeSize)
	if err != nil {
		return nil, err
	}
	o := newOutcome()

	// Untraced pass over the same fixed-length stream: the overhead
	// baseline and the Go runtime counters.
	base, _, err := newChurnRun(sys, cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	rw := startRuntimeWindow()
	base.run(o, treeTracedEvents, 0, nil, -1)
	rw.stop(o, treeTracedEvents)
	base.verify(o)

	c, _, err := newChurnRun(sys, cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer(time.Now())
	root := tr.begin("churn.stream", -1, cfg.seed)
	c.run(o, treeTracedEvents, 0, tr, root)
	tr.end(root)
	t0 := time.Now()
	recompute := c.verify(o)
	tr.add("similarity.recompute", -1, cfg.seed, t0, t0.Add(recompute))
	overhead(o, base.wall, c.wall)

	w := c.work
	ev := float64(w.events)
	o.set("dyn.events", ev, "count")
	o.set("dyn.apply_us_p50", c.lat.quantileMS(0.50)*1e3, "us")
	o.set("dyn.apply_us_p99", c.lat.quantileMS(0.99)*1e3, "us")
	o.set("dyn.apply_us_max", c.lat.quantileMS(1)*1e3, "us")
	o.set("dyn.touched", float64(w.touched)/ev, "count")
	o.set("dyn.touched_classes", float64(w.touchedClasses)/ev, "count")
	o.set("dyn.splits", float64(w.splits)/ev, "count")
	o.set("dyn.merges", float64(w.merges)/ev, "count")
	o.set("dyn.relabeled", float64(w.relabeled)/ev, "count")
	o.set("dyn.sig_computes", float64(w.sigComputes)/ev, "count")
	o.set("dyn.rounds", float64(w.rounds)/ev, "count")
	o.set("dyn.merge_pass_frac", float64(w.mergePasses)/ev, "ratio")
	o.set("dyn.rebuild_frac", float64(w.rebuilds)/ev, "ratio")
	o.set("similarity.recompute_ms", float64(recompute)/float64(time.Millisecond), "ms")
	o.set("dyn.speedup_x", float64(recompute)/float64(time.Millisecond)/c.lat.meanMS(), "ratio")
	return o, tr.report(cfg, "churn-tree")
}
