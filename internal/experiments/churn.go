package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"simsym/internal/core"
	"simsym/internal/system"
)

// E17Churn measures the dynamic similarity engine (DESIGN.md §10) under
// locality-preserving churn: seeded streams of splice events that grow
// and shrink a ring (processor splices into an edge, later unsplices)
// and a tree (leaf joins under a random node, later leaves). Both
// preserve the family's shape. Each row reports event throughput, the
// per-event relabel latency distribution, the splits and merges of the
// stream's events (TotalStats, which leaves out the initial build), and
// the wall-clock cost of one full Similarity recompute on the same
// population — the price a static-engine user would pay per event —
// with the resulting speedup.
//
// The two families probe opposite regimes. Ring splices are
// symmetry-preserving: the answer never changes (two classes before
// and after), the certificate skips the merge pass, and per-event cost
// is O(degree) — flat in n, microseconds against seconds of recompute.
// Tree leaf churn is structure-revealing: one leaf changes the subtree
// shape of every ancestor, so classes along the root path split, and
// the leave merges them back. Every tree event therefore runs the
// quotient merge pass, which refines the class graph with Hopcroft's
// driver in O(m_q log k) for k classes, plus the relabeling of the
// slots whose class actually moved; that relabeling grows with the
// subtrees on the root path and dominates at n=10⁶. Crash-heavy churn
// is deliberately excluded here: crashing a processor on a marked ring
// destroys the global symmetry and the quotient inflates to Θ(n)
// classes, so such an event costs about a recompute. The headline
// locality claim is scoped to shape-preserving events;
// TestDynSystemAllFamilies and the differential fuzzer cover the
// adversarial mixes.
func E17Churn(sizes []int, events int) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "Incremental similarity under churn — splice events vs full recompute",
		Header: []string{"family", "n", "events", "events/sec", "p50", "p99",
			"splits", "merges", "recompute", "speedup"},
	}
	for _, family := range []string{"ring", "tree"} {
		for _, n := range sizes {
			if err := churnRow(t, family, n, events); err != nil {
				return nil, fmt.Errorf("E17 %s n=%d: %w", family, n, err)
			}
		}
	}
	return t, nil
}

// churnRow drives one seeded splice stream and appends its row.
func churnRow(t *Table, family string, n, events int) error {
	var sys *system.System
	var err error
	switch family {
	case "ring":
		sys, err = system.Ring(n)
	case "tree":
		sys, err = system.Tree(n)
	default:
		return fmt.Errorf("unknown churn family %q", family)
	}
	if err != nil {
		return err
	}
	d, err := core.NewDynSystem(sys, core.RuleQ, core.Config{})
	if err != nil {
		return err
	}
	sp := newSplicer(d, sys.ProcIDs, family, rand.New(rand.NewSource(17)))

	lat := make([]time.Duration, 0, events)
	start := time.Now()
	for ev := 0; ev < events; ev++ {
		t0 := time.Now()
		if err := sp.step(); err != nil {
			return fmt.Errorf("event %d: %w", ev, err)
		}
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }

	// One full recompute on the final population: Snapshot + Similarity
	// is exactly what a static-engine caller pays per event.
	r0 := time.Now()
	if _, err := core.Similarity(d.Snapshot(), d.Rule()); err != nil {
		return err
	}
	recompute := time.Since(r0)
	perEvent := elapsed / time.Duration(events)
	tot := d.TotalStats()

	t.AddRow(family, fmt.Sprint(n), fmt.Sprint(events),
		fmt.Sprintf("%.0f", float64(events)/elapsed.Seconds()),
		pct(0.50).Round(time.Microsecond).String(),
		pct(0.99).Round(time.Microsecond).String(),
		fmt.Sprint(tot.Splits), fmt.Sprint(tot.Merges),
		recompute.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0fx", float64(recompute)/float64(perEvent)))
	return nil
}

// splicer generates shape-preserving churn. Ring events splice a new
// processor (with a fresh variable) into a uniformly chosen edge; tree
// events hang a new leaf under a uniformly chosen node. Undo events pop
// the most recent splice, which is always still intact (any later splice
// that touched its processors has itself been undone first), so every
// generated mutation batch is valid and the structure never leaves its
// family.
type splicer struct {
	d      *core.DynSystem
	family string
	rng    *rand.Rand
	pool   []string // live processor ids; spliced ids form the tail, LIFO
	base   int      // ids below this index are permanent
	stack  []splice
	seq    int
}

type splice struct {
	p  string // template processor (ring: rewired away from vb)
	px string // spliced-in processor
	vb string // ring: p's former right variable
}

func newSplicer(d *core.DynSystem, ids []string, family string, rng *rand.Rand) *splicer {
	pool := append([]string(nil), ids...)
	return &splicer{d: d, family: family, rng: rng, pool: pool, base: len(pool)}
}

func (s *splicer) step() error {
	if len(s.stack) > 0 && s.rng.Intn(2) == 1 {
		return s.undo()
	}
	return s.splice()
}

func (s *splicer) splice() error {
	p := s.pool[s.rng.Intn(len(s.pool))]
	bind, err := s.d.Bindings(p)
	if err != nil {
		return err
	}
	s.seq++
	vx := fmt.Sprintf("xv%d", s.seq)
	px := fmt.Sprintf("xp%d", s.seq)
	switch s.family {
	case "ring":
		// p --right--> vb becomes p --right--> vx <--left-- px --right--> vb.
		vb := bind[1]
		_, err = s.d.Apply(
			core.Mutation{Op: core.OpAddVar, Var: vx, Init: "0"},
			core.Mutation{Op: core.OpAddProc, Proc: px, Init: "0", Bind: []string{vx, vb}},
			core.Mutation{Op: core.OpRewire, Proc: p, Name: "right", Var: vx},
		)
		s.stack = append(s.stack, splice{p: p, px: px, vb: vb})
	default: // tree
		// px hangs under p: up = p's own variable, own = vx.
		_, err = s.d.Apply(
			core.Mutation{Op: core.OpAddVar, Var: vx, Init: "0"},
			core.Mutation{Op: core.OpAddProc, Proc: px, Init: "0", Bind: []string{bind[1], vx}},
		)
		s.stack = append(s.stack, splice{p: p, px: px})
	}
	if err != nil {
		return err
	}
	s.pool = append(s.pool, px)
	return nil
}

func (s *splicer) undo() error {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.pool = s.pool[:len(s.pool)-1] // top.px, by LIFO discipline
	var err error
	if s.family == "ring" {
		// Removing px orphans its fresh variable, which cascades away.
		_, err = s.d.Apply(
			core.Mutation{Op: core.OpRewire, Proc: top.p, Name: "right", Var: top.vb},
			core.Mutation{Op: core.OpRemoveProc, Proc: top.px},
		)
	} else {
		_, err = s.d.Apply(core.Mutation{Op: core.OpRemoveProc, Proc: top.px})
	}
	return err
}
