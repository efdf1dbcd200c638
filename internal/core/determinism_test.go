package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"simsym/internal/partition"
	"simsym/internal/system"
)

// treeChurn drives a seeded leaf join/leave stream through a DynSystem
// over Tree(n), calls each after every event and returns the system. A
// join hangs a new leaf with a fresh variable under a random processor;
// a leave removes the most recent join, with at most eight joined leaves
// live at once.
func treeChurn(t *testing.T, n, events int, rule Rule, seed int64, each func(*DynSystem, partition.UpdateStats)) *DynSystem {
	t.Helper()
	sys, err := system.Tree(n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynSystem(sys, rule, Config{})
	if err != nil {
		t.Fatal(err)
	}
	type leaf struct{ proc, own string }
	pool := make([]leaf, 0, n+8)
	for p, id := range sys.ProcIDs {
		pool = append(pool, leaf{id, sys.VarIDs[sys.Nbr[p][1]]})
	}
	rng := rand.New(rand.NewSource(seed))
	for ev := 0; ev < events; ev++ {
		var muts []Mutation
		if live := len(pool) - n; live == 8 || live > 0 && rng.Intn(2) == 1 {
			muts = []Mutation{{Op: OpRemoveProc, Proc: pool[len(pool)-1].proc}}
			pool = pool[:len(pool)-1]
		} else {
			p := pool[rng.Intn(len(pool))]
			seq := strconv.Itoa(ev)
			pool = append(pool, leaf{"xp" + seq, "xv" + seq})
			muts = []Mutation{
				{Op: OpAddVar, Var: "xv" + seq, Init: "0"},
				{Op: OpAddProc, Proc: "xp" + seq, Init: "0", Bind: []string{p.own, "xv" + seq}},
			}
		}
		st, err := d.Apply(muts...)
		if err != nil {
			t.Fatalf("event %d: %v", ev, err)
		}
		each(d, st)
	}
	return d
}

// treeChurnDigest hashes every treeChurn event's UpdateStats and raw Dyn
// labels (class ids, not just the relation).
func treeChurnDigest(t *testing.T, n, events int, rule Rule, seed int64) string {
	t.Helper()
	h := sha256.New()
	d := treeChurn(t, n, events, rule, seed, func(d *DynSystem, st partition.UpdateStats) {
		fmt.Fprintf(h, "%+v %v\n", st, d.dyn.Labels())
	})
	assertDynOracle(t, d)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDynDeterminismGolden pins, as digests, the exact class numbering
// and work counters of tree churn under both rules and the Hopcroft
// round stream on a marked ring. An internal change that renumbers
// classes, reorders splits or moves a counter fails here even when the
// labeling's relation is still right. A digest is re-pinned only after a
// per-event dump of both sides shows which counter moved and why
// (CHANGES.md records each).
func TestDynDeterminismGolden(t *testing.T) {
	for _, tc := range []struct {
		rule Rule
		want string
	}{
		{RuleQ, "d9c12fdcb6a0c0c6f09cae474dbe527adaa93df21f4c1ecc6f72b22bbc4c3438"},
		{RuleSetS, "c865570217d1d7687f9336f80b5b5998384117d67c5a1093f73bda25bf10f2a2"},
	} {
		if got := treeChurnDigest(t, 300, 1500, tc.rule, 11); got != tc.want {
			t.Errorf("Tree(300) churn under %v: digest %s, want %s", tc.rule, got, tc.want)
		}
	}

	sys, err := system.Ring(512)
	if err != nil {
		t.Fatal(err)
	}
	sys.ProcInit[0] = "leader"
	g, err := newGraph(sys, RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	p, err := partition.FixpointHopcroft(g, func(round, classes, splits int) {
		fmt.Fprintf(h, "%d %d %d\n", round, classes, splits)
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%v\n", p.Labels())
	if got, want := hex.EncodeToString(h.Sum(nil)), "fda878a4f024f7d28200f9f997d2637ab5c10d59a4d36b537201f00e056770bb"; got != want {
		t.Errorf("marked Ring(512) Hopcroft stream: digest %s, want %s", got, want)
	}
}
