package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"
)

// dyndfa is a mutable DFA over a two-symbol alphabet implementing
// DynStructure: states can be added, removed (with their in-edges
// redirected), rewired, and re-colored between Update calls. It is the
// in-package churn harness mirroring the static dfa of the other tests.
//
// A state's signature is its successors' labels in symbol order, which
// is the multiset of (symbol, label) pairs over its out-edges, so both
// quotient drivers are sound on it: counting selects Hopcroft, and
// clearing it selects the worklist driver the set rule uses.
type dyndfa struct {
	alive    []bool
	accept   []bool
	next     [][]int
	prev     [][]int // reverse edges, duplicates kept in sync with next
	counting bool
}

func newDynDFA(d *dfa) *dyndfa {
	n := d.Len()
	m := &dyndfa{
		alive:    make([]bool, n),
		accept:   append([]bool(nil), d.accept...),
		next:     make([][]int, n),
		prev:     make([][]int, n),
		counting: true,
	}
	for s := 0; s < n; s++ {
		m.alive[s] = true
		m.next[s] = append([]int(nil), d.next[s]...)
	}
	for s := range m.next {
		for _, t := range m.next[s] {
			m.prev[t] = append(m.prev[t], s)
		}
	}
	return m
}

func (m *dyndfa) Len() int         { return len(m.alive) }
func (m *dyndfa) Alive(i int) bool { return m.alive[i] }

func (m *dyndfa) InitKey(i int) string {
	if m.accept[i] {
		return "acc"
	}
	return "rej"
}

func (m *dyndfa) AppendSignature(buf []uint64, i int, label func(int) int) []uint64 {
	for _, t := range m.next[i] {
		buf = append(buf, uint64(int64(label(t))))
	}
	return buf
}

func (m *dyndfa) Dependents(i int) []int { return m.prev[i] }

func (m *dyndfa) AppendOutEdges(buf []TaggedEdge, i int) []TaggedEdge {
	for sym, t := range m.next[i] {
		buf = append(buf, TaggedEdge{To: t, Tag: sym})
	}
	return buf
}

func (m *dyndfa) Counting() bool { return m.counting }

func (m *dyndfa) dropPrev(t, s int) {
	for k, v := range m.prev[t] {
		if v == s {
			m.prev[t] = append(m.prev[t][:k], m.prev[t][k+1:]...)
			return
		}
	}
	panic("dyndfa: reverse edge missing")
}

// setAccept toggles state x's color; returns the touched slots.
func (m *dyndfa) setAccept(x int, acc bool) []int {
	m.accept[x] = acc
	return []int{x}
}

// rewire points x's sym-edge at t; returns the touched slots.
func (m *dyndfa) rewire(x, sym, t int) []int {
	old := m.next[x][sym]
	if old == t {
		return []int{x}
	}
	m.dropPrev(old, x)
	m.next[x][sym] = t
	m.prev[t] = append(m.prev[t], x)
	return []int{x}
}

// addState appends a fresh alive state; returns the touched slots.
func (m *dyndfa) addState(acc bool, t0, t1 int) []int {
	x := len(m.alive)
	m.alive = append(m.alive, true)
	m.accept = append(m.accept, acc)
	m.next = append(m.next, []int{t0, t1})
	m.prev = append(m.prev, nil)
	m.prev[t0] = append(m.prev[t0], x)
	m.prev[t1] = append(m.prev[t1], x)
	return []int{x}
}

// removeState kills x, redirecting every in-edge of x to r; returns the
// touched slots (x plus every redirected predecessor).
func (m *dyndfa) removeState(x, r int) []int {
	touched := []int{x}
	for s := range m.next {
		if !m.alive[s] || s == x {
			continue
		}
		moved := false
		for sym, t := range m.next[s] {
			if t == x {
				m.dropPrev(x, s)
				m.next[s][sym] = r
				m.prev[r] = append(m.prev[r], s)
				moved = true
			}
		}
		if moved {
			touched = append(touched, s)
		}
	}
	for _, t := range m.next[x] {
		m.dropPrev(t, x)
	}
	m.next[x] = m.next[x][:0]
	m.alive[x] = false
	return touched
}

// liveStates returns the alive slots ascending.
func (m *dyndfa) liveStates() []int {
	var out []int
	for i, a := range m.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// compact builds a static dfa over the alive slots for the oracle.
func (m *dyndfa) compact() *dfa {
	live := m.liveStates()
	idx := make(map[int]int, len(live))
	for k, s := range live {
		idx[s] = k
	}
	acc := make([]bool, len(live))
	next := make([][]int, len(live))
	for k, s := range live {
		acc[k] = m.accept[s]
		next[k] = []int{idx[m.next[s][0]], idx[m.next[s][1]]}
	}
	return newDFA(acc, next)
}

// dynOracleCheck asserts d's labels induce exactly the relation the
// from-scratch oracle computes on the compacted structure, and that the
// engine's internal invariants hold.
func dynOracleCheck(t *testing.T, d *Dyn, m *dyndfa) {
	t.Helper()
	if err := d.Check(); err != nil {
		t.Fatalf("invariant audit: %v", err)
	}
	oracle, err := FixpointNaive(m.compact())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := oracle.Canonical()
	canon := d.Canonical()
	live := m.liveStates()
	if len(live) != len(want) {
		t.Fatalf("alive count %d != oracle size %d", len(live), len(want))
	}
	for k, s := range live {
		if canon[s] != want[k] {
			t.Fatalf("slot %d: incremental class %d != oracle class %d\nincremental=%v\noracle=%v",
				s, canon[s], want[k], canon, want)
		}
	}
}

func TestDynMatchesOracleOnScriptedTrace(t *testing.T) {
	m := newDynDFA(modDFA(3, 3)) // 9 states, 3 classes
	d, err := NewDyn(m)
	if err != nil {
		t.Fatal(err)
	}
	dynOracleCheck(t, d, m)
	if got := d.NumClasses(); got != 3 {
		t.Fatalf("initial classes = %d, want 3", got)
	}

	steps := []func() []int{
		func() []int { return m.setAccept(4, true) },    // split: rekeyed state
		func() []int { return m.rewire(1, 0, 7) },       // env change cascades
		func() []int { return m.addState(false, 2, 5) }, // join
		func() []int { return m.addState(true, 0, 0) },  // join, accepting
		func() []int { return m.setAccept(4, false) },   // revert: merge restores coarseness
		func() []int { return m.removeState(7, 2) },     // leave with redirected in-edges
		func() []int { return m.rewire(1, 0, 4) },       // restore original edge shape
		func() []int { return m.removeState(10, 1) },    // remove the state added above
	}
	for _, step := range steps {
		d.Update(step())
		dynOracleCheck(t, d, m)
	}
}

// cycleDyn is the n-cycle: state i moves to i+1 on symbol 0 and to i-1
// on symbol 1, and no state accepts, so it is one class. Accepting one
// state tells every other state apart by its signed distance to it.
func cycleDyn(n int) *dyndfa {
	next := make([][]int, n)
	for i := range next {
		next[i] = []int{(i + 1) % n, (i + n - 1) % n}
	}
	return newDynDFA(newDFA(make([]bool, n), next))
}

func TestDynMergeRestoresCoarseness(t *testing.T) {
	// A 12-cycle: fully symmetric, one class.
	m := cycleDyn(12)
	d, err := NewDyn(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumClasses() != 1 {
		t.Fatalf("symmetric cycle classes = %d, want 1", d.NumClasses())
	}
	// Breaking one state's color shatters the cycle into distance
	// classes...
	d.Update(m.setAccept(0, true))
	dynOracleCheck(t, d, m)
	if d.NumClasses() <= 2 {
		t.Fatalf("broken cycle classes = %d, want distance classes", d.NumClasses())
	}
	// ...and reverting must merge them all back: this is the quotient
	// pass earning its keep.
	st := d.Update(m.setAccept(0, false))
	dynOracleCheck(t, d, m)
	if d.NumClasses() != 1 {
		t.Fatalf("restored cycle classes = %d, want 1", d.NumClasses())
	}
	if !st.MergePass || st.Merges == 0 || st.Rebuild {
		t.Fatalf("expected a merge pass with merges and no rebuild, got %+v", st)
	}
}

// forEachDriver runs f once per quotient driver. dyndfa's signatures
// count, so Hopcroft and the worklist driver (the set rule's) are both
// sound on it and must agree with the oracle.
func forEachDriver(t *testing.T, f func(t *testing.T, counting bool)) {
	t.Helper()
	for _, tc := range []struct {
		name     string
		counting bool
	}{{"hopcroft", true}, {"worklist", false}} {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.counting) })
	}
}

func TestDynRandomTraces(t *testing.T) {
	forEachDriver(t, testDynRandomTraces)
}

func testDynRandomTraces(t *testing.T, counting bool) {
	rng := rand.New(rand.NewSource(20260809))
	for trace := 0; trace < 60; trace++ {
		nd := 2 + rng.Intn(12)
		acc := make([]bool, nd)
		next := make([][]int, nd)
		for i := range next {
			acc[i] = rng.Intn(2) == 1
			next[i] = []int{rng.Intn(nd), rng.Intn(nd)}
		}
		m := newDynDFA(newDFA(acc, next))
		m.counting = counting
		d, err := NewDyn(m)
		if err != nil {
			t.Fatal(err)
		}
		for ev := 0; ev < 30; ev++ {
			live := m.liveStates()
			pick := func() int { return live[rng.Intn(len(live))] }
			var touched []int
			switch op := rng.Intn(5); {
			case op == 0:
				x := pick()
				touched = m.setAccept(x, !m.accept[x])
			case op == 1:
				touched = m.rewire(pick(), rng.Intn(2), pick())
			case op == 2:
				touched = m.addState(rng.Intn(2) == 1, pick(), pick())
			case op == 3 && len(live) > 1:
				x := pick()
				r := pick()
				for r == x {
					r = pick()
				}
				touched = m.removeState(x, r)
			default:
				touched = m.rewire(pick(), rng.Intn(2), pick())
			}
			d.Update(touched)
			dynOracleCheck(t, d, m)
		}
	}
}

// fanDyn is n leaves (slots 0..n-1) over 256 anchors with distinct init
// keys (slots n..n+255): leaf i reads the anchors along the base-256
// digits of i, so the leaves share an initial class and all differ in
// signature.
type fanDyn struct{ n, digits int }

func newFanDyn(n int) fanDyn {
	f := fanDyn{n: n}
	for span := 1; span < n; span *= 256 {
		f.digits++
	}
	return f
}

func (f fanDyn) Len() int       { return f.n + 256 }
func (f fanDyn) Alive(int) bool { return true }
func (f fanDyn) Counting() bool { return true }

func (f fanDyn) InitKey(i int) string {
	if i < f.n {
		return "leaf"
	}
	return strconv.Itoa(i)
}

func (f fanDyn) Signature(i int, label func(int) int) string {
	return fmt.Sprint(f.AppendSignature(nil, i, label))
}

func (f fanDyn) AppendSignature(buf []uint64, i int, label func(int) int) []uint64 {
	for _, e := range f.AppendOutEdges(nil, i) {
		buf = append(buf, uint64(label(e.To)))
	}
	return buf
}

func (f fanDyn) AppendOutEdges(buf []TaggedEdge, i int) []TaggedEdge {
	for d := 0; i < f.n && d < f.digits; d++ {
		buf = append(buf, TaggedEdge{To: f.n + i>>(8*d)&255, Tag: d})
	}
	return buf
}

func (f fanDyn) Dependents(i int) []int {
	var out []int
	for x := 0; i >= f.n && x < f.n; x++ {
		for _, e := range f.AppendOutEdges(nil, x) {
			if e.To == i {
				out = append(out, x)
			}
		}
	}
	return out
}

// TestDynKWaySplitIsFast pins the cost of one class splitting k ways:
// NewDyn on a fan regroups the leaf class into singletons in one settle
// round. Grouping the movers by id keeps that near-linear, so growing
// the fan from 2¹³ to 2¹⁶ leaves (8×) multiplies the best of 3 build
// times by about 10–11, with or without -race; matching every distinct
// id against every mover is quadratic and multiplies them by about 64.
// The bound is a ratio of two timings on the same host, so it does not
// depend on the host's speed.
func TestDynKWaySplitIsFast(t *testing.T) {
	best := func(f fanDyn) time.Duration {
		var min time.Duration
		for range 3 {
			start := time.Now()
			d, err := NewDyn(f)
			if err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if d.NumClasses() != f.Len() {
				t.Fatalf("%d leaves: classes = %d, want %d", f.n, d.NumClasses(), f.Len())
			}
			if min == 0 || elapsed < min {
				min = elapsed
			}
		}
		return min
	}
	small, large := newFanDyn(1<<13), newFanDyn(1<<16)
	tSmall, tLarge := best(small), best(large)
	ratio := float64(tLarge) / float64(tSmall)
	t.Logf("NewDyn best of 3: %v on a %d-way split, %v on a %d-way split (%.1f×)", tSmall, small.n, tLarge, large.n, ratio)
	if ratio > 32 {
		t.Errorf("the %d-way split took %.1f× the %d-way split's time, limit 32×; grouping movers should be near-linear", large.n, ratio, small.n)
	}
	d, err := NewDyn(large)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := FixpointNaive(large)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Canonical(), oracle.Canonical()) {
		t.Fatal("k-way split differs from the naive oracle")
	}
}

func TestDynLargeQuotientMerge(t *testing.T) {
	// modDFA(331, 2): 662 states, 331 classes (odd modulus keeps every
	// residue distinguishable under the doubling map), so a
	// quotient-changing event refines a quotient half the structure's
	// size: k² > 64·slots, and the merge pass still handles it.
	forEachDriver(t, func(t *testing.T, counting bool) {
		m := newDynDFA(modDFA(331, 2))
		m.counting = counting
		d, err := NewDyn(m)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumClasses() != 331 {
			t.Fatalf("classes = %d, want 331", d.NumClasses())
		}
		for _, acc := range []bool{true, false} {
			st := d.Update(m.setAccept(1, acc))
			if !st.MergePass || st.Rebuild {
				t.Fatalf("setAccept(1, %v): expected a merge pass and no rebuild, got %+v", acc, st)
			}
			dynOracleCheck(t, d, m)
		}
		if d.NumClasses() != 331 {
			t.Fatalf("classes after revert = %d, want 331", d.NumClasses())
		}
	})
}

// TestDynTotalStatsCountsUpdatesOnly pins that the initial build shows
// in LastStats but never in TotalStats, which sums the Updates alone.
func TestDynTotalStatsCountsUpdatesOnly(t *testing.T) {
	m := newDynDFA(modDFA(5, 3))
	d, err := NewDyn(m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.LastStats().Rebuild || d.LastStats().SigComputes == 0 {
		t.Fatalf("LastStats after NewDyn = %+v, want the build's work", d.LastStats())
	}
	if got := d.TotalStats(); got != (UpdateStats{}) {
		t.Fatalf("TotalStats after NewDyn = %+v, want zero", got)
	}
	var want UpdateStats
	steps := []func() []int{
		func() []int { return m.setAccept(4, true) },
		func() []int { return m.rewire(1, 0, 7) },
		func() []int { return m.setAccept(4, false) },
		func() []int { return m.rewire(1, 0, 2) },
	}
	for _, step := range steps {
		st := d.Update(step())
		if st != d.LastStats() {
			t.Fatalf("Update returned %+v, LastStats %+v", st, d.LastStats())
		}
		want.Touched += st.Touched
		want.TouchedClasses += st.TouchedClasses
		want.Splits += st.Splits
		want.Merges += st.Merges
		want.Relabeled += st.Relabeled
		want.SigComputes += st.SigComputes
		want.Rounds += st.Rounds
		want.MergePass = want.MergePass || st.MergePass
		want.Classes = st.Classes
	}
	if got := d.TotalStats(); got != want {
		t.Fatalf("TotalStats = %+v, want the sum of the Updates %+v", got, want)
	}
	if !want.MergePass || want.Merges == 0 {
		t.Fatalf("trace never merged (%+v); it no longer exercises the merge pass", want)
	}
}

// TestDynIDSpaceBounded drives a long join/leave stream and checks that
// the persistent signature-id table never outgrows its compaction
// bound. Each join hangs a fresh state into the DFA, which relabels its
// predecessors' classes and interns new signatures; without compaction
// the table only grows.
func TestDynIDSpaceBounded(t *testing.T) {
	forEachDriver(t, func(t *testing.T, counting bool) {
		m := newDynDFA(modDFA(7, 8))
		m.counting = counting
		d, err := NewDyn(m)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5000))
		compactions := 0
		type join struct{ x, y, sym, old int }
		var stack []join
		for ev := 0; ev < 5000; ev++ {
			live := m.liveStates()
			var touched []int
			if len(stack) > 0 && (len(stack) == 8 || rng.Intn(2) == 1) {
				j := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				touched = m.removeState(j.x, j.old)
			} else {
				y, sym := live[rng.Intn(len(live))], rng.Intn(2)
				old := m.next[y][sym]
				touched = m.addState(rng.Intn(2) == 1, live[rng.Intn(len(live))], live[rng.Intn(len(live))])
				x := touched[0]
				touched = append(touched, m.rewire(y, sym, x)...)
				stack = append(stack, join{x, y, sym, old})
			}
			before := d.enc.tab.Len()
			d.Update(touched)
			if after := d.enc.tab.Len(); after > d.idBound() {
				t.Fatalf("event %d: %d interned ids, bound %d", ev, after, d.idBound())
			} else if after < before {
				compactions++
			}
		}
		if compactions == 0 {
			t.Fatal("the id table never compacted; the stream no longer exercises the bound")
		}
		dynOracleCheck(t, d, m)
	})
}

// TestDynClassMembersCopied is the mutation-unsafe-sharing regression
// test: ClassMembers must hand out a copy, because the engine mutates
// its member lists in place (swap-removal on detach, splits, merges).
// Before the copy, the sequence below corrupted the caller's snapshot.
func TestDynClassMembersCopied(t *testing.T) {
	m := newDynDFA(modDFA(3, 3))
	d, err := NewDyn(m)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Label(0)
	snap := d.ClassMembers(c)
	before := append([]int(nil), snap...)

	// An update that splits and relabels: with borrowed storage the
	// engine's swap-removals would scramble snap under the caller.
	d.Update(m.setAccept(snap[len(snap)-1], true))
	dynOracleCheck(t, d, m)
	for i := range snap {
		if snap[i] != before[i] {
			t.Fatalf("ClassMembers result mutated by Update: %v vs %v", snap, before)
		}
	}

	// Caller-side writes must not reach the engine either.
	snap2 := d.ClassMembers(d.Label(0))
	for i := range snap2 {
		snap2[i] = -99
	}
	if err := d.Check(); err != nil {
		t.Fatalf("caller write corrupted engine state: %v", err)
	}
}

func TestDynEmptyStructure(t *testing.T) {
	m := &dyndfa{}
	if _, err := NewDyn(m); err != ErrEmptyStructure {
		t.Fatalf("err = %v, want ErrEmptyStructure", err)
	}
}

// quotientView is a CountStructure over a Dyn quotient, so that
// FixpointHopcroft can refine it through its CountStructure entry.
type quotientView struct{ *quotient }

func (q quotientView) AppendOutEdges(buf []TaggedEdge, n int) []TaggedEdge {
	return append(buf, q.edges[q.off[n]:q.off[n+1]]...)
}

// entryRun is one merge pass's quotient as updateComparingEntries saw
// it: its nodes' init keys and its refinement.
type entryRun struct {
	keys []string
	hopcroftRun
}

// classes returns the number of classes the quotient refined to, 0
// when no merge pass ran.
func (e entryRun) classes() int {
	if len(e.labels) == 0 {
		return 0
	}
	return slices.Max(e.labels) + 1
}

// updateComparingEntries applies touched as Update does. When the event
// runs the merge pass, the pass's quotient is first refined through both
// Hopcroft entries, the merge pass's in-place refineQuotient and
// FixpointHopcroft over quotientView, which must agree in labels and
// RoundHook stream. It reports whether the pass ran.
func updateComparingEntries(t *testing.T, d *Dyn, touched []int) (entryRun, bool) {
	t.Helper()
	var st UpdateStats
	var seen entryRun
	changed := false
	d.grow(d.s.Len())
	for _, x := range touched {
		d.reconcile(x, &st, &changed)
	}
	d.settle(&st, &changed)
	ran := changed && d.liveClasses > 1
	if ran {
		q := d.newQuotient()
		for n := range q.cls {
			seen.keys = append(seen.keys, q.InitKey(n))
		}
		want := runHopcroft(FixpointHopcroft, quotientView{q})
		seen.hopcroftRun = runHopcroft(func(_ CountStructure, hook RoundHook) (*Partition, error) {
			return d.refineQuotient(q, hook)
		}, quotientView{q})
		if !reflect.DeepEqual(seen.hopcroftRun, want) {
			t.Fatalf("quotient of %d nodes (init keys %v): in-place entry gave %+v, FixpointHopcroft %+v",
				len(q.cls), seen.keys, seen.hopcroftRun, want)
		}
		d.mergePass(&st)
	}
	d.compactIDs(&st)
	return seen, ran
}

// TestDynQuotientEntriesAgree refines Dyn merge-pass quotients through
// both Hopcroft entries: the merge pass hands the refiner the
// quotient's own arrays and ranks its init classes from integer ids,
// and FixpointHopcroft reads the same quotient as a CountStructure. The
// cases are a tree under leaf churn, the broken 12-cycle merging back
// into one class, and a quotient whose node 0 has the larger init key,
// so that numbering the initial classes in any order but key order
// shows in the RoundHook stream.
func TestDynQuotientEntriesAgree(t *testing.T) {
	t.Run("tree", func(t *testing.T) {
		// A complete binary tree of 63 states whose 32 leaves accept
		// and loop. A join points one edge of a live state at a fresh
		// rejecting sink, which splits the classes along its root
		// path; a leave removes the latest join and restores the edge.
		const n = 63
		acc := make([]bool, n)
		next := make([][]int, n)
		for i := range next {
			if l := 2*i + 1; l < n {
				next[i] = []int{l, l + 1}
			} else {
				acc[i], next[i] = true, []int{i, i}
			}
		}
		m := newDynDFA(newDFA(acc, next))
		d, err := NewDyn(m)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		type join struct{ x, old int }
		var stack []join
		passes, merging := 0, 0
		for ev := 0; ev < 300; ev++ {
			var touched []int
			if len(stack) == 8 || len(stack) > 0 && rng.Intn(2) == 1 {
				j := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				touched = m.removeState(j.x, j.old)
			} else {
				live := m.liveStates()
				y, sym := live[rng.Intn(len(live))], rng.Intn(2)
				x := m.Len()
				old := m.next[y][sym]
				touched = append(m.addState(false, x, x), m.rewire(y, sym, x)...)
				stack = append(stack, join{x, old})
			}
			if e, ok := updateComparingEntries(t, d, touched); ok {
				passes++
				if e.classes() < len(e.keys) {
					merging++
				}
			}
		}
		dynOracleCheck(t, d, m)
		if passes < 100 || merging == 0 {
			t.Fatalf("%d merge passes, %d of them merging: the trace no longer exercises the pass", passes, merging)
		}
	})
	t.Run("cycle", func(t *testing.T) {
		m := cycleDyn(12)
		d, err := NewDyn(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := updateComparingEntries(t, d, m.setAccept(0, true)); !ok {
			t.Fatal("breaking the cycle ran no merge pass")
		}
		e, ok := updateComparingEntries(t, d, m.setAccept(0, false))
		if !ok || len(e.keys) != 12 || e.classes() != 1 {
			t.Fatalf("restoring the cycle refined %d quotient nodes to %d classes, want 12 to 1", len(e.keys), e.classes())
		}
		dynOracleCheck(t, d, m)
	})
	t.Run("node0-larger-key", func(t *testing.T) {
		// modDFA(5, 3) with no accepting state is one class, 0, keyed
		// "rej". Accepting state 7 splits it, and class 0, quotient node
		// 0, keeps the larger key.
		m := newDynDFA(modDFA(5, 3))
		clear(m.accept)
		d, err := NewDyn(m)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := updateComparingEntries(t, d, m.setAccept(7, true))
		if !ok || e.keys[0] != "rej" || !slices.Contains(e.keys, "acc") || len(e.hooks) == 0 {
			t.Fatalf("quotient init keys %v, hooks %v (merge pass %v): want node 0 at \"rej\", an \"acc\" node and a split", e.keys, e.hooks, ok)
		}
		dynOracleCheck(t, d, m)
	})
}

// TestDynWarmMergePassAllocatesNothing pins FixpointHopcroft's promise
// that a warm Dyn merge pass allocates nothing. Accepting state 0 of a
// 64-cycle splits it into 64 singleton classes, and rejecting it again
// runs a merge pass that merges 63 of them back into one.
func TestDynWarmMergePassAllocatesNothing(t *testing.T) {
	const n = 64
	m := cycleDyn(n)
	d, err := NewDyn(m)
	if err != nil {
		t.Fatal(err)
	}
	touched := []int{0}
	toggle := func() (split, merge UpdateStats) {
		m.accept[0] = true
		split = d.Update(touched)
		m.accept[0] = false
		return split, d.Update(touched)
	}
	for range 10 {
		toggle()
	}
	if split, merge := toggle(); split.Classes != n || !merge.MergePass || merge.Merges != n-1 || merge.Classes != 1 {
		t.Fatalf("split %+v, merge %+v: want %d classes, then a pass merging %d", split, merge, n, n-1)
	}
	if allocs := testing.AllocsPerRun(20, func() { toggle() }); allocs != 0 {
		t.Fatalf("a warm split and merge pass allocate %v times, want 0", allocs)
	}
}
