package msgpass

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"simsym/internal/partition"
)

func TestDirectedRingAllSimilar(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		net, err := DirectedRing(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, counting := range []bool{true, false} {
			labels, err := Similarity(net, counting)
			if err != nil {
				t.Fatal(err)
			}
			for p := range labels {
				if labels[p] != labels[0] {
					t.Errorf("ring %d counting=%v: not all similar: %v", n, counting, labels)
				}
			}
		}
	}
}

func TestMarkedRingSeparates(t *testing.T) {
	net, err := DirectedRing(5)
	if err != nil {
		t.Fatal(err)
	}
	net.Init[2] = "leader"
	labels, err := Similarity(net, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 5 {
		t.Errorf("marked directed ring should separate fully: %v", labels)
	}
}

func TestChainSeparatesByDepth(t *testing.T) {
	// p0 has no in-neighbors, p1 hears from p0, etc.: the chain
	// separates fully under refinement.
	net, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := Similarity(net, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 4; j++ {
			if labels[i] == labels[j] {
				t.Errorf("chain positions %d and %d should differ: %v", i, j, labels)
			}
		}
	}
}

func TestBiRingProperties(t *testing.T) {
	net, err := BiRing(6)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Bidirectional() {
		t.Error("BiRing should be bidirectional")
	}
	if !net.StronglyConnected() {
		t.Error("BiRing should be strongly connected")
	}
	chain, err := Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Bidirectional() {
		t.Error("Chain should not be bidirectional")
	}
	if chain.StronglyConnected() {
		t.Error("Chain should not be strongly connected")
	}
	ring, err := DirectedRing(4)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Bidirectional() {
		t.Error("DirectedRing should not be bidirectional")
	}
	if !ring.StronglyConnected() {
		t.Error("DirectedRing should be strongly connected")
	}
}

func TestCSPTransferCondition(t *testing.T) {
	// Extended CSP ≈ L: the all-similar ring labeling has adjacent
	// same-label processors, so it does NOT transfer; a marked ring's
	// full separation does.
	net, err := BiRing(4)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := Similarity(net, true)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := NoAdjacentSameLabel(net, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("uniform ring labeling should fail the CSP transfer condition")
	}
	net.Init[0] = "leader"
	labels, err = Similarity(net, true)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = NoAdjacentSameLabel(net, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("fully-separated labeling should satisfy the CSP transfer condition")
	}
}

func TestCountingRefinesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		net, err := Random(rng, 2+rng.Intn(7), 0.4, 1+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := Similarity(net, true)
		if err != nil {
			t.Fatal(err)
		}
		set, err := Similarity(net, false)
		if err != nil {
			t.Fatal(err)
		}
		for p := range cnt {
			for q := range cnt {
				if cnt[p] == cnt[q] && set[p] != set[q] {
					t.Fatalf("trial %d: counting similar but set dissimilar (%d,%d)", trial, p, q)
				}
			}
		}
	}
}

func TestFloodMatchesSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		net, err := Random(rng, n, 0.5, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, counting := range []bool{true, false} {
			labels, err := Similarity(net, counting)
			if err != nil {
				t.Fatal(err)
			}
			colors, err := Flood(net, counting, n+2, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			if !SamePartition(labels, ColorsPartition(colors)) {
				t.Fatalf("trial %d counting=%v: flooding %v != similarity %v",
					trial, counting, ColorsPartition(colors), labels)
			}
		}
	}
}

func TestFloodScheduleIndependent(t *testing.T) {
	net, err := BiRing(5)
	if err != nil {
		t.Fatal(err)
	}
	net.Init[0] = "leader"
	base, err := Flood(net, true, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed < 8; seed++ {
		got, err := Flood(net, true, 7, seed)
		if err != nil {
			t.Fatal(err)
		}
		for p := range got {
			if got[p] != base[p] {
				t.Fatalf("seed %d: flooding colors depend on delivery order", seed)
			}
		}
	}
}

func TestChainMimicry(t *testing.T) {
	// Unidirectional, fair, not strongly connected: a processor whose
	// predecessors have been silent looks exactly like a processor
	// nearer the source. Only the deepest processor (p3) has a view no
	// one else can fake, so only p3 can safely self-select.
	net, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Mimics(net)
	if err != nil {
		t.Fatal(err)
	}
	// p1 with silent p0 appears as the source p0.
	if !rel[0][1] {
		t.Error("p1 (predecessor silent) should appear as the source p0")
	}
	// p3 with silent {p0} sits at depth 2 and appears as p2.
	if !rel[2][3] {
		t.Error("p3 (with p0 silent) should appear as p2")
	}
	free := MimicsNobody(rel)
	if len(free) != 1 || free[0] != 3 {
		t.Errorf("safe deciders = %v, want [3] (only the deepest view is unfakeable)", free)
	}
}

func TestStronglyConnectedMimicCollapsesToSimilarity(t *testing.T) {
	// Paper: all other asynchronous message-passing systems give results
	// like those of Q — for strongly-connected networks, silence
	// variants add nothing beyond plain similarity.
	net, err := DirectedRing(5)
	if err != nil {
		t.Fatal(err)
	}
	net.Init[0] = "leader"
	rel, err := Mimics(net)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := Similarity(net, false)
	if err != nil {
		t.Fatal(err)
	}
	for x := range rel {
		for y := range rel[x] {
			if x == y {
				continue
			}
			if rel[x][y] != (labels[x] == labels[y]) {
				t.Errorf("rel[%d][%d]=%v but similarity says %v", x, y, rel[x][y], labels[x] == labels[y])
			}
		}
	}
}

func TestValidation(t *testing.T) {
	var empty Network
	if err := empty.Validate(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty = %v", err)
	}
	bad := &Network{ProcIDs: []string{"a"}, Init: []string{"0"}, Out: [][]int{{7}}}
	if err := bad.Validate(); !errors.Is(err, ErrBadEdge) {
		t.Errorf("bad edge = %v", err)
	}
	if _, err := Similarity(bad, true); err == nil {
		t.Error("similarity on invalid network should fail")
	}
	if _, err := DirectedRing(0); err == nil {
		t.Error("DirectedRing(0) should fail")
	}
	if _, err := Chain(0); err == nil {
		t.Error("Chain(0) should fail")
	}
	big, err := DirectedRing(MaxMimicProcs + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mimics(big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("too large = %v", err)
	}
}

func TestSamePartition(t *testing.T) {
	if !SamePartition([]int{0, 0, 1}, []int{5, 5, 9}) {
		t.Error("renamed partitions should match")
	}
	if SamePartition([]int{0, 0, 1}, []int{0, 1, 1}) {
		t.Error("different partitions should not match")
	}
	if SamePartition([]int{0}, []int{0, 1}) {
		t.Error("size mismatch should not match")
	}
}

func TestUniqueLabels(t *testing.T) {
	if got := UniqueLabels([]int{0, 1, 1, 2}); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("UniqueLabels = %v, want positions [0 3]", got)
	}
	if got := UniqueLabels([]int{5, 5}); len(got) != 0 {
		t.Errorf("UniqueLabels = %v, want none", got)
	}
}

func TestElectByFlooding(t *testing.T) {
	// A marked ring elects its mark-determined leader regardless of the
	// delivery schedule; the anonymous ring elects nobody.
	net, err := DirectedRing(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ElectByFlooding(net, true, 1); err != nil || ok {
		t.Errorf("anonymous ring elected someone (ok=%v err=%v)", ok, err)
	}
	net.Init[3] = "leader"
	first := -1
	for seed := int64(0); seed < 6; seed++ {
		leader, ok, err := ElectByFlooding(net, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("marked ring should elect")
		}
		if first == -1 {
			first = leader
		} else if leader != first {
			t.Fatalf("leader depends on delivery schedule: %d vs %d", leader, first)
		}
	}
}

// stringOracle is netStructure with a string Signature, so FixpointNaive
// can cross-check the token path on random networks: the run-length
// string encoding of the in-neighbor label multiset (counting) or set
// (overwrite).
type stringOracle struct{ *netStructure }

func (s stringOracle) Signature(i int, label func(int) int) string {
	labels := make([]int, 0, len(s.in[i]))
	for _, p := range s.in[i] {
		labels = append(labels, label(p))
	}
	sort.Ints(labels)
	var b strings.Builder
	prev := -1
	run := 0
	flush := func() {
		if run > 0 {
			if s.counting {
				fmt.Fprintf(&b, "%d*%d;", prev, run)
			} else {
				fmt.Fprintf(&b, "%d;", prev)
			}
		}
	}
	for _, l := range labels {
		if l != prev {
			flush()
			prev = l
			run = 0
		}
		run++
	}
	flush()
	return b.String()
}

// TestTokenSignatureMatchesStringOracle cross-checks the interned token
// path (netStructure.OutEdges via FixpointWorklist, the
// production driver) against the string-signature oracle (FixpointNaive)
// on random networks, in both the counting and overwrite regimes. The
// two encodings must induce the same refinement relation.
func TestTokenSignatureMatchesStringOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(14)
		p := 0.1 + rng.Float64()*0.5
		net, err := Random(rng, n, p, 1+rng.Intn(3))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, counting := range []bool{true, false} {
			st := newNetStructure(net, counting)
			fast, err := partition.FixpointWorklist(st, nil)
			if err != nil {
				t.Fatalf("trial %d counting=%v: worklist: %v", trial, counting, err)
			}
			slow, err := partition.FixpointNaive(stringOracle{st})
			if err != nil {
				t.Fatalf("trial %d counting=%v: naive: %v", trial, counting, err)
			}
			if !partition.SameRelation(fast, slow) {
				t.Fatalf("trial %d counting=%v: token path %v disagrees with string oracle %v",
					trial, counting, fast.Canonical(), slow.Canonical())
			}
			got, err := Similarity(net, counting)
			if err != nil {
				t.Fatalf("trial %d counting=%v: Similarity: %v", trial, counting, err)
			}
			want := slow.Canonical()
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d counting=%v: Similarity %v != oracle canonical %v",
						trial, counting, got, want)
				}
			}
		}
	}
}

// aliveNet views a netStructure as a partition.DynStructure.
type aliveNet struct{ *netStructure }

func (aliveNet) Alive(int) bool { return true }

// TestOutEdgesUnchanged pins the zero-copy contract of
// netStructure.OutEdges: the drivers read its in-neighbor lists and its
// shared zero tags and never write through them. Under both regimes
// every list is snapshot, then FixpointHopcroft, FixpointWorklist and
// Dyn updates run, and every list must read as before. The updates give
// processors a fresh initial state and back, which changes init keys
// only, so settle and the merge pass re-read edges that did not change.
func TestOutEdgesUnchanged(t *testing.T) {
	net, err := Random(rand.New(rand.NewSource(17)), 40, 0.08, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, counting := range []bool{true, false} {
		st := newNetStructure(net, counting)
		lists := func() (out [][2][]int) {
			for i := 0; i < st.Len(); i++ {
				to, tags := st.OutEdges(i)
				out = append(out, [2][]int{slices.Clone(to), slices.Clone(tags)})
			}
			return out
		}
		want := lists()
		check := func(after string) {
			t.Helper()
			if !reflect.DeepEqual(lists(), want) {
				t.Fatalf("counting=%v: %s wrote through an OutEdges list", counting, after)
			}
		}
		if _, err := partition.FixpointHopcroft(st, nil); err != nil {
			t.Fatal(err)
		}
		check("FixpointHopcroft")
		if _, err := partition.FixpointWorklist(st, nil); err != nil {
			t.Fatal(err)
		}
		check("FixpointWorklist")
		d, err := partition.NewDyn(aliveNet{st})
		if err != nil {
			t.Fatal(err)
		}
		passes := 0
		for p := 0; p < 16; p++ {
			for _, init := range []string{"fresh", net.Init[p]} {
				net.Init[p] = init
				if d.Update([]int{p}).MergePass {
					passes++
				}
				check(fmt.Sprintf("Dyn.Update (p%d init %q)", p, init))
			}
		}
		if passes == 0 {
			t.Fatalf("counting=%v: no update ran a merge pass", counting)
		}
		if err := d.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// Bidirectional reports whether every edge has a reverse edge.
func (n *Network) Bidirectional() bool {
	has := make(map[[2]int]bool)
	for p, outs := range n.Out {
		for _, q := range outs {
			has[[2]int{p, q}] = true
		}
	}
	for e := range has {
		if !has[[2]int{e[1], e[0]}] {
			return false
		}
	}
	return true
}

// StronglyConnected reports whether the digraph is strongly connected.
func (n *Network) StronglyConnected() bool {
	if n.NumProcs() == 0 {
		return true
	}
	reach := func(adj [][]int) int {
		seen := make([]bool, n.NumProcs())
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, q := range adj[p] {
				if !seen[q] {
					seen[q] = true
					count++
					stack = append(stack, q)
				}
			}
		}
		return count
	}
	if reach(n.Out) != n.NumProcs() {
		return false
	}
	return reach(n.In()) == n.NumProcs()
}

// Random returns a random digraph with the given edge probability.
func Random(rng *rand.Rand, n int, p float64, inits int) (*Network, error) {
	if n < 1 {
		return nil, ErrEmpty
	}
	if inits < 1 {
		inits = 1
	}
	net := &Network{
		ProcIDs: make([]string, n),
		Init:    make([]string, n),
		Out:     make([][]int, n),
	}
	for i := 0; i < n; i++ {
		net.ProcIDs[i] = fmt.Sprintf("p%d", i)
		net.Init[i] = fmt.Sprintf("s%d", rng.Intn(inits))
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				net.Out[i] = append(net.Out[i], j)
			}
		}
	}
	return net, nil
}

// ColorsPartition converts flooding colors into canonical dense labels.
func ColorsPartition(colors []string) []int {
	remap := make(map[string]int)
	out := make([]int, len(colors))
	next := 0
	for i, c := range colors {
		id, ok := remap[c]
		if !ok {
			id = next
			remap[c] = id
			next++
		}
		out[i] = id
	}
	return out
}

// SamePartition reports whether two label vectors induce the same
// equivalence relation.
func SamePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int]int)
	bwd := make(map[int]int)
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := bwd[b[i]]; ok && x != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

// ElectByFlooding is the message-passing SELECT: run flooding until the
// colors stabilize, then the processor whose color is globally unique
// and lexicographically least among unique colors is the leader. It
// returns the elected processor, or ok=false when no processor ends up
// with a unique color (every processor similar to another — Theorem 2's
// message-passing face).
func ElectByFlooding(n *Network, counting bool, seed int64) (leader int, ok bool, err error) {
	if err := n.Validate(); err != nil {
		return 0, false, err
	}
	colors, err := Flood(n, counting, n.NumProcs()+2, seed)
	if err != nil {
		return 0, false, err
	}
	count := make(map[string]int)
	for _, c := range colors {
		count[c]++
	}
	best := ""
	leader = -1
	for p, c := range colors {
		if count[c] != 1 {
			continue
		}
		if best == "" || c < best {
			best = c
			leader = p
		}
	}
	if leader < 0 {
		return 0, false, nil
	}
	return leader, true, nil
}
