package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// dfa is a deterministic finite automaton used as a reference Structure:
// partition refinement over it is exactly Hopcroft/Moore minimization,
// the [H71] application the paper cites.
type dfa struct {
	accept []bool
	next   [][]int // next[state][symbol]
	prev   [][]int // reverse edges (all symbols merged)
	syms   []int   // 0, 1, ...: the tags of every state's edges
}

func newDFA(accept []bool, next [][]int) *dfa {
	d := &dfa{accept: accept, next: next, prev: make([][]int, len(accept))}
	for s := range next {
		for sym, t := range next[s] {
			d.prev[t] = append(d.prev[t], s)
			if sym == len(d.syms) {
				d.syms = append(d.syms, sym)
			}
		}
	}
	return d
}

func (d *dfa) Len() int { return len(d.accept) }

func (d *dfa) InitKey(i int) string {
	if d.accept[i] {
		return "acc"
	}
	return "rej"
}

func (d *dfa) Signature(i int, label func(int) int) string {
	sig := ""
	for _, t := range d.next[i] {
		sig += fmt.Sprintf("%d,", label(t))
	}
	return sig
}

// OutEdges makes transitions tagged edges, one per symbol. A state's
// signature, its successors' labels in symbol order, is then the
// multiset and the set of its (symbol, label) pairs alike, so the dfa
// reports Counting and every driver applies.
func (d *dfa) OutEdges(i int) (to, tags []int) { return d.next[i], d.syms[:len(d.next[i])] }
func (d *dfa) Counting() bool                  { return true }
func (d *dfa) Dependents(i int) []int          { return d.prev[i] }

// modDFA builds a DFA over alphabet {0,1} with n*k states (value mod n
// replicated k times) accepting when value mod n == 0. Its minimal DFA has
// exactly n states, so refinement must find exactly n classes.
func modDFA(n, k int) *dfa {
	total := n * k
	accept := make([]bool, total)
	next := make([][]int, total)
	for s := 0; s < total; s++ {
		v := s % n
		accept[s] = v == 0
		// Successor copies are chosen cyclically so the copies are truly
		// equivalent but not structurally identical.
		copyA := (s/n + 1) % k
		copyB := (s/n + 2) % k
		next[s] = []int{
			copyA*n + (v*2)%n,
			copyB*n + (v*2+1)%n,
		}
	}
	return newDFA(accept, next)
}

func TestDFAMinimizationExact(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{3, 1}, {3, 4}, {5, 3}, {7, 2}, {1, 5}} {
		t.Run(fmt.Sprintf("mod%dx%d", tc.n, tc.k), func(t *testing.T) {
			d := modDFA(tc.n, tc.k)
			p, err := FixpointNaive(d)
			if err != nil {
				t.Fatal(err)
			}
			if p.NumClasses() != tc.n {
				t.Errorf("NumClasses = %d, want %d\n%s", p.NumClasses(), tc.n, p)
			}
			// Equivalent states (same residue) must share a class.
			for s := 0; s < d.Len(); s++ {
				if p.Label(s) != p.Label(s%tc.n) {
					t.Errorf("state %d not merged with its residue class", s)
				}
			}
		})
	}
}

func TestWorklistMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(40)
		accept := make([]bool, n)
		next := make([][]int, n)
		for s := 0; s < n; s++ {
			accept[s] = rng.Intn(2) == 0
			next[s] = []int{rng.Intn(n), rng.Intn(n)}
		}
		d := newDFA(accept, next)
		a, err := FixpointNaive(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FixpointWorklist(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !SameRelation(a, b) {
			t.Fatalf("trial %d: naive %v != worklist %v", trial, a, b)
		}
	}
}

func TestEmptyStructure(t *testing.T) {
	d := newDFA(nil, nil)
	if _, err := FixpointNaive(d); !errors.Is(err, ErrEmptyStructure) {
		t.Errorf("naive on empty = %v", err)
	}
	if _, err := FixpointWorklist(d, nil); !errors.Is(err, ErrEmptyStructure) {
		t.Errorf("worklist on empty = %v", err)
	}
}

func TestStabilityInvariant(t *testing.T) {
	// At the fixpoint, same label must imply same signature.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		accept := make([]bool, n)
		next := make([][]int, n)
		for s := 0; s < n; s++ {
			accept[s] = rng.Intn(3) == 0
			next[s] = []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
		}
		d := newDFA(accept, next)
		p, err := FixpointWorklist(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		lbl := func(i int) int { return p.Label(i) }
		sigOf := make(map[int]string)
		for i := 0; i < n; i++ {
			sig := d.Signature(i, lbl)
			if prev, ok := sigOf[p.Label(i)]; ok && prev != sig {
				t.Fatalf("trial %d: class %d unstable: %q vs %q", trial, p.Label(i), prev, sig)
			}
			sigOf[p.Label(i)] = sig
		}
	}
}

func TestCoarsestInvariant(t *testing.T) {
	// The fixpoint must be the COARSEST stable refinement of the initial
	// coloring: check against brute-force coarsest stable partition on
	// tiny automata.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		accept := make([]bool, n)
		next := make([][]int, n)
		for s := 0; s < n; s++ {
			accept[s] = rng.Intn(2) == 0
			next[s] = []int{rng.Intn(n)}
		}
		d := newDFA(accept, next)
		p, err := FixpointNaive(d)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: two states are equivalent iff same acceptance and
		// equivalence is preserved along all successor chains up to n
		// steps (enough for n states).
		equiv := func(a, b int) bool {
			x, y := a, b
			for step := 0; step <= n; step++ {
				if d.accept[x] != d.accept[y] {
					return false
				}
				x, y = d.next[x][0], d.next[y][0]
			}
			return true
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := equiv(a, b)
				got := p.Label(a) == p.Label(b)
				if want != got {
					t.Fatalf("trial %d: states %d,%d: refinement says %v, brute force %v\n%s",
						trial, a, b, got, want, p)
				}
			}
		}
	}
}

func TestRefinesAndSameRelation(t *testing.T) {
	d := modDFA(3, 2)
	coarse, err := FixpointNaive(d)
	if err != nil {
		t.Fatal(err)
	}
	// A fully-discrete partition refines everything.
	discrete := &Partition{label: make([]int, d.Len())}
	for i := range discrete.label {
		discrete.label[i] = i
		discrete.members = append(discrete.members, []int{i})
	}
	if !Refines(discrete, coarse) {
		t.Error("discrete partition should refine the fixpoint")
	}
	if Refines(coarse, discrete) {
		t.Error("fixpoint should not refine the discrete partition")
	}
	if !Refines(coarse, coarse) || !SameRelation(coarse, coarse) {
		t.Error("partition should refine and equal itself")
	}
	// Mismatched sizes.
	small := &Partition{label: []int{0}}
	if Refines(small, coarse) || SameRelation(small, coarse) {
		t.Error("size-mismatched comparisons should be false")
	}
}

func TestCanonicalStableUnderIdShuffle(t *testing.T) {
	p := &Partition{
		label:   []int{5, 5, 2, 2, 9},
		members: [][]int{},
	}
	q := &Partition{
		label: []int{0, 0, 1, 1, 2},
	}
	cp, cq := p.Canonical(), q.Canonical()
	for i := range cp {
		if cp[i] != cq[i] {
			t.Fatalf("canonical mismatch at %d: %v vs %v", i, cp, cq)
		}
	}
}

func TestSingletonClasses(t *testing.T) {
	d := modDFA(5, 1) // 2 is invertible mod 5, so the DFA is minimal
	p, err := FixpointNaive(d)
	if err != nil {
		t.Fatal(err)
	}
	singles := p.SingletonClasses()
	if len(singles) != 5 {
		t.Errorf("singletons = %v, want all 5 states", singles)
	}
	sizes := p.ClassSizes()
	for c, sz := range sizes {
		if sz != len(p.Members(c)) {
			t.Errorf("class %d size mismatch", c)
		}
	}
}

func TestMembersReturnsCopy(t *testing.T) {
	d := modDFA(2, 2)
	p, err := FixpointNaive(d)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Members(0)
	if len(m) == 0 {
		t.Fatal("class 0 empty")
	}
	m[0] = 999
	if p.Members(0)[0] == 999 {
		t.Error("Members leaked internal slice")
	}
	l := p.Labels()
	l[0] = 999
	if p.Label(0) == 999 {
		t.Error("Labels leaked internal slice")
	}
}

// chainStructure is adversarial for naive refinement: a long chain where
// distinctions propagate one hop per round. Node i reads node i+1 through
// one edge tagged 0.
type chainStructure struct {
	n    int
	next []int // next[i] = i+1
	tags []int // {0}
}

func newChain(n int) chainStructure {
	c := chainStructure{n: n, next: make([]int, n), tags: []int{0}}
	for i := range c.next {
		c.next[i] = i + 1
	}
	return c
}

func (c chainStructure) Len() int { return c.n }
func (c chainStructure) InitKey(i int) string {
	if i == c.n-1 {
		return "end"
	}
	return "mid"
}
func (c chainStructure) Signature(i int, label func(int) int) string {
	if i == c.n-1 {
		return "end"
	}
	return fmt.Sprintf("%d", label(i+1))
}
func (c chainStructure) OutEdges(i int) (to, tags []int) {
	if i == c.n-1 {
		return nil, nil
	}
	return c.next[i : i+1], c.tags
}
func (c chainStructure) Counting() bool { return true }
func (c chainStructure) Dependents(i int) []int {
	if i == 0 {
		return nil
	}
	return []int{i - 1}
}

// chainDrivers runs the naive oracle and the worklist driver on a chain.
var chainDrivers = []struct {
	name string
	run  func(chainStructure) (*Partition, error)
}{
	{"naive", func(c chainStructure) (*Partition, error) { return FixpointNaive(c) }},
	{"worklist", func(c chainStructure) (*Partition, error) { return FixpointWorklist(c, nil) }},
}

func TestChainFullySeparates(t *testing.T) {
	for _, driver := range chainDrivers {
		t.Run(driver.name, func(t *testing.T) {
			p, err := driver.run(newChain(64))
			if err != nil {
				t.Fatal(err)
			}
			if p.NumClasses() != 64 {
				t.Errorf("chain classes = %d, want 64", p.NumClasses())
			}
		})
	}
}

func BenchmarkNaiveChain(b *testing.B) {
	benchDriver(b, chainDrivers[0].run)
}

func BenchmarkWorklistChain(b *testing.B) {
	benchDriver(b, chainDrivers[1].run)
}

func benchDriver(b *testing.B, run func(chainStructure) (*Partition, error)) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := newChain(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestClassesAndString(t *testing.T) {
	d := modDFA(3, 2)
	p, err := FixpointNaive(d)
	if err != nil {
		t.Fatal(err)
	}
	classes := p.Classes()
	if len(classes) != p.NumClasses() {
		t.Errorf("Classes len = %d, want %d", len(classes), p.NumClasses())
	}
	total := 0
	for _, c := range classes {
		total += len(c)
	}
	if total != d.Len() {
		t.Errorf("classes cover %d nodes, want %d", total, d.Len())
	}
	if p.String() == "" {
		t.Error("String should render")
	}
}

// TestPartitionAccessorsCopy pins the sharing contract of the static
// Partition's slice-returning accessors: everything handed out is a
// copy, never a view of internal storage. Before the dynamic engine
// this was a style point; under churn a borrowed class slice would be
// scrambled by the next event's swap-removals, so the contract is now
// load-bearing (see also TestDynClassMembersCopied).
func TestPartitionAccessorsCopy(t *testing.T) {
	d := modDFA(6, 2)
	p, err := FixpointWorklist(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	labels := p.Labels()
	members := p.Members(p.Label(0))
	classes := p.Classes()
	canon := p.Canonical()

	for i := range labels {
		labels[i] = -7
	}
	for i := range members {
		members[i] = -7
	}
	for _, c := range classes {
		for i := range c {
			c[i] = -7
		}
	}
	for i := range canon {
		canon[i] = -7
	}

	if p.Label(0) == -7 {
		t.Fatal("Labels() shares internal storage")
	}
	for _, m := range p.Members(p.Label(0)) {
		if m == -7 {
			t.Fatal("Members() shares internal storage")
		}
	}
	for _, c := range p.Classes() {
		for _, m := range c {
			if m == -7 {
				t.Fatal("Classes() shares internal storage")
			}
		}
	}
	for _, l := range p.Canonical() {
		if l == -7 {
			t.Fatal("Canonical() shares internal storage")
		}
	}
}

// Refines reports whether p refines q: every class of p is contained in a
// class of q (p is "finer"). The paper's subsimilarity labelings are
// exactly the labelings refined by the similarity labeling, and
// supersimilarity labelings are exactly those that refine it.
func Refines(p, q *Partition) bool {
	if len(p.label) != len(q.label) {
		return false
	}
	// p refines q iff p-label determines q-label.
	image := make(map[int]int)
	for i := range p.label {
		if img, ok := image[p.label[i]]; ok {
			if img != q.label[i] {
				return false
			}
		} else {
			image[p.label[i]] = q.label[i]
		}
	}
	return true
}

// SingletonClasses returns the nodes that are alone in their class, in
// ascending order. For similarity labelings these are the uniquely-labeled
// nodes — the candidates the paper's SELECT can elect.
func (p *Partition) SingletonClasses() []int {
	var out []int
	for _, m := range p.members {
		if len(m) == 1 {
			out = append(out, m[0])
		}
	}
	sort.Ints(out)
	return out
}

// ClassSizes returns the size of each class.
func (p *Partition) ClassSizes() []int {
	out := make([]int, len(p.members))
	for c, m := range p.members {
		out[c] = len(m)
	}
	return out
}
