package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// dfa implements CountStructure as well: transitions become tagged edges.
func (d *dfa) AppendOutEdges(buf []TaggedEdge, i int) []TaggedEdge {
	for sym, t := range d.next[i] {
		buf = append(buf, TaggedEdge{To: t, Tag: sym})
	}
	return buf
}

func TestHopcroftMinimizesDFA(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{3, 1}, {3, 4}, {5, 3}, {7, 2}, {1, 5}} {
		t.Run(fmt.Sprintf("mod%dx%d", tc.n, tc.k), func(t *testing.T) {
			d := modDFA(tc.n, tc.k)
			p, err := FixpointHopcroft(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.NumClasses() != tc.n {
				t.Errorf("NumClasses = %d, want %d\n%s", p.NumClasses(), tc.n, p)
			}
		})
	}
}

func TestHopcroftMatchesNaiveOnRandomDFAs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(50)
		symbols := 1 + rng.Intn(3)
		accept := make([]bool, n)
		next := make([][]int, n)
		for s := 0; s < n; s++ {
			accept[s] = rng.Intn(2) == 0
			next[s] = make([]int, symbols)
			for j := range next[s] {
				next[s][j] = rng.Intn(n)
			}
		}
		d := newDFA(accept, next)
		a, err := FixpointNaive(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FixpointHopcroft(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !SameRelation(a, b) {
			t.Fatalf("trial %d (n=%d): naive %v != hopcroft %v", trial, n, a, b)
		}
	}
}

func TestHopcroftEmptyAndErrors(t *testing.T) {
	if _, err := FixpointHopcroft(newDFA(nil, nil), nil); !errors.Is(err, ErrEmptyStructure) {
		t.Errorf("empty = %v", err)
	}
	if _, err := FixpointHopcroft(badEdgeStructure{}, nil); err == nil {
		t.Error("out-of-range edge should fail")
	}
}

func TestHopcroftChainIsFast(t *testing.T) {
	// The adversarial chain that makes naive refinement quadratic: the
	// smaller-half driver must separate a 4096-node chain quickly.
	d := chainDFA(4096)
	start := time.Now()
	p, err := FixpointHopcroft(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if p.NumClasses() != 4096 {
		t.Fatalf("classes = %d, want 4096", p.NumClasses())
	}
	if elapsed > 2*time.Second {
		t.Errorf("hopcroft took %v on a 4096 chain; smaller-half should be near-linear", elapsed)
	}
}

// chainDFA is a unary chain: state i moves to i+1, the last state loops.
// Only the last state accepts, so minimization must fully separate.
func chainDFA(n int) *dfa {
	accept := make([]bool, n)
	next := make([][]int, n)
	for i := 0; i < n; i++ {
		t := i + 1
		if t == n {
			t = n - 1
		}
		next[i] = []int{t}
	}
	accept[n-1] = true
	return newDFA(accept, next)
}

func BenchmarkHopcroftChain(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := chainDFA(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FixpointHopcroft(d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// randomDFA draws an n-state DFA over the given number of symbols.
func randomDFA(rng *rand.Rand, n, symbols int) *dfa {
	accept := make([]bool, n)
	next := make([][]int, n)
	for s := range next {
		accept[s] = rng.Intn(2) == 0
		next[s] = make([]int, symbols)
		for j := range next[s] {
			next[s][j] = rng.Intn(n)
		}
	}
	return newDFA(accept, next)
}

// badTail is a DFA whose last state also has an edge past the node
// range, so a run reads every edge before it fails.
type badTail struct{ *dfa }

func (b badTail) AppendOutEdges(buf []TaggedEdge, i int) []TaggedEdge {
	buf = b.dfa.AppendOutEdges(buf, i)
	if i == b.Len()-1 {
		buf = append(buf, TaggedEdge{To: b.Len(), Tag: 1})
	}
	return buf
}

// hopcroftRun is one refinement's observable output: its labels, its
// RoundHook stream and whether it failed.
type hopcroftRun struct {
	labels []int
	hooks  [][3]int
	failed bool
}

func runHopcroft(run func(CountStructure, RoundHook) (*Partition, error), cs CountStructure) hopcroftRun {
	var out hopcroftRun
	p, err := run(cs, func(round, classes, splits int) {
		out.hooks = append(out.hooks, [3]int{round, classes, splits})
	})
	if out.failed = err != nil; !out.failed {
		out.labels = p.Labels()
	}
	return out
}

// TestRefinerReuseMatchesFresh runs one refiner big, failing, small and
// big again, the way Dyn's merge pass reuses it across quotients of
// changing size. Every run must equal a fresh FixpointHopcroft in class
// ids, RoundHook stream and failure: a flag, tag count or queue entry
// left over from an earlier run would show as a difference.
func TestRefinerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	runs := []CountStructure{
		randomDFA(rng, 400, 3),
		badTail{randomDFA(rng, 450, 2)},
		randomDFA(rng, 6, 2),
		chainDFA(300),
		randomDFA(rng, 3, 1),
		randomDFA(rng, 500, 2),
		modDFA(7, 3),
	}
	var r refiner
	for k, cs := range runs {
		want := runHopcroft(FixpointHopcroft, cs)
		got := runHopcroft(r.refine, cs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (n=%d): reused refiner gave %+v, fresh %+v", k, cs.Len(), got, want)
		}
		if k == 1 && !got.failed {
			t.Fatalf("run %d: out-of-range edge accepted", k)
		}
	}
}

// badEdgeStructure has an edge pointing outside the node range.
type badEdgeStructure struct{}

func (badEdgeStructure) Len() int           { return 1 }
func (badEdgeStructure) InitKey(int) string { return "x" }
func (badEdgeStructure) AppendOutEdges(buf []TaggedEdge, _ int) []TaggedEdge {
	return append(buf, TaggedEdge{To: 5, Tag: 0})
}

// AppendOutEdges makes the chain a CountStructure: node i reads node
// i+1.
func (c chainStructure) AppendOutEdges(buf []TaggedEdge, i int) []TaggedEdge {
	if i == c.n-1 {
		return buf
	}
	return append(buf, TaggedEdge{To: i + 1})
}

// TestRoundHookContract pins the RoundHook contract for both drivers on
// random DFAs and on the chain: rounds ascend from 1 (FixpointWorklist's
// settle rounds run 1..R without gaps; Hopcroft reports the splitter
// iterations that carved, so it may skip), the last call reports the
// final class count, and the splits sum to the final class count minus
// the initial one.
func TestRoundHookContract(t *testing.T) {
	type structure interface {
		CountStructure
		TokenStructure
	}
	structs := []structure{chainStructure{n: 64}, modDFA(7, 3)}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(40)
		accept := make([]bool, n)
		next := make([][]int, n)
		for s := 0; s < n; s++ {
			accept[s] = rng.Intn(2) == 0
			next[s] = []int{rng.Intn(n), rng.Intn(n)}
		}
		structs = append(structs, newDFA(accept, next))
	}
	drivers := []struct {
		name       string
		contiguous bool
		run        func(structure, RoundHook) (*Partition, error)
	}{
		{"hopcroft", false, func(s structure, h RoundHook) (*Partition, error) { return FixpointHopcroft(s, h) }},
		{"worklist", true, func(s structure, h RoundHook) (*Partition, error) { return FixpointWorklist(s, h) }},
	}
	for _, drv := range drivers {
		for k, s := range structs {
			keys := make(map[string]bool)
			for i := 0; i < s.Len(); i++ {
				keys[s.InitKey(i)] = true
			}
			var rounds []int
			last, splits := len(keys), 0
			p, err := drv.run(s, func(round, classes, split int) {
				rounds = append(rounds, round)
				last = classes
				splits += split
			})
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range rounds {
				if r < j+1 || drv.contiguous && r != j+1 || j > 0 && r <= rounds[j-1] {
					t.Fatalf("%s structure %d: rounds %v", drv.name, k, rounds)
				}
			}
			if drv.contiguous && len(rounds) == 0 {
				t.Fatalf("%s structure %d: no round reported", drv.name, k)
			}
			if last != p.NumClasses() {
				t.Fatalf("%s structure %d: last call reports %d classes, partition has %d", drv.name, k, last, p.NumClasses())
			}
			if splits != p.NumClasses()-len(keys) {
				t.Fatalf("%s structure %d: splits sum to %d, want %d", drv.name, k, splits, p.NumClasses()-len(keys))
			}
		}
	}
}
