package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundRobin(t *testing.T) {
	s, err := RoundRobin(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	if len(s) != len(want) {
		t.Fatalf("len = %d, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("schedule %v, want %v", s, want)
		}
	}
	if !IsKBounded(s, 3, 3) {
		t.Error("round-robin should be n-bounded")
	}
	if _, err := RoundRobin(0, 1); err == nil {
		t.Error("RoundRobin(0,...) should fail")
	}
}

func TestShuffledRoundsIsBoundedFair(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		s, err := ShuffledRounds(rng, n, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !IsKBounded(s, n, 2*n-1) {
			t.Errorf("shuffled rounds not (2n-1)-bounded for n=%d: %v", n, s)
		}
		occ := Occurrences(s, n)
		for p, c := range occ {
			if c != 10 {
				t.Errorf("processor %d appears %d times, want 10", p, c)
			}
		}
	}
}

func TestUniformRandomCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := UniformRandom(rng, 4, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !CoversAll(s, 4) {
		t.Error("400 uniform steps over 4 processors should cover all (w.h.p.)")
	}
}

func TestStarve(t *testing.T) {
	s, err := Starve([]int{0, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if CoversAll(s, 3) {
		t.Error("starve schedule must not cover the starved processor")
	}
	occ := Occurrences(s, 3)
	if occ[1] != 0 || occ[0] != 3 || occ[2] != 3 {
		t.Errorf("occurrences = %v", occ)
	}
	if _, err := Starve(nil, 3); err == nil {
		t.Error("empty active set should fail")
	}
}

func TestConcat(t *testing.T) {
	out := Concat([]int{1}, nil, []int{2, 3})
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Errorf("Concat = %v", out)
	}
}

func TestIsKBounded(t *testing.T) {
	tests := []struct {
		name  string
		sched []int
		n, k  int
		want  bool
	}{
		{"rr is n-bounded", []int{0, 1, 0, 1, 0, 1}, 2, 2, true},
		{"k below n impossible", []int{0, 1}, 2, 1, false},
		{"gap breaks bound", []int{0, 1, 0, 0, 0, 1}, 2, 3, false},
		{"wide window ok", []int{0, 1, 0, 0, 1, 0}, 2, 4, true},
		{"short schedule vacuous", []int{0}, 2, 5, true},
		{"empty schedule vacuous", nil, 2, 2, true},
		// Vacuous truth must survive k < n: with no full window there is
		// nothing to violate (the old implementation returned false here,
		// contradicting its own off-the-end rule).
		{"empty schedule vacuous even when k < n", nil, 3, 2, true},
		{"empty schedule with k = n", nil, 3, 3, true},
		{"short schedule vacuous even when k < n", []int{0}, 3, 2, true},
		{"full window with k < n still impossible", []int{0, 1}, 3, 2, false},
		{"zero k with a full empty window", nil, 2, 0, false},
		{"negative index is not a processor", []int{0, -1, 1, 0, -1, 1}, 2, 3, true},
		{"negative index cannot stand in for coverage", []int{0, -1, 0}, 2, 3, false},
		{"index past n-1 is not a processor", []int{0, 5, 0}, 2, 3, false},
		{"out-of-range mixed with full coverage", []int{0, 7, 1}, 2, 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsKBounded(tt.sched, tt.n, tt.k); got != tt.want {
				t.Errorf("IsKBounded(%v,%d,%d) = %v, want %v", tt.sched, tt.n, tt.k, got, tt.want)
			}
		})
	}
}

// TestShuffledRoundsKBoundedProperty: a schedule of per-round random
// permutations is (2n-1)-bounded fair for every n, rounds, and seed — a
// processor placed last in one round and first in the next is 2n-1 steps
// from its previous occurrence, never more.
func TestShuffledRoundsKBoundedProperty(t *testing.T) {
	f := func(nRaw, roundsRaw uint8, seed int64) bool {
		n := int(nRaw%8) + 1
		rounds := int(roundsRaw % 12)
		s, err := ShuffledRounds(rand.New(rand.NewSource(seed)), n, rounds)
		if err != nil {
			return false
		}
		if len(s) != n*rounds {
			return false
		}
		return IsKBounded(s, n, 2*n-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffledRoundsRejectsBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := ShuffledRounds(rng, 0, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := ShuffledRounds(rng, 3, -1); err == nil {
		t.Error("rounds=-1 should fail")
	}
}

func TestRoundRobinAlwaysKBoundedProperty(t *testing.T) {
	f := func(nRaw, roundsRaw uint8) bool {
		n := int(nRaw%8) + 1
		rounds := int(roundsRaw % 10)
		s, err := RoundRobin(n, rounds)
		if err != nil {
			return false
		}
		return IsKBounded(s, n, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// isKBoundedOracle is the original O(len·k) implementation: a fresh seen
// set and full rescan per window start. Kept as the oracle the sliding
// window implementation must agree with. The window scan alone defines
// the semantics — there is deliberately no k < n shortcut, because a
// schedule with no full window is vacuously bounded for every k.
func isKBoundedOracle(schedule []int, n, k int) bool {
	for start := 0; start+k <= len(schedule); start++ {
		seen := make([]bool, n)
		count := 0
		for i := start; i < start+k; i++ {
			p := schedule[i]
			if p >= 0 && p < n && !seen[p] {
				seen[p] = true
				count++
			}
		}
		if count != n {
			return false
		}
	}
	return true
}

func TestIsKBoundedAgreesWithOracle(t *testing.T) {
	// Directed cases around the boundaries, then a quick.Check sweep.
	cases := []struct {
		schedule []int
		n, k     int
	}{
		{nil, 1, 1},
		{nil, 3, 2},
		{nil, 2, 0},
		{[]int{0}, 2, 5},
		{[]int{0}, 3, 2},
		{[]int{0, 1}, 3, 2},
		{[]int{0, 1, 0, 1}, 2, 2},
		{[]int{0, 1, 1, 0}, 2, 2},
		{[]int{0, 7, 1}, 2, 3},
		{[]int{0, -3, 1, 0, 1}, 2, 3},
	}
	for _, c := range cases {
		if got, want := IsKBounded(c.schedule, c.n, c.k), isKBoundedOracle(c.schedule, c.n, c.k); got != want {
			t.Errorf("IsKBounded(%v, %d, %d) = %v, oracle %v", c.schedule, c.n, c.k, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	f := func(raw []byte, n8, k8 uint8) bool {
		n := 1 + int(n8)%5
		k := int(k8) % 12
		schedule := make([]int, len(raw))
		for i, b := range raw {
			// Mostly in range, occasionally junk (negative or >= n).
			schedule[i] = int(b)%(n+2) - 1
		}
		return IsKBounded(schedule, n, k) == isKBoundedOracle(schedule, n, k)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// benchKBoundedInput is an E-series-sized schedule: shuffled rounds over
// a 6-processor table, which is what the experiment sweeps classify.
func benchKBoundedInput() ([]int, int, int) {
	rng := rand.New(rand.NewSource(1))
	s, err := ShuffledRounds(rng, 6, 2000)
	if err != nil {
		panic(err)
	}
	return s, 6, 11
}

func BenchmarkIsKBoundedSliding(b *testing.B) {
	s, n, k := benchKBoundedInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !IsKBounded(s, n, k) {
			b.Fatal("schedule should be (2n-1)-bounded")
		}
	}
}

func BenchmarkIsKBoundedOracle(b *testing.B) {
	s, n, k := benchKBoundedInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !isKBoundedOracle(s, n, k) {
			b.Fatal("schedule should be (2n-1)-bounded")
		}
	}
}

// Occurrences counts how many times each processor 0..n-1 appears.
func Occurrences(schedule []int, n int) []int {
	out := make([]int, n)
	for _, p := range schedule {
		if p >= 0 && p < n {
			out[p]++
		}
	}
	return out
}

// CoversAll reports whether every processor 0..n-1 appears at least once.
func CoversAll(schedule []int, n int) bool {
	for _, c := range Occurrences(schedule, n) {
		if c == 0 {
			return false
		}
	}
	return true
}
