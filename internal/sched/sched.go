// Package sched generates and classifies schedules: the sequences of
// processor names that drive a machine, per the paper's section 2.
//
// A general schedule is unrestricted; a fair schedule names every
// processor infinitely often; a k-bounded fair schedule names every
// processor at least once in every window of k consecutive steps. Finite
// prefixes of these are what the generators below produce.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
)

// Sentinel errors.
var (
	ErrBadArgs = errors.New("sched: invalid arguments")
)

// RoundRobin returns the schedule p0 p1 ... p(n-1) repeated for the given
// number of rounds. Round-robin is the paper's canonical similarity
// witness: it gives same-labeled nodes the same state after every round
// (Theorem 4's proof schedule).
func RoundRobin(n, rounds int) ([]int, error) {
	if n < 1 || rounds < 0 {
		return nil, fmt.Errorf("%w: n=%d rounds=%d", ErrBadArgs, n, rounds)
	}
	out := make([]int, 0, n*rounds)
	for r := 0; r < rounds; r++ {
		for p := 0; p < n; p++ {
			out = append(out, p)
		}
	}
	return out, nil
}

// ShuffledRounds returns rounds of random permutations of 0..n-1. The
// result is (2n-1)-bounded fair: every processor appears exactly once per
// round.
func ShuffledRounds(rng *rand.Rand, n, rounds int) ([]int, error) {
	if n < 1 || rounds < 0 {
		return nil, fmt.Errorf("%w: n=%d rounds=%d", ErrBadArgs, n, rounds)
	}
	out := make([]int, 0, n*rounds)
	for r := 0; r < rounds; r++ {
		out = append(out, rng.Perm(n)...)
	}
	return out, nil
}

// UniformRandom returns steps uniform random picks. The result is fair
// with high probability but NOT k-bounded for any k; it models a fair but
// unbounded adversary.
func UniformRandom(rng *rand.Rand, n, steps int) ([]int, error) {
	if n < 1 || steps < 0 {
		return nil, fmt.Errorf("%w: n=%d steps=%d", ErrBadArgs, n, steps)
	}
	out := make([]int, steps)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out, nil
}

// Starve returns a general schedule that runs only the given processors,
// round-robin, for the given number of rounds. It is the adversary used
// in Theorem 1's proof and the fair-S mimicry arguments: the remaining
// processors never take a step.
func Starve(active []int, rounds int) ([]int, error) {
	if len(active) == 0 || rounds < 0 {
		return nil, fmt.Errorf("%w: active=%v rounds=%d", ErrBadArgs, active, rounds)
	}
	out := make([]int, 0, len(active)*rounds)
	for r := 0; r < rounds; r++ {
		out = append(out, active...)
	}
	return out, nil
}

// Concat joins schedules.
func Concat(parts ...[]int) []int {
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// IsKBounded reports whether every window of k consecutive steps of the
// schedule names every processor in 0..n-1 at least once. Windows that
// run off the end of a finite schedule are not counted (a finite prefix
// can always be extended fairly). Out-of-range entries consume window
// slots but never count as coverage.
//
// A single sliding window of per-processor occurrence counts makes this
// O(len(schedule)): each step enters the window once and leaves it once,
// and a distinct-processor counter answers the coverage question per
// window in O(1). (The obvious per-start rescan is O(len·k) and is kept
// in the tests as the oracle.)
func IsKBounded(schedule []int, n, k int) bool {
	if len(schedule) < k {
		// No full window exists, so nothing can violate the bound: a
		// prefix shorter than one window can always be extended fairly.
		// This holds even for k < n — the order of this test and the
		// next matters (IsKBounded(nil, 3, 2) is true, vacuously).
		return true
	}
	if k < n {
		// At least one full window exists, and k slots can never name n
		// distinct processors.
		return false
	}
	count := make([]int, n)
	distinct := 0
	for i, p := range schedule {
		if p >= 0 && p < n {
			count[p]++
			if count[p] == 1 {
				distinct++
			}
		}
		if i >= k {
			if q := schedule[i-k]; q >= 0 && q < n {
				count[q]--
				if count[q] == 0 {
					distinct--
				}
			}
		}
		if i >= k-1 && distinct != n {
			return false
		}
	}
	return true
}
