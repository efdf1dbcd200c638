package adversary

import (
	"math/rand"
	"testing"

	"simsym/internal/system"
)

// BenchmarkSelectSession times one SELECT session on Fig2 under Q, the
// unit of perfbench daemon-mix's select sessions: build the harness
// (similarity, the SELECT decision and program synthesis), run it to
// convergence under a seeded uniform scheduler with Uniqueness and
// Stability checked after every step, and Finalize, whose state key
// holds every processor's posts.
func BenchmarkSelectSession(b *testing.B) {
	sys := system.Fig2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := NewSelectHarness(sys, system.InstrQ, system.SchedFair, Uniform(rand.New(rand.NewSource(1)), sys.NumProcs()))
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Done || res.Violation != nil {
			b.Fatalf("the session did not converge cleanly: done=%v violation=%v", res.Done, res.Violation)
		}
	}
}
