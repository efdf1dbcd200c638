package mc

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"simsym/internal/obs"
	"simsym/internal/system"
)

var updateGolden = flag.Bool("update", false, "rewrite golden event-stream files")

// TestObsEventCountsMatchStats cross-checks the event stream against the
// Stats the checker reports through Result: one mc.check phase, one
// StateExpansion event per BFS level, and a final expansion event whose
// payload equals the closing counters. This is the contract that lets a
// trace consumer reconstruct Stats without the Go API.
func TestObsEventCountsMatchStats(t *testing.T) {
	ring := obs.NewRing(0)
	rec := obs.New(ring)
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrL, lockClaim), Options{
		StatePreds: []StatePredicate{UniquenessPred},
		Obs:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Violation != nil {
		t.Fatalf("expected a clean complete run, got %+v", res)
	}

	byKind := ring.CountByKind()
	if byKind[obs.KindPhaseStart] != 1 || byKind[obs.KindPhaseEnd] != 1 {
		t.Fatalf("want exactly one mc.check phase, got %d starts / %d ends",
			byKind[obs.KindPhaseStart], byKind[obs.KindPhaseEnd])
	}
	if got := byKind[obs.KindStateExpansion]; got != res.Stats.Depth {
		t.Errorf("StateExpansion events = %d, want one per BFS level (Depth=%d)", got, res.Stats.Depth)
	}
	if byKind[obs.KindVerdict] != 1 {
		t.Fatalf("want exactly one verdict, got %d", byKind[obs.KindVerdict])
	}

	var lastExp, verdict, phaseEnd obs.Event
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KindStateExpansion:
			lastExp = e
		case obs.KindVerdict:
			verdict = e
		case obs.KindPhaseEnd:
			phaseEnd = e
		}
	}
	if lastExp.Kind != obs.KindStateExpansion {
		t.Fatal("no StateExpansion events")
	}
	if lastExp.A != int64(res.StatesExplored) || lastExp.B != int64(res.Stats.Depth) || lastExp.C != res.Stats.Transitions {
		t.Errorf("final StateExpansion (%d, %d, %d) should mirror Stats (%d, %d, %d)",
			lastExp.A, lastExp.B, lastExp.C, res.StatesExplored, res.Stats.Depth, res.Stats.Transitions)
	}
	if verdict.Name != "mc.check" || verdict.A != 1 {
		t.Errorf("verdict should report mc.check ok, got %+v", verdict)
	}
	if phaseEnd.A != int64(res.StatesExplored) {
		t.Errorf("phase end should carry the state count, got %+v", phaseEnd)
	}

	// Counters mirror Stats exactly.
	reg := rec.Metrics()
	for name, want := range map[string]int64{
		"mc.checks":            1,
		"mc.states":            int64(res.StatesExplored),
		"mc.transitions":       res.Stats.Transitions,
		"mc.dedup_hits":        res.Stats.DedupHits,
		"mc.self_loops":        res.Stats.SelfLoops,
		"mc.memo_entries":      res.Stats.MemoEntries,
		"mc.memo_misses":       res.Stats.MemoMisses,
		"mc.stored_key_bytes":  res.Stats.StoredKeyBytes,
		"mc.logical_key_bytes": res.Stats.LogicalKeyBytes,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if reg.Histogram("mc.check").Count() != 1 {
		t.Error("mc.check latency histogram should hold exactly one sample")
	}
}

// TestObsGoldenEventStream pins the full JSONL event stream of a fixed
// deterministic check against a checked-in golden file. Events carry no
// wall-clock payloads, so the stream is byte-identical across runs and
// machines; regenerate with `go test ./internal/mc -run Golden -update`.
func TestObsGoldenEventStream(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrL, lockClaim), Options{
		StatePreds: []StatePredicate{UniquenessPred},
		TransPreds: []TransitionPredicate{StabilityPred},
		Obs:        obs.New(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("run should close the state space: %+v", res)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "check_events.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("event stream diverged from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestContextCancellation: a canceled context is a spent budget like
// any other.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, spinForever), Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != "canceled" || res.Complete {
		t.Errorf("result = %+v, want canceled exhaustion", res)
	}
}
