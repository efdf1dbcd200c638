package mc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"simsym/internal/obs"
)

// syntheticTrial builds a deterministic TrialFunc that flags a trial
// whenever its seed's low bits fall below threshold/denom — a Bernoulli
// variable with a known rate, independent of any machine.
func syntheticTrial(threshold, denom uint64) TrialFunc {
	return func(seed int64, depth int, capture bool) (Trial, error) {
		u := uint64(seed)
		t := Trial{Steps: depth / 2, Slots: depth}
		if u%denom < threshold {
			t.Violated = true
			t.Reason = fmt.Sprintf("synthetic violation (seed %d)", seed)
		}
		if capture {
			t.Schedule = []int{int(u % 7), int(u % 5)}
		}
		return t, nil
	}
}

func TestOkamotoBound(t *testing.T) {
	// ceil(ln(2/δ) / (2ε²)) at the headline settings.
	if got := OkamotoBound(0.01, 0.05); got != 18445 {
		t.Errorf("OkamotoBound(0.01, 0.05) = %d, want 18445", got)
	}
	if got := OkamotoBound(0.05, 0.05); got != 738 {
		t.Errorf("OkamotoBound(0.05, 0.05) = %d, want 738", got)
	}
	// Tightening either parameter can only demand more samples.
	if OkamotoBound(0.01, 0.01) <= OkamotoBound(0.01, 0.05) {
		t.Error("smaller delta must need more samples")
	}
	if OkamotoBound(0.005, 0.05) <= OkamotoBound(0.01, 0.05) {
		t.Error("smaller epsilon must need more samples")
	}
}

func TestHoeffdingHalfWidth(t *testing.T) {
	if got := HoeffdingHalfWidth(0.05, 0); got != 1 {
		t.Errorf("empty sample half-width = %v, want 1", got)
	}
	if got := HoeffdingHalfWidth(0.05, 1); got != 1 {
		t.Errorf("one sample bounds nothing: half-width = %v, want clamp to 1", got)
	}
	// At exactly the Okamoto bound the half-width meets the target.
	n := OkamotoBound(0.05, 0.05)
	if hw := HoeffdingHalfWidth(0.05, n); hw > 0.05 {
		t.Errorf("half-width at the bound = %v, want <= 0.05", hw)
	}
	if hw := HoeffdingHalfWidth(0.05, n-100); hw <= 0.05 {
		t.Errorf("half-width below the bound = %v, want > 0.05", hw)
	}
}

func TestSampleSeedStreamsAreDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for _, base := range []int64{0, 1, 42, -7} {
		for i := 0; i < 10_000; i++ {
			s := SampleSeed(base, i)
			if seen[s] {
				t.Fatalf("seed collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
}

func TestSampleEstimateWithinInterval(t *testing.T) {
	// True violation rate 1/4; ε=0.05 δ=0.05 needs 738 samples and the
	// estimate is then within 0.05 of 1/4 with confidence 95% — use 3ε
	// slack so the test is not itself flaky.
	res, err := Sample(syntheticTrial(1, 4), SampleOptions{Epsilon: 0.05, Delta: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Exhausted != "" {
		t.Fatalf("run should complete: %+v", res)
	}
	if res.Samples != 738 || res.Target != 738 {
		t.Errorf("samples = %d target = %d, want 738", res.Samples, res.Target)
	}
	if res.HalfWidth > 0.05 {
		t.Errorf("half-width = %v, want <= epsilon", res.HalfWidth)
	}
	if res.Estimate < 0.25-0.15 || res.Estimate > 0.25+0.15 {
		t.Errorf("estimate = %v, want near 0.25", res.Estimate)
	}
	if res.FirstViolation == nil {
		t.Fatal("a quarter of trials violate; first violation missing")
	}
	if res.FirstViolation.Schedule == nil {
		t.Error("first violation should carry a captured schedule")
	}
	if res.FirstViolation.Seed != SampleSeed(11, res.FirstViolation.Sample) {
		t.Error("violation seed does not match its sample index")
	}
}

func TestSampleDeterministicAcrossWorkers(t *testing.T) {
	trial := syntheticTrial(1, 8)
	var results []*SampleResult
	for _, workers := range []int{1, 3, 8} {
		res, err := Sample(trial, SampleOptions{
			Epsilon: 0.05, Delta: 0.05, Seed: 99, Workers: workers, ProgressEvery: 100,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("worker counts disagree:\n  w=1: %+v\n  other: %+v", results[0], results[i])
		}
	}
}

func TestSampleFirstViolationIsIndexLeast(t *testing.T) {
	// Violating trials are identified by their derived seeds; the
	// reported one must be the lowest sample index, not the first found
	// by any worker.
	const base int64 = 5
	violating := map[int64]bool{
		SampleSeed(base, 123): true,
		SampleSeed(base, 77):  true,
		SampleSeed(base, 500): true,
	}
	trial := func(seed int64, depth int, capture bool) (Trial, error) {
		t := Trial{Steps: 1, Slots: 1}
		if violating[seed] {
			t.Violated = true
			t.Reason = "marked"
			if capture {
				t.Schedule = []int{0}
			}
		}
		return t, nil
	}
	for _, workers := range []int{1, 4} {
		res, err := Sample(trial, SampleOptions{
			Epsilon: 0.05, Delta: 0.05, Seed: base, Workers: workers, ProgressEvery: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violations != 3 {
			t.Fatalf("workers=%d: violations = %d, want 3", workers, res.Violations)
		}
		if res.FirstViolation == nil || res.FirstViolation.Sample != 77 {
			t.Fatalf("workers=%d: first violation = %+v, want sample 77", workers, res.FirstViolation)
		}
	}
}

func TestSampleMaxSamplesBudget(t *testing.T) {
	res, err := Sample(syntheticTrial(0, 2), SampleOptions{Epsilon: 0.05, Delta: 0.05, MaxSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.Exhausted != "samples" {
		t.Errorf("partial run: complete=%v exhausted=%q", res.Complete, res.Exhausted)
	}
	if res.Samples != 100 {
		t.Errorf("samples = %d, want 100", res.Samples)
	}
	if res.HalfWidth <= 0.05 {
		t.Errorf("under-sampled half-width = %v, should exceed epsilon", res.HalfWidth)
	}
}

func TestSampleCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Sample(syntheticTrial(0, 2), SampleOptions{
		Epsilon: 0.05, Delta: 0.05, ProgressEvery: 10, Ctx: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != "canceled" || res.Complete {
		t.Errorf("canceled run: %+v", res)
	}
	if res.Samples != 10 {
		t.Errorf("cancellation polls at round boundaries: samples = %d, want one round of 10", res.Samples)
	}
}

func TestSampleTrialErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	bad := SampleSeed(3, 42)
	trial := func(seed int64, depth int, capture bool) (Trial, error) {
		if seed == bad {
			return Trial{}, boom
		}
		return Trial{Steps: 1, Slots: 1}, nil
	}
	_, err := Sample(trial, SampleOptions{Epsilon: 0.05, Delta: 0.05, Seed: 3})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestSampleRejectsBadOptions(t *testing.T) {
	trial := syntheticTrial(0, 2)
	if _, err := Sample(nil, SampleOptions{}); err == nil {
		t.Error("nil trial should fail")
	}
	for _, opts := range []SampleOptions{
		{Epsilon: 1.5},
		{Epsilon: -0.1},
		{Delta: 1},
		{Depth: -4},
		{MaxSamples: -1},
	} {
		if _, err := Sample(trial, opts); err == nil {
			t.Errorf("options %+v should fail", opts)
		}
	}
}

func TestSampleObsStream(t *testing.T) {
	ring := obs.NewRing(64)
	rec := obs.New(ring)
	res, err := Sample(syntheticTrial(1, 4), SampleOptions{
		Epsilon: 0.05, Delta: 0.05, MaxSamples: 30, ProgressEvery: 10, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	var kinds []obs.Kind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	want := []obs.Kind{
		obs.KindPhaseStart,
		obs.KindSample, obs.KindSample, obs.KindSample,
		obs.KindStat, obs.KindVerdict, obs.KindPhaseEnd,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	first := evs[1] // first sample round
	if first.A != 10 || first.C != int64(res.Target) {
		t.Errorf("first round event = %+v, want 10 merged toward target %d", first, res.Target)
	}
	if got := rec.Metrics().Counter("mc.samples").Value(); got != int64(res.Samples) {
		t.Errorf("mc.samples counter = %d, want %d", got, res.Samples)
	}
	if rec.Metrics().Histogram("mc.sample").Count() != 1 {
		t.Error("mc.sample histogram should hold one observation")
	}
}

func TestSampleTimeBudget(t *testing.T) {
	slow := func(seed int64, depth int, capture bool) (Trial, error) {
		time.Sleep(2 * time.Millisecond)
		return Trial{Steps: 1, Slots: 1}, nil
	}
	res, err := Sample(slow, SampleOptions{
		Epsilon: 0.05, Delta: 0.05, ProgressEvery: 5,
		MaxDuration: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.Exhausted != "time" {
		t.Errorf("slow run should hit the time budget: %+v", res)
	}
}
