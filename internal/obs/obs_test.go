package obs

import (
	"strings"
	"testing"
	"time"
)

// Quantile returns an upper-bound estimate of the q-quantile (0..1)
// from the bucket boundaries, or 0 with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum > rank {
			return time.Duration(int64(1) << uint(i))
		}
	}
	return time.Duration(int64(1) << (histBuckets - 1))
}

// TestNilRecorderSafe exercises every Recorder method on a nil receiver:
// the whole instrumentation contract is that unobserved hot paths cost a
// nil check and nothing else.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Metrics() != nil {
		t.Fatal("nil recorder has a registry")
	}
	r.Emit(Event{Kind: KindStat})
	r.PhaseStart("x")
	r.PhaseEnd("x", 1)
	r.RefineRound("worklist", 1, 2, 3)
	r.StateExpansion("mc", 10, 2, 40)
	r.SchedStep(0, 1, true)
	r.Fault("crash", 3, 1)
	r.Verdict("check", true, "")
	r.Stat("n", 42)
	r.Count("c", 1)
	r.Observe("h", time.Millisecond)
	r.Relabel("dyn", 4, 1, 1, "join")

	// The churn hot path calls Relabel per event; nil recorders must
	// stay allocation-free, not merely panic-free.
	if allocs := testing.AllocsPerRun(100, func() {
		r.Relabel("dyn", 4, 1, 1, "join")
		r.Count("dyn.splits", 1)
	}); allocs != 0 {
		t.Fatalf("nil recorder allocates: %v allocs/op", allocs)
	}
}

// TestRecorderSequencing checks that Emit assigns strictly increasing
// sequence numbers starting at 1 and that helpers populate the payload
// fields their Kind documents.
func TestRecorderSequencing(t *testing.T) {
	ring := NewRing(16)
	r := New(ring)
	r.PhaseStart("phase")
	r.RefineRound("hopcroft", 3, 7, 2)
	r.SchedStep(5, 2, false)
	r.Verdict("safety", false, "uniqueness violated")
	r.PhaseEnd("phase", 9)

	evs := ring.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if e := evs[1]; e.Kind != KindRefineRound || e.Name != "hopcroft" || e.A != 3 || e.B != 7 || e.C != 2 {
		t.Errorf("refine round event malformed: %+v", e)
	}
	if e := evs[2]; e.Kind != KindSchedStep || e.A != 5 || e.B != 2 || e.C != 0 {
		t.Errorf("sched step event malformed: %+v", e)
	}
	if e := evs[3]; e.Kind != KindVerdict || e.A != 0 || e.Detail != "uniqueness violated" {
		t.Errorf("verdict event malformed: %+v", e)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindPhaseStart; k <= KindRelabel; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("kind %d: round-trip via %q failed (got %d, ok=%v)", k, k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("nonsense"); ok {
		t.Error("unknown kind name resolved")
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Error("unknown kind String not tagged")
	}
}

func TestCounterAndHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mc.states")
	c.Add(5)
	c.Inc()
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	if reg.Counter("mc.states") != c {
		t.Fatal("counter lookup is not interned")
	}

	h := reg.Histogram("mc.level")
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("histogram count = %d, want 3", h.Count())
	}
	if want := 100*time.Nanosecond + 3*time.Microsecond + 2*time.Millisecond; h.Sum() != want {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
	// The median sample (3µs) rounds up to its power-of-two bucket edge.
	if q := h.Quantile(0.5); q < 3*time.Microsecond || q > 8*time.Microsecond {
		t.Fatalf("median estimate %v out of bucket range", q)
	}
	if (&Histogram{}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := New(nil)
	r.Count("mc.states", 120)
	r.Count("core.rounds", 4)
	r.Observe("mc.check", 5*time.Millisecond)
	var b strings.Builder
	if err := r.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE simsym_core_rounds_total counter",
		"simsym_core_rounds_total 4",
		"simsym_mc_states_total 120",
		"# TYPE simsym_mc_check_seconds histogram",
		`simsym_mc_check_seconds_bucket{le="+Inf"} 1`,
		"simsym_mc_check_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics text missing %q in:\n%s", want, out)
		}
	}
	// Deterministic ordering: counters sorted by name.
	if strings.Index(out, "core_rounds") > strings.Index(out, "mc_states") {
		t.Error("counters not sorted by name")
	}
	var nilReg *Registry
	if err := nilReg.WriteText(&b); err != nil {
		t.Fatal("nil registry WriteText should be a no-op, got", err)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"mc.states":    "mc_states",
		"a-b/c.d":      "a_b_c_d",
		"weird %$name": "weirdname",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
