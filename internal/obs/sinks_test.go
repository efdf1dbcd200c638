package obs

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Dropped returns how many events have been evicted by capacity.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - int64(len(r.buf))
}

// TestRingConcurrentEmitOrdering hammers one recorder + ring from many
// goroutines under -race and checks the sink's ordering contract: no
// event is lost or duplicated, and each goroutine's events appear in
// its own program order (B carries the per-goroutine emission index).
func TestRingConcurrentEmitOrdering(t *testing.T) {
	const goroutines = 8
	const perG = 500
	ring := NewRing(goroutines * perG)
	r := New(ring)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Emit(Event{Kind: KindSchedStep, A: int64(g), B: int64(i)})
			}
		}(g)
	}
	wg.Wait()

	evs := ring.Events()
	if len(evs) != goroutines*perG {
		t.Fatalf("retained %d events, want %d", len(evs), goroutines*perG)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("dropped %d events, want 0", ring.Dropped())
	}
	// Every sequence number 1..N appears exactly once.
	seqs := make([]int, 0, len(evs))
	perGoroutine := make(map[int64][]int64)
	for _, e := range evs {
		seqs = append(seqs, int(e.Seq))
		perGoroutine[e.A] = append(perGoroutine[e.A], e.B)
	}
	sort.Ints(seqs)
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("sequence numbers not a permutation of 1..N: position %d holds %d", i, s)
		}
	}
	// Arrival order preserves each goroutine's emission order.
	for g, idxs := range perGoroutine {
		if len(idxs) != perG {
			t.Fatalf("goroutine %d: %d events retained, want %d", g, len(idxs), perG)
		}
		for i, idx := range idxs {
			if idx != int64(i) {
				t.Fatalf("goroutine %d: event %d arrived out of program order (B=%d)", g, i, idx)
			}
		}
	}
}

// TestRingEviction checks capacity bounds: the ring keeps the newest
// events and accounts for evictions.
func TestRingEviction(t *testing.T) {
	ring := NewRing(4)
	r := New(ring)
	for i := 0; i < 10; i++ {
		r.Stat("i", int64(i))
	}
	if ring.Len() != 4 {
		t.Fatalf("ring length %d, want 4", ring.Len())
	}
	if ring.Total() != 10 || ring.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", ring.Total(), ring.Dropped())
	}
	evs := ring.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.A != want {
			t.Fatalf("retained event %d carries %d, want %d (newest-first eviction)", i, e.A, want)
		}
	}
	if n := ring.CountByKind()[KindStat]; n != 4 {
		t.Fatalf("CountByKind[stat] = %d, want 4", n)
	}
	if NewRing(0).cap != DefaultRingCapacity {
		t.Fatal("capacity default not applied")
	}
}

// TestJSONLRoundTrip encodes a representative event stream and decodes
// it back identically.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	r := New(sink)
	r.PhaseStart("mc.check")
	r.StateExpansion("mc", 120, 3, 456)
	r.Fault("lockdrop", 17, 2)
	r.Verdict("dining.exclusion", false, `adjacent philosophers 0 and 1 eating "together"`)
	r.PhaseEnd("mc.check", 120)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	want := []Event{
		{Seq: 1, Kind: KindPhaseStart, Name: "mc.check"},
		{Seq: 2, Kind: KindStateExpansion, Name: "mc", A: 120, B: 3, C: 456},
		{Seq: 3, Kind: KindFault, Name: "lockdrop", A: 17, B: 2},
		{Seq: 4, Kind: KindVerdict, Name: "dining.exclusion", A: 0, Detail: `adjacent philosophers 0 and 1 eating "together"`},
		{Seq: 5, Kind: KindPhaseEnd, Name: "mc.check", A: 120},
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// The wire format spells kinds as strings, so traces are greppable.
	if !strings.Contains(buf.String(), `"kind":"state_expansion"`) {
		t.Fatalf("kind not serialized as string:\n%s", buf.String())
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":1,\"kind\":\"stat\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":1,\"kind\":\"no_such_kind\"}\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	evs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank lines should decode to nothing, got %v, %v", evs, err)
	}
}

func TestMultiAndFuncSink(t *testing.T) {
	var a, b []Event
	s := Multi(nil, FuncSink(func(e Event) { a = append(a, e) }), FuncSink(func(e Event) { b = append(b, e) }))
	s.Emit(Event{Kind: KindStat, A: 1})
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("multi did not fan out: %d/%d", len(a), len(b))
	}
	if Multi() != Discard {
		t.Fatal("empty Multi should collapse to Discard")
	}
	one := NewRing(1)
	if Multi(nil, one) != one {
		t.Fatal("single-sink Multi should collapse to the sink")
	}
	Discard.Emit(Event{}) // must not panic
}
