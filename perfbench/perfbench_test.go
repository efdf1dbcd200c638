package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"simsym/internal/core"
	"simsym/internal/server"
	"simsym/internal/system"
)

func smallTree(t *testing.T) *system.System {
	t.Helper()
	sys, err := system.Tree(63)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func stream(sys *system.System, seed int64, events int) [][]core.Mutation {
	sp := newSplicer(sys, seed)
	out := make([][]core.Mutation, events)
	for i := range out {
		out[i] = sp.next()
	}
	return out
}

func TestChurnStreamRepeatsPerSeed(t *testing.T) {
	sys := smallTree(t)
	a, b := stream(sys, 7, 500), stream(sys, 7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different streams")
	}
	if reflect.DeepEqual(a, stream(sys, 8, 500)) {
		t.Error("seeds 7 and 8 gave the same stream")
	}
}

func TestChurnCountsRepeatPerSeed(t *testing.T) {
	sys := smallTree(t)
	var totals []workTotals
	for run := 0; run < 2; run++ {
		c, _, err := newChurnRun(sys, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		c.run(o, 300, 0, nil, -1)
		c.verify(o)
		if o.failed != 0 || o.attempted != 302 {
			t.Fatalf("%d of %d failed: %v", o.failed, o.attempted, o.problems)
		}
		totals = append(totals, c.work)
	}
	if totals[0] != totals[1] {
		t.Errorf("work totals differ between runs of one seed:\n%+v\n%+v", totals[0], totals[1])
	}
	if totals[0].mergePasses == 0 {
		t.Error("stream never took the merge pass; the workload no longer exercises it")
	}
}

func TestSessionScriptsRepeatPerSeed(t *testing.T) {
	for i := 0; i < 20; i++ {
		if !reflect.DeepEqual(scriptFor(5, i), scriptFor(5, i)) {
			t.Fatalf("session %d: same seed gave different scripts", i)
		}
	}
	if reflect.DeepEqual(scriptFor(5, 3), scriptFor(6, 3)) {
		t.Error("seeds 5 and 6 gave the same script")
	}
}

func TestDaemonCountsRepeatPerSeed(t *testing.T) {
	var counts []string
	for run := 0; run < 2; run++ {
		srv := server.New(server.Config{})
		p, _ := playAll(direct{srv}, 9, 40, 0, nil, "server")
		o := newOutcome()
		p.gates(o, srv)
		if o.failed != 0 {
			t.Fatalf("%d of %d failed: %v", o.failed, o.attempted, o.problems)
		}
		var text bytes.Buffer
		if err := srv.Registry().WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		reportRegistry(o, text.String())
		counts = append(counts, mustJSON(o.metrics))
	}
	if counts[0] != counts[1] {
		t.Errorf("registry counts differ between runs of one seed:\n%s\n%s", counts[0], counts[1])
	}
}

func TestCheckCloseCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("closes a 366,160-state space")
	}
	in, err := buildCloseInput()
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := runClose(in, nil)
	if err := verifyClose(rep, err); err != nil {
		t.Fatal(err)
	}
}

func TestDurHistQuantiles(t *testing.T) {
	var h durHist
	for d := time.Duration(1); d <= 1000; d++ {
		h.add(d * time.Microsecond)
	}
	h.add(3 * time.Hour)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, time.Microsecond}, {0.5, 501 * time.Microsecond}, {0.99, 991 * time.Microsecond}, {1, 3 * time.Hour}} {
		got := time.Duration(h.quantileMS(c.q) * float64(time.Millisecond))
		if diff := math.Abs(float64(got - c.want)); diff > 0.004*float64(c.want) {
			t.Errorf("q%.2f = %v, want %v within 0.4%%", c.q, got, c.want)
		}
	}
	for _, d := range []time.Duration{0, 1, 511, 512, 513, 4097, 1 << 40} {
		if b, next := histBucket(d), histBucket(d+d/256+1); b < 0 || b >= histSize || next <= b {
			t.Errorf("duration %v: bucket %d, next bucket %d", d, b, next)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "check-close", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step:
// the same workloads, and every per-layer metric with the same unit.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", got, want)
	}
	got, want = nil, nil
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n%s\n%s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
	o, err := measureChurn(config{seed: 1, duration: 100 * time.Millisecond, out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	got, want = nil, nil
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for name, m := range o.metrics {
		want = append(want, name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, a measured run reports %v", got, want)
	}
}
