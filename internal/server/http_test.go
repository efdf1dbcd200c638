package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simsym/internal/adversary"
	"simsym/internal/sysdsl"
)

func doJSON(t *testing.T, client *http.Client, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
}

func TestHTTPSessionAPI(t *testing.T) {
	s := New(Config{Shards: 2})
	drained := false
	ts := httptest.NewServer(Handler(s, func() { drained = true }))
	defer ts.Close()
	c := ts.Client()

	// Create.
	cfg := selectConfig(9)
	cfg.Config.SchedKind = "shuffled"
	var snap Snapshot
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", cfg, http.StatusCreated, &snap)
	if snap.ID == "" || snap.Kind != "select" {
		t.Fatalf("bad create snapshot: %+v", snap)
	}

	// Step with an explicit slot count.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/"+snap.ID+"/step",
		map[string]int{"slots": 5}, http.StatusOK, &snap)
	if snap.Slots != 5 {
		t.Fatalf("slots = %d, want 5", snap.Slots)
	}
	// Step with an empty body defaults to one slot.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/"+snap.ID+"/step", nil, http.StatusOK, &snap)
	if snap.Slots != 6 {
		t.Fatalf("slots = %d, want 6", snap.Slots)
	}

	// Run to completion, inspect the trace.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/"+snap.ID+"/run", nil, http.StatusOK, &snap)
	if !snap.Finished || !snap.Done {
		t.Fatalf("run did not finish/converge: %+v", snap)
	}
	var insp Snapshot
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/"+snap.ID+"?trace=1", nil, http.StatusOK, &insp)
	if len(insp.Schedule) != snap.Slots {
		t.Fatalf("trace has %d slots, want %d", len(insp.Schedule), snap.Slots)
	}

	// List, health, metrics.
	var list struct {
		Sessions []Snapshot `json:"sessions"`
	}
	doJSON(t, c, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 {
		t.Fatalf("list has %d sessions, want 1", len(list.Sessions))
	}
	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
		Draining bool   `json:"draining"`
	}
	doJSON(t, c, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" || health.Sessions != 1 || health.Draining {
		t.Fatalf("bad health: %+v", health)
	}
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"simsym_server_sessions_created_total 1",
		"simsym_server_step_latency_seconds_count",
		"simsym_server_slots_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Error statuses.
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/nope", nil, http.StatusNotFound, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions",
		SessionConfig{Topology: "gen fig2", Kind: "mystery"}, http.StatusBadRequest, nil)

	// Delete.
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/"+snap.ID, nil, http.StatusOK, nil)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/"+snap.ID, nil, http.StatusNotFound, nil)

	// Drain: completes, flips health, and refuses new sessions with 503.
	doJSON(t, c, "POST", ts.URL+"/admin/drain", nil, http.StatusOK, nil)
	if !drained {
		t.Fatal("onDrained hook did not fire")
	}
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", cfg, http.StatusServiceUnavailable, nil)
}

func TestHTTPRateLimit429(t *testing.T) {
	s := New(Config{Shards: 1, RatePerSec: 0.000001, Burst: 1})
	ts := httptest.NewServer(Handler(s, nil))
	defer ts.Close()
	defer drainOrFail(t, s)
	c := ts.Client()

	var snap Snapshot
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", selectConfig(0), http.StatusCreated, &snap)
	// The bucket (burst 1) is dry: the next mutating request bounces.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/"+snap.ID+"/step", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
}

// TestHTTPOversizedBody413 pins the request-body cap: a create body over
// 1 MiB is refused with 413, not a 5xx, and the server keeps serving
// normal requests.
func TestHTTPOversizedBody413(t *testing.T) {
	s := New(Config{Shards: 1})
	ts := httptest.NewServer(Handler(s, nil))
	defer ts.Close()
	defer drainOrFail(t, s)
	c := ts.Client()

	huge := selectConfig(0)
	huge.Topology += strings.Repeat(" ", 2<<20)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", huge, http.StatusRequestEntityTooLarge, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", selectConfig(0), http.StatusCreated, nil)
}

// hugeRing asks for a ring far past sysdsl.MaxGenSize. Before the bound,
// its parse panicked inside system.Ring on the shard goroutine, which
// took the whole daemon down.
const hugeRing = "gen ring 9223372036854775807"

// TestHTTPCreateOversizedGen400 pins the generator bound on create: the
// directive is refused with 400 and the server keeps serving.
func TestHTTPCreateOversizedGen400(t *testing.T) {
	s := New(Config{Shards: 1})
	ts := httptest.NewServer(Handler(s, nil))
	defer ts.Close()
	defer drainOrFail(t, s)
	c := ts.Client()

	huge := selectConfig(0)
	huge.Topology = hugeRing
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", huge, http.StatusBadRequest, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", selectConfig(0), http.StatusCreated, nil)
}

// TestHTTPReloadOversizedGen400 pins the generator bound on the
// hot-reload path: the reload is refused with 400 and the server keeps
// serving.
func TestHTTPReloadOversizedGen400(t *testing.T) {
	s := New(Config{Shards: 1})
	ts := httptest.NewServer(Handler(s, nil))
	defer ts.Close()
	defer drainOrFail(t, s)
	c := ts.Client()

	var snap Snapshot
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", diningConfig(0), http.StatusCreated, &snap)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/"+snap.ID+"/topology",
		map[string]string{"topology": hugeRing}, http.StatusBadRequest, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", selectConfig(0), http.StatusCreated, nil)
}

func TestHTTPConfigVocabularyMatchesFacade(t *testing.T) {
	// The JSON a session-create request carries is the facade's
	// RunConfig: the same field names unmarshal into runcfg.Common.
	raw := `{
		"topology": "gen dining 4",
		"kind": "dining",
		"meals": 1,
		"config": {
			"seed": 11,
			"sched": "shuffled",
			"faults": "lockdrop",
			"max_slots": 500,
			"max_duration": "2s",
			"workers": 4
		}
	}`
	var cfg SessionConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Config.Seed != 11 || cfg.Config.SchedKind != "shuffled" ||
		cfg.Config.FaultClasses != "lockdrop" || cfg.Config.MaxSlots != 500 ||
		cfg.Config.MaxDuration.Std().Seconds() != 2 || cfg.Config.Workers != 4 {
		t.Fatalf("config did not round-trip: %+v", cfg.Config)
	}
	// And it round-trips back out with the duration in string form.
	out, err := json.Marshal(cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"max_duration":"2s"`) {
		t.Fatalf("marshal lost the duration string form: %s", out)
	}

	s := New(Config{Shards: 1})
	defer drainOrFail(t, s)
	snap, err := s.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Run(snap.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if !final.Finished {
		t.Fatalf("session did not finish: %+v", final)
	}
	if final.Slots > 500 {
		t.Fatalf("max_slots not honored: %d slots", final.Slots)
	}
}

func TestHTTPBusyMapsTo429(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 1})
	ts := httptest.NewServer(Handler(s, nil))
	defer ts.Close()
	c := ts.Client()

	var snap Snapshot
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", diningConfig(0), http.StatusCreated, &snap)

	release := parkShard(t, s, 0)
	// One step fits in the queue; fire it asynchronously.
	errc := make(chan error, 1)
	go func() {
		_, err := s.Step(snap.ID, 1, "")
		errc <- err
	}()
	waitFor(t, func() bool { return len(s.shards[0].reqs) == 1 })

	// The next one must bounce over HTTP with 429.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/"+snap.ID+"/step", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	release()
	if err := <-errc; err != nil {
		t.Fatalf("queued step: %v", err)
	}
	drainOrFail(t, s)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

func TestHTTPTopologyReload(t *testing.T) {
	s := New(Config{Shards: 2})
	ts := httptest.NewServer(Handler(s, nil))
	defer ts.Close()
	defer drainOrFail(t, s)
	c := ts.Client()

	cfg := SessionConfig{Topology: "gen dining 5", Kind: "dining", Meals: 1}
	cfg.Config.MaxSlots = 1 << 20
	var snap Snapshot
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", cfg, http.StatusCreated, &snap)

	var reloaded Snapshot
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/"+snap.ID+"/topology",
		map[string]string{"topology": "gen dining 8"}, http.StatusOK, &reloaded)
	if reloaded.Procs != 8 || reloaded.Reloads != 1 || reloaded.Relabel == nil {
		t.Fatalf("bad reload snapshot: %+v", reloaded)
	}
	if reloaded.Relabel.Splits != 0 || reloaded.Relabel.Classes != 2 {
		t.Fatalf("symmetric growth relabel = %+v, want 0 splits, 2 classes", reloaded.Relabel)
	}

	// Bad target topology → 400; unknown session → 404.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/"+snap.ID+"/topology",
		map[string]string{"topology": "gen star 4"}, http.StatusBadRequest, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/nope/topology",
		map[string]string{"topology": "gen dining 5"}, http.StatusNotFound, nil)

	// The relabel work profile shows up on /metrics.
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"simsym_server_sessions_reloaded_total 1", "simsym_dyn_touched_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSnapshotFingerprintIsHexStateKey pins the wire form of
// Snapshot.Fingerprint: the hex encoding of the final machine's state
// key. The key is binary (fig2 SELECT keys are not valid UTF-8, so raw
// bytes would not survive JSON). Each session's fingerprint, read
// through the HTTP JSON round trip, must decode to the state key of a
// replay of its trace, and sessions that end in different states must
// get different fingerprints.
func TestSnapshotFingerprintIsHexStateKey(t *testing.T) {
	s := New(Config{Shards: 1})
	defer drainOrFail(t, s)
	ts := httptest.NewServer(Handler(s, nil))
	defer ts.Close()
	c := ts.Client()

	keys := make(map[string]int64) // hex fingerprint → seed
	for seed := int64(1); seed <= 4; seed++ {
		cfg := selectConfig(seed)
		var snap Snapshot
		doJSON(t, c, "POST", ts.URL+"/v1/sessions", cfg, http.StatusCreated, &snap)
		doJSON(t, c, "POST", ts.URL+"/v1/sessions/"+snap.ID+"/run", nil, http.StatusOK, &snap)
		var insp Snapshot
		doJSON(t, c, "GET", ts.URL+"/v1/sessions/"+snap.ID+"?trace=1", nil, http.StatusOK, &insp)
		if !snap.Finished || snap.Fingerprint == "" {
			t.Fatalf("seed %d: finished session without a fingerprint: %+v", seed, snap)
		}
		got, err := hex.DecodeString(snap.Fingerprint)
		if err != nil {
			t.Fatalf("seed %d: fingerprint %q is not hex: %v", seed, snap.Fingerprint, err)
		}

		sys, err := sysdsl.Parse(cfg.Topology)
		if err != nil {
			t.Fatal(err)
		}
		h, err := buildHarness(cfg, sys)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Replay(&adversary.Result{Schedule: insp.Schedule, Slots: snap.Slots})
		if err != nil {
			t.Fatal(err)
		}
		if want := rep.Final.AppendStateKey(nil, nil, nil); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: fingerprint decodes to %q, want the replayed state key %q", seed, got, want)
		}
		keys[snap.Fingerprint] = seed
	}
	if len(keys) < 2 {
		t.Fatalf("every seed ended with the same fingerprint; want sessions in different states to differ")
	}
}
