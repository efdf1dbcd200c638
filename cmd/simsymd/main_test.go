package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoadgenSmall(t *testing.T) {
	benchPath := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	err := run([]string{
		"-loadgen", "-clients", "40", "-workers", "4", "-client-steps", "3",
		"-shards", "2", "-bench-out", benchPath,
	}, &buf)
	if err != nil {
		t.Fatalf("loadgen: %v\noutput:\n%s", err, buf.String())
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var res benchResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("bench JSON: %v\n%s", err, raw)
	}
	if res.Sessions != 40 {
		t.Fatalf("sessions = %d, want 40", res.Sessions)
	}
	if res.Steps < 40 { // select sessions may finish before 3 steps, but never 0
		t.Fatalf("steps = %d, want >= 40", res.Steps)
	}
	if res.SessionsPerSec <= 0 || res.ElapsedSec <= 0 {
		t.Fatalf("empty throughput numbers: %+v", res)
	}
	if res.StepP99Ms < res.StepP50Ms {
		t.Fatalf("p99 %v < p50 %v", res.StepP99Ms, res.StepP50Ms)
	}
}

func TestLoadgenDurationCap(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-loadgen", "-clients", "1000000", "-workers", "4",
		"-duration", "100ms", "-shards", "2",
	}, &buf)
	if err != nil {
		t.Fatalf("loadgen: %v\noutput:\n%s", err, buf.String())
	}
	var res benchResult
	dec := json.NewDecoder(strings.NewReader(afterFirstBrace(buf.String())))
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("bench JSON: %v\n%s", err, buf.String())
	}
	if res.Sessions == 0 || res.Sessions >= 1000000 {
		t.Fatalf("duration cap did not bound the run: %d sessions", res.Sessions)
	}
}

// TestHTTPServerTimeouts: both servers simsymd builds bound how long a
// client may take to send a request and how long an idle connection
// lives, and leave writes unbounded for long /run requests.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts: read header %v, read %v, idle %v; want all set",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.ReadHeaderTimeout > hs.ReadTimeout {
		t.Errorf("read header timeout %v exceeds the read timeout %v", hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("write timeout %v, want none", hs.WriteTimeout)
	}
}

// TestServeDrainViaAdmin boots the daemon on an ephemeral port, creates
// a session over HTTP, drains via the admin endpoint, and expects the
// serve loop to exit cleanly.
func TestServeDrainViaAdmin(t *testing.T) {
	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shards", "2"}, buf)
	}()

	base := waitForAddr(t, buf)
	body := strings.NewReader(`{"topology": "gen fig2", "kind": "select"}`)
	resp, err := http.Post(base+"/v1/sessions", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/admin/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v\noutput:\n%s", err, buf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("serve did not exit after drain\noutput:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "drained") {
		t.Fatalf("missing drain log line:\n%s", buf.String())
	}
}

var addrRe = regexp.MustCompile(`listening on (\S+)`)

func waitForAddr(t *testing.T, buf *syncBuffer) string {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if m := addrRe.FindStringSubmatch(buf.String()); m != nil {
			return "http://" + m[1]
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("daemon never reported its address:\n%s", buf.String())
	return ""
}

func afterFirstBrace(s string) string {
	if i := strings.IndexByte(s, '{'); i >= 0 {
		return s[i:]
	}
	return s
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
