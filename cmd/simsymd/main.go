// Command simsymd hosts many concurrent election/exclusion sessions in
// one daemon behind an HTTP/JSON API. Each session wraps one VM
// instance; sessions shard across a fixed goroutine pool, shards batch
// and coalesce step requests, full queues push back with 429, and
// SIGINT/SIGTERM (or POST /admin/drain) drains gracefully: in-flight
// steps finish, new sessions are refused, and the observability sinks
// flush before exit.
//
// Usage:
//
//	simsymd -addr :8080 -shards 16 -rate 100
//	simsymd -loadgen -clients 100000 -workers 256 -bench-out BENCH.json
//
// The loadgen mode drives simulated clients (create → step ×N →
// delete) against -target, or against a self-hosted in-process daemon
// when -target is empty, and reports sessions/sec plus client-side
// p50/p99 step latency as JSON.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"simsym/internal/obsflag"
	"simsym/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simsymd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simsymd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	shards := fs.Int("shards", 2*runtime.GOMAXPROCS(0), "session shard pool size")
	queue := fs.Int("queue", 1024, "per-shard request queue depth (full queue → 429)")
	batch := fs.Int("batch", 256, "max requests one shard wakeup drains as a batch")
	maxSessions := fs.Int("max-sessions", 1<<20, "live session cap (reached → 503)")
	rate := fs.Float64("rate", 0, "per-tenant request rate limit in req/s (0 = unlimited)")
	burst := fs.Float64("burst", 0, "per-tenant burst capacity (default 2×rate)")

	loadgen := fs.Bool("loadgen", false, "run the load generator instead of serving")
	clients := fs.Int("clients", 100_000, "loadgen: simulated clients (one session each)")
	workers := fs.Int("workers", 8*runtime.GOMAXPROCS(0), "loadgen: concurrent worker goroutines")
	clientSteps := fs.Int("client-steps", 4, "loadgen: step requests per client session")
	duration := fs.Duration("duration", 0, "loadgen: wall-clock cap (0 = run every client)")
	topology := fs.String("topology", "fig2", "loadgen: generator directive for session topologies")
	kind := fs.String("kind", "select", "loadgen: session kind (select or dining)")
	target := fs.String("target", "", "loadgen: base URL of a running daemon (empty = self-host)")
	benchOut := fs.String("bench-out", "", "loadgen: also write the results JSON to `FILE`")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := obsFlags.Recorder()
	if err != nil {
		return err
	}
	cfg := server.Config{
		Shards:      *shards,
		QueueDepth:  *queue,
		BatchSize:   *batch,
		MaxSessions: *maxSessions,
		RatePerSec:  *rate,
		Burst:       *burst,
		Obs:         rec,
	}

	if *loadgen {
		lg := loadgenConfig{
			Target:      *target,
			Clients:     *clients,
			Workers:     *workers,
			ClientSteps: *clientSteps,
			Duration:    *duration,
			Topology:    *topology,
			Kind:        *kind,
			BenchOut:    *benchOut,
		}
		if err := runLoadgen(out, cfg, lg); err != nil {
			return err
		}
		return obsFlags.Close(out)
	}
	if err := serve(out, cfg, *addr); err != nil {
		return err
	}
	return obsFlags.Close(out)
}

// serve runs the daemon until SIGINT/SIGTERM or POST /admin/drain, then
// drains the shard pool and shuts the listener down.
func serve(out io.Writer, cfg server.Config, addr string) error {
	s := server.New(cfg)
	drained := make(chan struct{}, 1)
	hs := newHTTPServer(server.Handler(s, func() {
		select {
		case drained <- struct{}{}:
		default:
		}
	}))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(out, "simsymd: listening on %s (%d shards, queue %d, batch %d)\n",
		ln.Addr(), cfg.Shards, cfg.QueueDepth, cfg.BatchSize)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case v := <-sig:
		fmt.Fprintf(out, "simsymd: %v, draining\n", v)
	case <-drained:
		fmt.Fprintln(out, "simsymd: drained via admin API, shutting down")
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil { // idempotent if /admin/drain already ran
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-serveErr
	fmt.Fprintf(out, "simsymd: drained, %d sessions retained\n", s.Sessions())
	return nil
}

// The read and idle timeouts of both HTTP servers simsymd builds. A
// client has readHeaderTimeout to send its request line and headers and
// readTimeout to send the whole request, whose body the handler caps at
// 1 MiB; a keep-alive connection idle for idleTimeout is closed. There
// is no write timeout: a /run may rightly outlast any fixed bound until
// /run gets its own deadline.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns a server for h with simsymd's timeouts, so a
// client that stalls mid-request or holds an idle connection cannot pin
// a connection forever.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

type loadgenConfig struct {
	Target      string
	Clients     int
	Workers     int
	ClientSteps int
	Duration    time.Duration
	Topology    string
	Kind        string
	BenchOut    string
}

// benchResult is the loadgen report, serialized to stdout and -bench-out.
type benchResult struct {
	Clients        int     `json:"clients"`
	Workers        int     `json:"workers"`
	ClientSteps    int     `json:"client_steps"`
	Topology       string  `json:"topology"`
	Kind           string  `json:"kind"`
	Shards         int     `json:"shards"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	Sessions       int64   `json:"sessions"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	Steps          int64   `json:"steps"`
	StepsPerSec    float64 `json:"steps_per_sec"`
	Retries429     int64   `json:"retries_429"`
	CreateP50Ms    float64 `json:"create_p50_ms"`
	CreateP99Ms    float64 `json:"create_p99_ms"`
	StepP50Ms      float64 `json:"step_p50_ms"`
	StepP99Ms      float64 `json:"step_p99_ms"`
}

// runLoadgen drives lg.Clients simulated clients through a worker pool.
// Each client creates one session, steps it lg.ClientSteps times one
// slot at a time, and deletes it; 429 responses back off and retry so
// backpressure slows the generator instead of failing it.
func runLoadgen(out io.Writer, cfg server.Config, lg loadgenConfig) error {
	base := lg.Target
	var srv *server.Server
	if base == "" {
		srv = server.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := newHTTPServer(server.Handler(srv, nil))
		go func() { _ = hs.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
			_ = hs.Shutdown(ctx)
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(out, "loadgen: self-hosted daemon at %s\n", base)
	}

	tr := &http.Transport{
		MaxIdleConns:        2 * lg.Workers,
		MaxIdleConnsPerHost: 2 * lg.Workers,
	}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	defer tr.CloseIdleConnections()

	body, err := json.Marshal(server.SessionConfig{Topology: "gen " + lg.Topology, Kind: lg.Kind})
	if err != nil {
		return err
	}

	var (
		next     atomic.Int64
		sessions atomic.Int64
		steps    atomic.Int64
		retries  atomic.Int64
	)
	var deadline time.Time
	if lg.Duration > 0 {
		deadline = time.Now().Add(lg.Duration)
	}
	createNs := make([][]int64, lg.Workers)
	stepNs := make([][]int64, lg.Workers)
	errc := make(chan error, lg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < lg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(lg.Clients) {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				if err := oneClient(client, base, body, lg.ClientSteps,
					&createNs[w], &stepNs[w], &steps, &retries); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				sessions.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return fmt.Errorf("loadgen: %w", err)
	default:
	}

	res := benchResult{
		Clients:     lg.Clients,
		Workers:     lg.Workers,
		ClientSteps: lg.ClientSteps,
		Topology:    lg.Topology,
		Kind:        lg.Kind,
		Shards:      cfg.Shards,
		ElapsedSec:  elapsed.Seconds(),
		Sessions:    sessions.Load(),
		Steps:       steps.Load(),
		Retries429:  retries.Load(),
	}
	if res.ElapsedSec > 0 {
		res.SessionsPerSec = float64(res.Sessions) / res.ElapsedSec
		res.StepsPerSec = float64(res.Steps) / res.ElapsedSec
	}
	creates := merge(createNs)
	stepsAll := merge(stepNs)
	res.CreateP50Ms = quantileMs(creates, 0.50)
	res.CreateP99Ms = quantileMs(creates, 0.99)
	res.StepP50Ms = quantileMs(stepsAll, 0.50)
	res.StepP99Ms = quantileMs(stepsAll, 0.99)

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if lg.BenchOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(lg.BenchOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// oneClient runs one simulated client: create, step ×n, delete. 429s
// (backpressure or rate limit) sleep briefly and retry.
func oneClient(client *http.Client, base string, createBody []byte, nsteps int,
	createNs, stepNs *[]int64, steps, retries *atomic.Int64) error {
	var snap server.Snapshot
	t0 := time.Now()
	if err := doRetry(client, http.MethodPost, base+"/v1/sessions", createBody, &snap, retries); err != nil {
		return err
	}
	*createNs = append(*createNs, int64(time.Since(t0)))
	for i := 0; i < nsteps; i++ {
		t0 = time.Now()
		err := doRetry(client, http.MethodPost, base+"/v1/sessions/"+snap.ID+"/step", nil, &snap, retries)
		if err != nil {
			return err
		}
		*stepNs = append(*stepNs, int64(time.Since(t0)))
		steps.Add(1)
		if snap.Finished {
			break
		}
	}
	return doRetry(client, http.MethodDelete, base+"/v1/sessions/"+snap.ID, nil, nil, retries)
}

// doRetry issues one request, retrying 429 responses with a small
// backoff, and decodes the JSON reply into out when non-nil.
func doRetry(client *http.Client, method, url string, body []byte, out any, retries *atomic.Int64) error {
	backoff := time.Millisecond
	for {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			retries.Add(1)
			time.Sleep(backoff)
			if backoff < 64*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		if resp.StatusCode/100 != 2 {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, raw)
		}
		if out != nil {
			err = json.NewDecoder(resp.Body).Decode(out)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		return err
	}
}

func merge(parts [][]int64) []int64 {
	var all []int64
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// quantileMs reads quantile q from sorted nanosecond samples, in ms.
func quantileMs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e6
}
