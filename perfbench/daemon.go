package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"simsym/internal/adversary"
	"simsym/internal/server"
	"simsym/internal/sysdsl"
	"simsym/internal/system"
)

// The daemon-mix workload is a closed loop: daemonClients clients, each
// sending its next request only once the previous reply arrived, each
// over its own keep-alive connection, against an in-process simsymd
// (server.Server behind server.Handler). Sessions alternate between
// SELECT on Figure 2 and DP′ dining on the flipped 6-table with a
// hot-reload to the flipped 8-table mid-run.
const (
	daemonClients        = 2
	daemonTracedSessions = 1000 // per traced pass, so its counts repeat exactly
	selectTopology       = "gen fig2"
	diningTopology       = "gen dining-flipped 6"
	diningReloadTopology = "gen dining-flipped 8"
	diningMeals          = 2
)

// scriptOp is one request of a session script after its create.
type scriptOp struct {
	kind  string // "step", "reload", "run" or "delete"
	slots int    // step
	topo  string // reload
}

// sessionScript is one seeded session: its create config and the
// requests that follow it.
type sessionScript struct {
	index int
	cfg   server.SessionConfig
	ops   []scriptOp
}

// scriptFor generates session i's script from the workload seed alone,
// so a session's requests do not depend on which client runs it or when.
func scriptFor(seed int64, i int) sessionScript {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	s := sessionScript{index: i}
	s.cfg.Config.Seed = rng.Int63()
	steps := func(max int) {
		for k := 1 + rng.Intn(max); k > 0; k-- {
			s.ops = append(s.ops, scriptOp{kind: "step", slots: 1 + rng.Intn(16)})
		}
	}
	if i%2 == 0 {
		s.cfg.Kind, s.cfg.Topology = "select", selectTopology
		steps(3)
	} else {
		s.cfg.Kind, s.cfg.Topology, s.cfg.Meals = "dining", diningTopology, diningMeals
		steps(2)
		s.ops = append(s.ops, scriptOp{kind: "reload", topo: diningReloadTopology})
		steps(2)
	}
	s.ops = append(s.ops, scriptOp{kind: "run"}, scriptOp{kind: "delete"})
	return s
}

// sessionAPI is the session surface a script drives: the daemon over
// HTTP, or a server.Server called directly.
type sessionAPI interface {
	create(cfg server.SessionConfig) (server.Snapshot, error)
	step(id string, slots int) (server.Snapshot, error)
	reload(id, topo string) (server.Snapshot, error)
	run(id string) (server.Snapshot, error)
	delete(id string) (server.Snapshot, error)
}

// playStats is what playing scripts against an API produced.
type playStats struct {
	win      *windows // per-slice latencies, when measuring end to end
	requests int64
	failed   int64
	problems []string
	acked    int64     // schedule slots acknowledged by successful replies
	start    time.Time // start of the pass, the origin of win's slices
}

func (p *playStats) fail(err error) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, err.Error())
	}
}

// play runs one script to completion. Every reply must succeed; the run
// reply must report a finished, violation-free session (a dining session
// also converged: every philosopher ate). Slots acknowledged by step and
// run replies are summed for the reconciliation against the daemon's
// slot counter. tr, when non-nil, gets a session span with one child per
// request, named prefix+"."+op.
func play(api sessionAPI, s sessionScript, p *playStats, tr *tracer, prefix string) {
	root := -1
	if tr != nil {
		root = tr.begin(prefix+".session", -1, int64(s.index))
	}
	call := func(op string, f func() (server.Snapshot, error)) (server.Snapshot, bool) {
		h := -1
		if tr != nil {
			h = tr.begin(prefix+"."+op, root, int64(s.index))
		}
		t0 := time.Now()
		snap, err := f()
		t1 := time.Now()
		if p.win != nil {
			p.win.add(t1.Sub(p.start), t1.Sub(t0))
		}
		if tr != nil {
			tr.end(h)
		}
		p.requests++
		if err != nil {
			p.fail(fmt.Errorf("session %d %s: %w", s.index, op, err))
			return snap, false
		}
		return snap, true
	}
	snap, ok := call("create", func() (server.Snapshot, error) { return api.create(s.cfg) })
	if ok {
		id, slots := snap.ID, snap.Slots
		for _, op := range s.ops {
			switch op.kind {
			case "step":
				snap, ok = call("step", func() (server.Snapshot, error) { return api.step(id, op.slots) })
			case "reload":
				snap, ok = call("reload", func() (server.Snapshot, error) { return api.reload(id, op.topo) })
				slots = 0 // the hosted run restarts on the new topology
			case "run":
				snap, ok = call("run", func() (server.Snapshot, error) { return api.run(id) })
				if ok && (!snap.Finished || snap.Violation != "" || (s.cfg.Kind == "dining" && !snap.Done)) {
					p.fail(fmt.Errorf("session %d ended finished=%v done=%v violation=%q", s.index, snap.Finished, snap.Done, snap.Violation))
				}
			case "delete":
				_, ok = call("delete", func() (server.Snapshot, error) { return api.delete(id) })
			}
			if ok && (op.kind == "step" || op.kind == "run") {
				p.acked += int64(snap.Slots - slots)
				slots = snap.Slots
			}
		}
	}
	if tr != nil {
		tr.end(root)
	}
}

// playAll runs sessions 0, 1, 2, ... from daemonClients closed-loop
// clients until limit sessions have started (limit > 0) or the budget
// has elapsed (each client finishes the session it is in). It returns
// the merged stats and the wall-clock time of the whole pass.
func playAll(api sessionAPI, seed int64, limit int, budget time.Duration, tracers []*tracer, prefix string) (*playStats, time.Duration) {
	stats := make([]playStats, daemonClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range stats {
		stats[c].start = start
		if budget > 0 {
			stats[c].win = newWindows(budget)
		}
	}
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if tracers != nil {
				tr = tracers[c]
			}
			for i := c; (limit == 0 || i < limit) && (budget == 0 || time.Since(start) < budget); i += daemonClients {
				play(api, scriptFor(seed, i), &stats[c], tr, prefix)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	total := &playStats{start: start}
	if budget > 0 {
		total.win = newWindows(budget)
	}
	for _, s := range stats {
		if s.win != nil {
			total.win.merge(s.win)
		}
		total.requests += s.requests
		total.failed += s.failed
		total.problems = append(total.problems, s.problems...)
		total.acked += s.acked
	}
	return total, wall
}

// gates folds a pass's request outcomes and the daemon's end state into
// o: every session deleted, and the slots the clients were acknowledged
// equal to the daemon's slot counter (nothing dropped or double-applied).
func (p *playStats) gates(o *outcome, srv *server.Server) {
	o.attempted += p.requests
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
	var live, slots error
	if n := srv.Sessions(); n != 0 {
		live = fmt.Errorf("%d sessions still live after every script deleted its own", n)
	}
	if applied := srv.Registry().Counter("server.slots").Value(); applied != p.acked {
		slots = fmt.Errorf("daemon applied %d slots, clients were acknowledged %d", applied, p.acked)
	}
	o.op(live)
	o.op(slots)
}

// daemon is an in-process simsymd: a server.Server served over HTTP on a
// loopback listener, with a client pool of daemonClients connections.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    server.New(server.Config{}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: daemonClients,
			MaxConnsPerHost:     daemonClients,
		}},
	}
	d.hs = &http.Server{Handler: server.Handler(d.srv, nil)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// warm makes one round trip, so the handler and a pooled connection are
// ready before the first measured request. It is kept out of setup_s: the
// first dial's latency follows the host's scheduling load, and it moved
// setup_s by 30% between sets of runs of the same code.
func (d *daemon) warm() error {
	if err := d.get("/healthz", io.Discard); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func startWarmDaemon() (*daemon, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	if err := d.warm(); err != nil {
		_ = d.stop() // the failed warm-up is the error to report
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server and the session server down and waits for
// both to finish.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

func (d *daemon) get(path string, w io.Writer) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// do sends one API request and decodes the Snapshot reply; any non-2xx
// status, 429 and 503 included, is an error.
func (d *daemon) do(method, path string, body any) (server.Snapshot, error) {
	var snap server.Snapshot
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return snap, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return snap, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return snap, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // leave the connection reusable
	return snap, err
}

func (d *daemon) create(cfg server.SessionConfig) (server.Snapshot, error) {
	return d.do(http.MethodPost, "/v1/sessions", cfg)
}

func (d *daemon) step(id string, slots int) (server.Snapshot, error) {
	return d.do(http.MethodPost, "/v1/sessions/"+id+"/step", map[string]int{"slots": slots})
}

func (d *daemon) reload(id, topo string) (server.Snapshot, error) {
	return d.do(http.MethodPost, "/v1/sessions/"+id+"/topology", map[string]string{"topology": topo})
}

func (d *daemon) run(id string) (server.Snapshot, error) {
	return d.do(http.MethodPost, "/v1/sessions/"+id+"/run", nil)
}

func (d *daemon) delete(id string) (server.Snapshot, error) {
	return d.do(http.MethodDelete, "/v1/sessions/"+id, nil)
}

// direct drives a server.Server without HTTP.
type direct struct{ srv *server.Server }

func (d direct) create(cfg server.SessionConfig) (server.Snapshot, error) { return d.srv.Create(cfg) }
func (d direct) step(id string, slots int) (server.Snapshot, error) {
	return d.srv.Step(id, slots, "")
}
func (d direct) reload(id, topo string) (server.Snapshot, error) { return d.srv.Reload(id, topo, "") }
func (d direct) run(id string) (server.Snapshot, error)          { return d.srv.Run(id, "") }
func (d direct) delete(id string) (server.Snapshot, error)       { return d.srv.Delete(id) }

func measureDaemon(cfg config) (*outcome, error) {
	o := newOutcome()
	d, setups, err := timeSetups(31, startDaemon, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	if err := d.warm(); err != nil {
		_ = d.stop() // the failed warm-up is the error to report
		return nil, err
	}
	p, _ := playAll(d, cfg.seed, 0, cfg.duration, nil, "http")
	p.gates(o, d.srv)
	if err := d.stop(); err != nil {
		return nil, err
	}
	o.set("setup_s", median(setups), "s")
	p.win.report(o)
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Fprintf(cfg.out, "requests %d over %d clients (closed loop)\n", p.requests, daemonClients)
	return o, nil
}

func traceDaemon(cfg config) (*outcome, error) {
	o := newOutcome()

	// Untraced HTTP pass: the overhead baseline and Go runtime counters.
	d, err := startWarmDaemon()
	if err != nil {
		return nil, err
	}
	rw := startRuntimeWindow()
	base, baseWall := playAll(d, cfg.seed, daemonTracedSessions, 0, nil, "http")
	rw.stop(o, base.requests)
	base.gates(o, d.srv)
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Traced HTTP pass, then the registry counters scraped from /metrics.
	epoch := time.Now()
	tracers := make([]*tracer, daemonClients)
	for i := range tracers {
		tracers[i] = newTracer(epoch)
	}
	if d, err = startWarmDaemon(); err != nil {
		return nil, err
	}
	p, wall := playAll(d, cfg.seed, daemonTracedSessions, 0, tracers, "http")
	p.gates(o, d.srv)
	var exposition bytes.Buffer
	scrapeErr := d.get("/metrics", &exposition)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if scrapeErr != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", scrapeErr)
	}
	overhead(o, baseWall, wall)
	reportRegistry(o, exposition.String())

	// The same scripts through direct Server calls: the server's share.
	srv := server.New(server.Config{})
	sp, _ := playAll(direct{srv}, cfg.seed, daemonTracedSessions, 0, tracers, "server")
	sp.gates(o, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = srv.Drain(ctx)
	cancel()
	if err != nil {
		return nil, err
	}

	// The same scripts through the layers a session is built from.
	tr := tracers[0]
	for _, t := range tracers[1:] {
		tr.merge(t)
	}
	for i := 0; i < daemonTracedSessions; i++ {
		o.op(replayLayers(tr, scriptFor(cfg.seed, i)))
	}

	q := func(name string, quant float64) float64 { return tr.durations(name).quantileMS(quant) * 1e3 }
	for _, op := range []string{"create", "step", "reload", "delete"} {
		for _, layer := range []string{"http", "server"} {
			o.set(layer+"."+op+"_us_p50", q(layer+"."+op, 0.50), "us")
			o.set(layer+"."+op+"_us_p99", q(layer+"."+op, 0.99), "us")
		}
	}
	o.set("http.overhead_us", q("http.step", 0.5)-q("server.step", 0.5), "us")
	o.set("sysdsl.parse_us", q("sysdsl.parse", 0.5), "us")
	o.set("adversary.harness_build_us", q("adversary.harness_build", 0.5), "us")
	o.set("adversary.advance_us", q("adversary.advance", 0.5), "us")
	o.set("server.queue_us", q("server.step", 0.5)-q("adversary.advance", 0.5), "us")
	return o, tr.report(cfg, "daemon-mix")
}

// registryCounters are the daemon counters reported from a /metrics
// scrape; each is a deterministic function of the scripts played.
var registryCounters = []string{
	"server_slots", "server_steps",
	"server_sessions_created", "server_sessions_finished", "server_sessions_converged",
	"server_sessions_deleted", "server_sessions_reloaded",
	"dyn_touched", "dyn_splits", "dyn_merges", "dyn_relabeled", "dyn_rebuilds",
}

// reportRegistry parses the Prometheus text exposition for the counters
// in registryCounters; a counter the daemon never touched reads 0.
func reportRegistry(o *outcome, exposition string) {
	values := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			values[name] = v
		}
	}
	for _, c := range registryCounters {
		o.set("registry."+c, values["simsym_"+c+"_total"], "count")
	}
}

// replayLayers replays one script through the calls a session makes
// below the server: topology parse, harness construction (similarity,
// the SELECT decision and program synthesis for select sessions) and
// Exec.Advance per step, seeded exactly as the server seeds a session.
func replayLayers(tr *tracer, s sessionScript) error {
	id := int64(s.index)
	root := tr.begin("layers.session", -1, id)
	defer tr.end(root)
	start := func(topo string) (*adversary.Exec, error) {
		h := tr.begin("sysdsl.parse", root, id)
		sys, err := sysdsl.Parse(topo)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		h = tr.begin("adversary.harness_build", root, id)
		var hr *adversary.Harness
		if s.cfg.Kind == "select" {
			hr, err = adversary.NewSelectHarness(sys, system.InstrQ, system.SchedFair, nil)
		} else {
			hr, err = adversary.NewDiningHarness(sys, s.cfg.Meals, nil)
		}
		tr.end(h)
		if err != nil {
			return nil, err
		}
		hr.Sched = adversary.Uniform(rand.New(rand.NewSource(s.cfg.Config.Seed)), sys.NumProcs())
		h = tr.begin("adversary.start", root, id)
		defer tr.end(h)
		return hr.Start()
	}
	exec, err := start(s.cfg.Topology)
	if err != nil {
		return fmt.Errorf("session %d layers: %w", s.index, err)
	}
	for _, op := range s.ops {
		switch op.kind {
		case "step":
			h := tr.begin("adversary.advance", root, id)
			_, err = exec.Advance(op.slots)
			tr.end(h)
		case "reload":
			exec, err = start(op.topo)
		case "run":
			h := tr.begin("adversary.run", root, id)
			for err == nil && !exec.Finished() {
				_, err = exec.Advance(1 << 14)
			}
			tr.end(h)
		}
		if err != nil {
			return fmt.Errorf("session %d layers %s: %w", s.index, op.kind, err)
		}
	}
	return nil
}
