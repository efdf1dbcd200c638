// Package server hosts many concurrent election/exclusion sessions —
// one VM instance each, built from the same constructors the facade and
// CLIs use — behind a sharded goroutine pool. It is the engine of the
// simsymd daemon (ROADMAP: "simsym-as-a-service").
//
// Architecture: sessions hash by id onto a fixed set of shards; each
// shard is one goroutine that owns its sessions outright, so session
// state is never locked. Requests travel through bounded per-shard
// queues — a full queue rejects immediately (ErrBusy → HTTP 429), which
// is the backpressure signal — and the shard drains its queue in
// batches, coalescing adjacent step requests for the same session into
// one advance. Tenants are rate-limited by token buckets before a
// request may enqueue. Draining closes an admission gate (new requests
// get ErrDraining → 503), then closes every queue; shards finish every
// request already admitted before exiting, so no in-flight step is ever
// dropped.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"simsym/internal/obs"
)

// Request rejection sentinels; the HTTP layer maps them onto statuses
// (ErrBusy, ErrRateLimited → 429; ErrDraining, ErrFull → 503;
// ErrNotFound → 404; ErrBadSession → 400).
var (
	ErrBadSession  = errors.New("server: bad session config")
	ErrNotFound    = errors.New("server: session not found")
	ErrBusy        = errors.New("server: shard queue full")
	ErrRateLimited = errors.New("server: tenant rate limit exceeded")
	ErrDraining    = errors.New("server: draining, not accepting requests")
	ErrFull        = errors.New("server: session limit reached")
)

// Config sizes the server. The zero value selects the documented
// defaults.
type Config struct {
	// Shards is the goroutine-pool size sessions hash onto (default 8).
	Shards int
	// QueueDepth bounds each shard's pending-request queue; a full queue
	// rejects with ErrBusy (default 1024).
	QueueDepth int
	// BatchSize caps how many queued requests one shard wakeup drains
	// and processes as a batch (default 256).
	BatchSize int
	// MaxSessions caps live sessions across all shards (default 1<<20).
	MaxSessions int
	// RatePerSec > 0 enables per-tenant token buckets refilling at this
	// rate; Burst is the bucket capacity (default 2×RatePerSec).
	RatePerSec float64
	Burst      float64
	// Obs supplies the metrics registry the server records into (and the
	// /metrics endpoint serves). Nil creates a private registry.
	Obs *obs.Recorder
	// Now is the clock the rate limiter reads (tests inject a fake;
	// default time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1 << 20
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.RatePerSec
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

type opKind int

const (
	opCreate opKind = iota
	opStep
	opRun
	opInspect
	opDelete
	opList
	opReload
	// opBarrier parks the shard goroutine until its block channel is
	// closed — a deterministic seam for the backpressure tests. No
	// production path enqueues it.
	opBarrier
)

type request struct {
	op    opKind
	id    string
	slots int           // opStep
	trace bool          // opInspect
	cfg   SessionConfig // opCreate
	topo  string        // opReload: new sysdsl topology
	block chan struct{} // opBarrier: parks the shard until closed
	ack   chan struct{} // opBarrier: closed once the shard is parked
	reply chan reply
}

type reply struct {
	snap  Snapshot
	snaps []Snapshot // opList
	err   error
}

type shard struct {
	reqs     chan *request
	sessions map[string]*session
}

// Server hosts sessions across a fixed shard pool. Construct with New;
// a Server must be Drained before discarding or its shard goroutines
// leak.
type Server struct {
	cfg    Config
	shards []*shard
	reg    *obs.Registry
	lim    *limiter

	gate struct {
		mu     sync.RWMutex
		closed bool
	}
	wg sync.WaitGroup

	nextID   atomic.Uint64
	live     atomic.Int64 // live sessions, bounded by MaxSessions
	inflight atomic.Int64 // admitted, unanswered requests (drain telemetry)
}

// New starts the shard pool and returns the server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	if cfg.Obs != nil {
		s.reg = cfg.Obs.Metrics()
	} else {
		s.reg = obs.NewRegistry()
	}
	if cfg.RatePerSec > 0 {
		s.lim = newLimiter(cfg.RatePerSec, cfg.Burst, cfg.Now)
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{
			reqs:     make(chan *request, cfg.QueueDepth),
			sessions: make(map[string]*session),
		}
		s.shards[i] = sh
		s.wg.Add(1)
		go s.run(sh)
	}
	return s
}

// Registry exposes the metrics registry (the /metrics endpoint).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Sessions returns the live session count.
func (s *Server) Sessions() int { return int(s.live.Load()) }

// shardFor hashes a session id onto its owning shard.
func (s *Server) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// submit admits one request through the drain gate and the target
// shard's bounded queue, then waits for the shard's answer.
func (s *Server) submit(sh *shard, req request) (reply, error) {
	req.reply = make(chan reply, 1)
	s.gate.mu.RLock()
	if s.gate.closed {
		s.gate.mu.RUnlock()
		s.reg.Counter("server.reject.draining").Inc()
		return reply{}, ErrDraining
	}
	select {
	case sh.reqs <- &req:
		s.inflight.Add(1)
		s.gate.mu.RUnlock()
	default:
		s.gate.mu.RUnlock()
		s.reg.Counter("server.reject.busy").Inc()
		return reply{}, ErrBusy
	}
	r := <-req.reply
	s.inflight.Add(-1)
	return r, r.err
}

// admitTenant charges one token from the tenant's bucket.
func (s *Server) admitTenant(tenant string) error {
	if s.lim == nil || s.lim.allow(tenant) {
		return nil
	}
	s.reg.Counter("server.reject.ratelimit").Inc()
	return ErrRateLimited
}

// Create validates cfg, builds the session, and registers it on its
// shard. The returned snapshot carries the assigned session id.
func (s *Server) Create(cfg SessionConfig) (Snapshot, error) {
	start := s.cfg.Now()
	if err := s.admitTenant(cfg.Tenant); err != nil {
		return Snapshot{}, err
	}
	if s.live.Load() >= int64(s.cfg.MaxSessions) {
		s.reg.Counter("server.reject.full").Inc()
		return Snapshot{}, ErrFull
	}
	id := "s-" + strconv.FormatUint(s.nextID.Add(1), 36)
	r, err := s.submit(s.shardFor(id), request{op: opCreate, id: id, cfg: cfg})
	if err != nil {
		return Snapshot{}, err
	}
	s.reg.Histogram("server.create.latency").Observe(s.cfg.Now().Sub(start))
	return r.snap, nil
}

// Step advances a session by up to slots schedule slots (default 1) and
// returns its post-advance snapshot.
func (s *Server) Step(id string, slots int, tenant string) (Snapshot, error) {
	start := s.cfg.Now()
	if err := s.admitTenant(tenant); err != nil {
		return Snapshot{}, err
	}
	if slots <= 0 {
		slots = 1
	}
	r, err := s.submit(s.shardFor(id), request{op: opStep, id: id, slots: slots})
	if err != nil {
		return Snapshot{}, err
	}
	s.reg.Histogram("server.step.latency").Observe(s.cfg.Now().Sub(start))
	return r.snap, nil
}

// Run drives a session to its overall slot budget and returns the final
// snapshot.
func (s *Server) Run(id string, tenant string) (Snapshot, error) {
	if err := s.admitTenant(tenant); err != nil {
		return Snapshot{}, err
	}
	r, err := s.submit(s.shardFor(id), request{op: opRun, id: id})
	if err != nil {
		return Snapshot{}, err
	}
	return r.snap, nil
}

// Reload hot-swaps a session's topology to the given sysdsl
// description. The session's incremental similarity engine diffs the
// target against the current topology (split/merge partition repair
// instead of relabeling from scratch) and the hosted run restarts on
// the new system; the returned snapshot carries the relabel stats.
func (s *Server) Reload(id, topology, tenant string) (Snapshot, error) {
	start := s.cfg.Now()
	if err := s.admitTenant(tenant); err != nil {
		return Snapshot{}, err
	}
	r, err := s.submit(s.shardFor(id), request{op: opReload, id: id, topo: topology})
	if err != nil {
		return Snapshot{}, err
	}
	s.reg.Histogram("server.reload.latency").Observe(s.cfg.Now().Sub(start))
	return r.snap, nil
}

// Inspect returns a session's snapshot, with its replayable trace when
// trace is set.
func (s *Server) Inspect(id string, trace bool) (Snapshot, error) {
	r, err := s.submit(s.shardFor(id), request{op: opInspect, id: id, trace: trace})
	if err != nil {
		return Snapshot{}, err
	}
	return r.snap, nil
}

// Delete removes a session and returns its last snapshot.
func (s *Server) Delete(id string) (Snapshot, error) {
	r, err := s.submit(s.shardFor(id), request{op: opDelete, id: id})
	if err != nil {
		return Snapshot{}, err
	}
	return r.snap, nil
}

// List returns a snapshot of every live session, shard by shard.
func (s *Server) List() ([]Snapshot, error) {
	var out []Snapshot
	for _, sh := range s.shards {
		r, err := s.submit(sh, request{op: opList})
		if err != nil {
			return nil, err
		}
		out = append(out, r.snaps...)
	}
	return out, nil
}

// Drain gracefully stops the server: new requests are refused with
// ErrDraining, every request already admitted to a shard queue is
// finished (no in-flight step is dropped), and the shard goroutines
// exit. Idempotent; returns ctx.Err if the context expires first.
func (s *Server) Drain(ctx context.Context) error {
	s.gate.mu.Lock()
	if s.gate.closed {
		s.gate.mu.Unlock()
	} else {
		s.gate.closed = true
		s.gate.mu.Unlock()
		// The write lock above excluded every in-progress submit, so no
		// goroutine can be between its gate check and its enqueue: the
		// queues can be closed safely and everything already in them
		// will be answered.
		s.reg.Counter("server.drains").Inc()
		for _, sh := range s.shards {
			close(sh.reqs)
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// run is one shard's goroutine: it owns sh.sessions and processes its
// queue in batches until the queue is closed and empty.
func (s *Server) run(sh *shard) {
	defer s.wg.Done()
	batch := make([]*request, 0, s.cfg.BatchSize)
	for req := range sh.reqs {
		// Drain whatever else is already queued, up to the batch cap, so
		// one wakeup amortizes over many requests.
		batch = append(batch[:0], req)
		for len(batch) < s.cfg.BatchSize {
			extra, ok := tryRecv(sh.reqs)
			if !ok {
				break
			}
			batch = append(batch, extra)
		}
		s.reg.Counter("server.batches").Inc()
		s.reg.Counter("server.batched_reqs").Add(int64(len(batch)))
		s.processBatch(sh, batch)
	}
}

// tryRecv receives without blocking. A closed channel yields ok=false
// once empty, which ends the enclosing range loop on the next iteration.
func tryRecv(ch chan *request) (*request, bool) {
	select {
	case req, open := <-ch:
		return req, open
	default:
		return nil, false
	}
}

// processBatch executes a drained batch in admission order, coalescing
// adjacent step requests for the same session into one advance (each
// coalesced request still gets its own reply, carrying the post-advance
// snapshot). Adjacency — not whole-batch grouping — preserves ordering
// against deletes and inspects in the same batch.
func (s *Server) processBatch(sh *shard, batch []*request) {
	for i := 0; i < len(batch); {
		req := batch[i]
		if req.op != opStep {
			batch[i].reply <- s.apply(sh, req)
			i++
			continue
		}
		j := i + 1
		slots := req.slots
		for j < len(batch) && batch[j].op == opStep && batch[j].id == req.id {
			slots += batch[j].slots
			j++
		}
		if j > i+1 {
			s.reg.Counter("server.steps.coalesced").Add(int64(j - i - 1))
		}
		r := s.applyStep(sh, req.id, slots)
		for k := i; k < j; k++ {
			batch[k].reply <- r
		}
		i = j
	}
}

// apply executes one non-step request on the shard's session table.
func (s *Server) apply(sh *shard, req *request) reply {
	switch req.op {
	case opCreate:
		sess, err := newSession(req.id, req.cfg)
		if err != nil {
			s.reg.Counter("server.sessions.rejected").Inc()
			return reply{err: err}
		}
		sh.sessions[req.id] = sess
		s.live.Add(1)
		s.reg.Counter("server.sessions.created").Inc()
		return reply{snap: sess.snapshot(false)}
	case opRun:
		sess, ok := sh.sessions[req.id]
		if !ok {
			return reply{err: fmt.Errorf("%w: %s", ErrNotFound, req.id)}
		}
		slotsBefore, stepsBefore := sess.slots, sess.steps
		err := sess.runToEnd()
		s.reg.Counter("server.slots").Add(int64(sess.slots - slotsBefore))
		s.reg.Counter("server.steps").Add(int64(sess.steps - stepsBefore))
		if err != nil {
			return reply{err: err}
		}
		s.noteProgress(sess)
		return reply{snap: sess.snapshot(false)}
	case opInspect:
		sess, ok := sh.sessions[req.id]
		if !ok {
			return reply{err: fmt.Errorf("%w: %s", ErrNotFound, req.id)}
		}
		return reply{snap: sess.snapshot(req.trace)}
	case opDelete:
		sess, ok := sh.sessions[req.id]
		if !ok {
			return reply{err: fmt.Errorf("%w: %s", ErrNotFound, req.id)}
		}
		delete(sh.sessions, req.id)
		s.live.Add(-1)
		s.reg.Counter("server.sessions.deleted").Inc()
		return reply{snap: sess.snapshot(false)}
	case opReload:
		sess, ok := sh.sessions[req.id]
		if !ok {
			return reply{err: fmt.Errorf("%w: %s", ErrNotFound, req.id)}
		}
		st, err := sess.reload(req.topo)
		if err != nil {
			return reply{err: err}
		}
		// Fold the incremental engine's work profile into the registry so
		// /metrics exposes churn cost alongside throughput.
		s.reg.Counter("server.sessions.reloaded").Inc()
		s.reg.Counter("dyn.touched").Add(int64(st.Touched))
		s.reg.Counter("dyn.splits").Add(int64(st.Splits))
		s.reg.Counter("dyn.merges").Add(int64(st.Merges))
		s.reg.Counter("dyn.relabeled").Add(int64(st.Relabeled))
		return reply{snap: sess.snapshot(false)}
	case opList:
		snaps := make([]Snapshot, 0, len(sh.sessions))
		for _, sess := range sh.sessions {
			snaps = append(snaps, sess.snapshot(false))
		}
		return reply{snaps: snaps}
	case opBarrier:
		if req.ack != nil {
			close(req.ack)
		}
		<-req.block
		return reply{}
	default:
		return reply{err: fmt.Errorf("server: unknown op %d", req.op)}
	}
}

// applyStep advances one session by the (possibly coalesced) slot count.
func (s *Server) applyStep(sh *shard, id string, slots int) reply {
	sess, ok := sh.sessions[id]
	if !ok {
		return reply{err: fmt.Errorf("%w: %s", ErrNotFound, id)}
	}
	stepsBefore := sess.steps
	consumed, err := sess.advance(slots)
	s.reg.Counter("server.slots").Add(int64(consumed))
	s.reg.Counter("server.steps").Add(int64(sess.steps - stepsBefore))
	if err != nil {
		return reply{err: err}
	}
	s.noteProgress(sess)
	return reply{snap: sess.snapshot(false)}
}

// noteProgress folds a finished session's verdict counters into the
// registry the first time it is seen finished.
func (s *Server) noteProgress(sess *session) {
	if sess.res == nil || sess.counted {
		return
	}
	sess.counted = true
	s.reg.Counter("server.sessions.finished").Inc()
	switch {
	case sess.res.Violation != nil:
		s.reg.Counter("server.sessions.violated").Inc()
	case sess.res.Done:
		s.reg.Counter("server.sessions.converged").Inc()
	}
}
