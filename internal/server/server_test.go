package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkShard parks shard i's goroutine behind a barrier request and
// returns only once the shard is provably parked (so later enqueues
// cannot join the barrier's batch). The returned func releases it.
func parkShard(t *testing.T, s *Server, i int) (release func()) {
	t.Helper()
	block := make(chan struct{})
	ack := make(chan struct{})
	s.shards[i].reqs <- &request{op: opBarrier, block: block, ack: ack, reply: make(chan reply, 1)}
	select {
	case <-ack:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never picked up the barrier")
	}
	return func() { close(block) }
}

func drainOrFail(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func selectConfig(seed int64) SessionConfig {
	cfg := SessionConfig{Topology: "gen fig2", Kind: "select"}
	cfg.Config.Seed = seed
	return cfg
}

// diningConfig builds a session that never converges within the test
// (astronomical meal target, huge slot budget), so every advance of k
// slots consumes exactly k — the currency the no-dropped-steps test
// counts in.
func diningConfig(seed int64) SessionConfig {
	cfg := SessionConfig{Topology: "gen dining 5", Kind: "dining", Meals: 1 << 30}
	cfg.Config.Seed = seed
	cfg.Config.MaxSlots = 1 << 40
	return cfg
}

func TestSessionLifecycle(t *testing.T) {
	s := New(Config{Shards: 2})
	defer drainOrFail(t, s)

	snap, err := s.Create(selectConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Kind != "select" || snap.Finished {
		t.Fatalf("bad create snapshot: %+v", snap)
	}
	if got := s.Sessions(); got != 1 {
		t.Fatalf("Sessions() = %d, want 1", got)
	}

	snap, err = s.Step(snap.ID, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Slots != 3 {
		t.Fatalf("after Step(3): slots = %d, want 3", snap.Slots)
	}

	snap, err = s.Run(snap.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Finished {
		t.Fatalf("after Run: not finished: %+v", snap)
	}
	if !snap.Done {
		t.Fatalf("fig2 SELECT should converge, got %+v", snap)
	}
	if snap.Fingerprint == "" {
		t.Fatal("finished session must carry a fingerprint")
	}

	insp, err := s.Inspect(snap.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(insp.Schedule) != snap.Slots {
		t.Fatalf("trace length %d != slots %d", len(insp.Schedule), snap.Slots)
	}

	if _, err := s.Delete(snap.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.Sessions(); got != 0 {
		t.Fatalf("Sessions() after delete = %d, want 0", got)
	}
	if _, err := s.Step(snap.ID, 1, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after delete: err = %v, want ErrNotFound", err)
	}
	if snaps, err := s.List(); err != nil || len(snaps) != 0 {
		t.Fatalf("List() = %v, %v; want empty", snaps, err)
	}
}

func TestSessionBadConfigs(t *testing.T) {
	s := New(Config{Shards: 1})
	defer drainOrFail(t, s)
	cases := []SessionConfig{
		{},
		{Topology: "gen fig2", Kind: "mystery"},
		{Topology: "gen nope 3", Kind: "select"},
		{Topology: "gen fig2", Kind: "select", Instr: "z"},
		{Topology: "gen fig2", Kind: "select", SchedClass: "warped"},
		func() SessionConfig {
			c := selectConfig(0)
			c.Config.SchedKind = "sorted"
			return c
		}(),
		func() SessionConfig {
			c := selectConfig(0)
			c.Config.FaultClasses = "gamma-rays"
			return c
		}(),
	}
	for i, cfg := range cases {
		if _, err := s.Create(cfg); !errors.Is(err, ErrBadSession) {
			t.Errorf("case %d: err = %v, want ErrBadSession", i, err)
		}
	}
	if got := s.Sessions(); got != 0 {
		t.Fatalf("rejected creates must not register sessions, got %d", got)
	}
}

// TestDrainNoDroppedSteps hammers live sessions from concurrent clients
// while the server drains mid-flight. Every admitted step must be
// applied and answered: afterwards the server.slots counter equals the
// slot total acknowledged by successful replies, and nothing hangs.
func TestDrainNoDroppedSteps(t *testing.T) {
	s := New(Config{Shards: 4, QueueDepth: 64, BatchSize: 8})
	const sessions = 16
	ids := make([]string, sessions)
	for i := range ids {
		snap, err := s.Create(diningConfig(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}

	const clients = 8
	const slotsPerReq = 3
	var acked atomic.Int64 // slots acknowledged by successful replies
	var rejected atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.Step(ids[(c+i)%sessions], slotsPerReq, "")
				switch {
				case err == nil:
					acked.Add(slotsPerReq)
				case errors.Is(err, ErrDraining):
					rejected.Add(1)
					return
				case errors.Is(err, ErrBusy):
					rejected.Add(1)
				default:
					t.Errorf("unexpected step error: %v", err)
					return
				}
			}
		}(c)
	}

	time.Sleep(20 * time.Millisecond) // let the clients build up traffic
	drainOrFail(t, s)
	close(stop)
	wg.Wait()

	if got := s.inflight.Load(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
	applied := s.Registry().Counter("server.slots").Value()
	if applied != acked.Load() {
		t.Fatalf("server applied %d slots but clients were acknowledged %d — steps dropped or double-applied",
			applied, acked.Load())
	}
	if applied == 0 {
		t.Fatal("test never applied any steps; nothing was exercised")
	}
	t.Logf("applied=%d slots, %d rejected requests", applied, rejected.Load())
}

func TestDrainRefusesNewWorkAndIsIdempotent(t *testing.T) {
	s := New(Config{Shards: 2})
	snap, err := s.Create(selectConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	drainOrFail(t, s)
	if _, err := s.Create(selectConfig(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after drain: err = %v, want ErrDraining", err)
	}
	if _, err := s.Step(snap.ID, 1, ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("step after drain: err = %v, want ErrDraining", err)
	}
	drainOrFail(t, s) // second drain must return cleanly
}

// TestBackpressure429 fills the one shard's bounded queue behind a
// parked barrier request and checks the next request is rejected
// immediately with ErrBusy rather than queued or blocked.
func TestBackpressure429(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 2})
	defer drainOrFail(t, s)
	snap, err := s.Create(diningConfig(0))
	if err != nil {
		t.Fatal(err)
	}

	// Park the shard goroutine behind a barrier.
	release := parkShard(t, s, 0)
	deadline := time.Now().Add(5 * time.Second)

	// Fill the queue to capacity with steps that cannot be served yet.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Step(snap.ID, 1, "")
			errs <- err
		}()
	}
	for len(s.shards[0].reqs) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next request must bounce with ErrBusy.
	if _, err := s.Step(snap.ID, 1, ""); !errors.Is(err, ErrBusy) {
		t.Fatalf("step against full queue: err = %v, want ErrBusy", err)
	}
	if got := s.Registry().Counter("server.reject.busy").Value(); got == 0 {
		t.Fatal("busy rejection not counted")
	}

	// Release the shard; the queued steps must now complete.
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("queued step failed after release: %v", err)
		}
	}
}

func TestTenantRateLimit(t *testing.T) {
	clock := time.Unix(1000, 0)
	s := New(Config{
		Shards:     1,
		RatePerSec: 1,
		Burst:      2,
		Now:        func() time.Time { return clock },
	})
	defer drainOrFail(t, s)

	mk := func(tenant string) error {
		cfg := selectConfig(0)
		cfg.Tenant = tenant
		_, err := s.Create(cfg)
		return err
	}
	// Burst of 2, then the bucket is dry.
	if err := mk("alice"); err != nil {
		t.Fatal(err)
	}
	if err := mk("alice"); err != nil {
		t.Fatal(err)
	}
	if err := mk("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third create: err = %v, want ErrRateLimited", err)
	}
	// Another tenant has its own bucket.
	if err := mk("bob"); err != nil {
		t.Fatalf("bob should not share alice's bucket: %v", err)
	}
	// One second refills one token.
	clock = clock.Add(time.Second)
	if err := mk("alice"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := mk("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("bucket should be dry again, got %v", err)
	}
	if got := s.Registry().Counter("server.reject.ratelimit").Value(); got != 2 {
		t.Fatalf("ratelimit rejections = %d, want 2", got)
	}
}

// TestSessionReplayDeterminism creates equal-seeded sessions — one
// advanced in ragged increments, one run in a single stroke — and
// requires byte-identical schedule traces, fault logs, and final
// fingerprints. Run under -race -count=2 in CI.
func TestSessionReplayDeterminism(t *testing.T) {
	s := New(Config{Shards: 4})
	defer drainOrFail(t, s)

	mk := func() SessionConfig {
		cfg := SessionConfig{Topology: "gen dining 6", Kind: "dining", Meals: 2}
		cfg.Config.Seed = 42
		cfg.Config.SchedKind = "shuffled"
		cfg.Config.FaultClasses = "lockdrop"
		cfg.Config.MaxSlots = 4000
		return cfg
	}
	a, err := s.Create(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create(mk())
	if err != nil {
		t.Fatal(err)
	}

	// Ragged advance of a: primes give uneven batch boundaries.
	for _, k := range []int{1, 2, 3, 5, 7, 11, 13} {
		if _, err := s.Step(a.ID, k, ""); err != nil {
			t.Fatal(err)
		}
	}
	fa, err := s.Run(a.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := s.Run(b.ID, "")
	if err != nil {
		t.Fatal(err)
	}

	ta, err := s.Inspect(a.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.Inspect(b.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Fingerprint != fb.Fingerprint {
		t.Fatal("equal-seeded sessions ended in different states")
	}
	if fmt.Sprint(ta.Schedule) != fmt.Sprint(tb.Schedule) {
		t.Fatalf("schedule traces diverge:\n a: %v\n b: %v", ta.Schedule, tb.Schedule)
	}
	if fmt.Sprint(ta.Faults) != fmt.Sprint(tb.Faults) {
		t.Fatalf("fault logs diverge:\n a: %v\n b: %v", ta.Faults, tb.Faults)
	}
	if fa.Slots != fb.Slots || fa.Steps != fb.Steps || fa.Done != fb.Done {
		t.Fatalf("outcomes diverge: %+v vs %+v", fa, fb)
	}
	if len(ta.Schedule) == 0 || len(ta.Faults) == 0 {
		t.Fatalf("want a non-trivial trace with faults, got %d slots / %d faults",
			len(ta.Schedule), len(ta.Faults))
	}
}

func TestMaxSessions(t *testing.T) {
	s := New(Config{Shards: 1, MaxSessions: 2})
	defer drainOrFail(t, s)
	if _, err := s.Create(selectConfig(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(selectConfig(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(selectConfig(2)); !errors.Is(err, ErrFull) {
		t.Fatalf("third create: err = %v, want ErrFull", err)
	}
	// Deleting frees capacity.
	snaps, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(snaps[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(selectConfig(3)); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestStepCoalescing checks that step requests for one session admitted
// in one batch are merged into a single advance: with a parked shard,
// three queued steps must come back with one shared batch index.
func TestStepCoalescing(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8})
	defer drainOrFail(t, s)
	snap, err := s.Create(diningConfig(0))
	if err != nil {
		t.Fatal(err)
	}

	release := parkShard(t, s, 0)
	deadline := time.Now().Add(5 * time.Second)

	var wg sync.WaitGroup
	snaps := make(chan Snapshot, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.Step(snap.ID, 2, "")
			if err != nil {
				t.Errorf("step: %v", err)
				return
			}
			snaps <- got
		}()
	}
	for len(s.shards[0].reqs) != 3 {
		if time.Now().After(deadline) {
			t.Fatal("steps never queued")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	close(snaps)

	for got := range snaps {
		// All three were coalesced into one 6-slot advance and share its
		// post-advance snapshot.
		if got.Slots != 6 || got.Batches != 1 {
			t.Fatalf("coalesced snapshot = slots %d batches %d, want 6 slots in 1 batch", got.Slots, got.Batches)
		}
	}
	if got := s.Registry().Counter("server.steps.coalesced").Value(); got != 2 {
		t.Fatalf("coalesced counter = %d, want 2", got)
	}
}

// TestSessionReloadRejectedKeepsEngine pins that a reload the engine
// rejects leaves the session's engine as it was: the next reload reports
// the same relabel stats as in a session that never saw the rejected one.
func TestSessionReloadRejectedKeepsEngine(t *testing.T) {
	s := New(Config{Shards: 1})
	defer drainOrFail(t, s)

	// A dining ring of 4 the harness accepts, but whose processor fork3
	// takes the id of a live variable of dining 4. The diff would add f9
	// and rewire phil0 before it reached fork3.
	const rejected = `names left right
var fork0
var fork1
var fork2
var f9
proc phil0 left=f9 right=fork0
proc phil1 left=fork0 right=fork1
proc phil2 left=fork1 right=fork2
proc fork3 left=fork2 right=f9
`
	reloadBack := func(reject bool) *RelabelStats {
		t.Helper()
		snap, err := s.Create(SessionConfig{Topology: "gen dining 3", Kind: "dining", Meals: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Reload(snap.ID, "gen dining 4", ""); err != nil {
			t.Fatal(err)
		}
		if reject {
			if _, err := s.Reload(snap.ID, rejected, ""); !errors.Is(err, ErrBadSession) {
				t.Fatalf("reload with a kind-changing id: err = %v, want ErrBadSession", err)
			}
		}
		snap, err = s.Reload(snap.ID, "gen dining 3", "")
		if err != nil {
			t.Fatal(err)
		}
		return snap.Relabel
	}
	clean, afterReject := reloadBack(false), reloadBack(true)
	if clean == nil || afterReject == nil || *afterReject != *clean {
		t.Fatalf("reload back after a rejected reload = %+v, want %+v", afterReject, clean)
	}
}

func TestSessionTopologyReload(t *testing.T) {
	s := New(Config{Shards: 2})
	defer drainOrFail(t, s)

	cfg := SessionConfig{Topology: "gen dining 6", Kind: "dining", Meals: 1}
	cfg.Config.MaxSlots = 1 << 20
	snap, err := s.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := snap.ID
	if snap.Procs != 6 || snap.Reloads != 0 || snap.Relabel != nil {
		t.Fatalf("bad create snapshot: %+v", snap)
	}
	if _, err := s.Step(id, 5, ""); err != nil {
		t.Fatal(err)
	}

	snap, err = s.Reload(id, "gen dining 9", "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Procs != 9 {
		t.Fatalf("after reload: procs = %d, want 9", snap.Procs)
	}
	if snap.Slots != 0 {
		t.Fatalf("reload must restart the run: slots = %d", snap.Slots)
	}
	if snap.Reloads != 1 || snap.Relabel == nil {
		t.Fatalf("reload stats missing: %+v", snap)
	}
	// The dining ring stays a ring: one processor class, one variable class, and
	// growing it must not split anything.
	if snap.Relabel.Classes != 2 || snap.Relabel.Splits != 0 {
		t.Fatalf("dining 6 → dining 9 relabel = %+v, want 2 classes, 0 splits", snap.Relabel)
	}
	if snap.Relabel.Touched == 0 {
		t.Fatalf("reload touched no slots: %+v", snap.Relabel)
	}

	// The reloaded session still runs to a verdict on the new topology.
	snap, err = s.Run(id, "")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Finished || !snap.Done {
		t.Fatalf("reloaded dining 9 session should converge: %+v", snap)
	}
	insp, err := s.Inspect(id, false)
	if err != nil {
		t.Fatal(err)
	}
	if insp.Reloads != 1 || insp.Relabel == nil {
		t.Fatalf("inspect lost reload stats: %+v", insp)
	}

	// Incremental work profile lands in the /metrics registry.
	if got := s.Registry().Counter("server.sessions.reloaded").Value(); got != 1 {
		t.Fatalf("server.sessions.reloaded = %d, want 1", got)
	}
	if got := s.Registry().Counter("dyn.touched").Value(); got == 0 {
		t.Fatal("dyn.touched counter never incremented")
	}

	// Failure modes: unknown session, mismatched names, bad syntax. None
	// may disturb the session.
	if _, err := s.Reload("nope", "gen ring 3", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reload unknown id: err = %v, want ErrNotFound", err)
	}
	if _, err := s.Reload(id, "gen star 4", ""); !errors.Is(err, ErrBadSession) {
		t.Fatalf("reload with mismatched names: err = %v, want ErrBadSession", err)
	}
	if _, err := s.Reload(id, "nonsense", ""); !errors.Is(err, ErrBadSession) {
		t.Fatalf("reload with bad syntax: err = %v, want ErrBadSession", err)
	}
	insp, err = s.Inspect(id, false)
	if err != nil {
		t.Fatal(err)
	}
	if insp.Procs != 9 || insp.Reloads != 1 {
		t.Fatalf("failed reloads disturbed the session: %+v", insp)
	}
}
