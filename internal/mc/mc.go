// Package mc is an explicit-state model checker over schedule
// nondeterminism: it explores every reachable machine state under every
// finite schedule (breadth-first, deduplicated by canonical state
// fingerprints) and checks safety predicates.
//
// Safety over all finite schedules is exactly the right notion for the
// paper's selection problem: every finite step sequence is a prefix of
// some fair schedule, so Uniqueness and Stability under fair (or
// bounded-fair) schedules hold iff no reachable state violates them. The
// checker additionally finds stuck terminal components — sets of states
// (deadlocks or spin livelocks) that, once entered, can never be left and
// never reach a good state — which is how dining-philosopher deadlocks
// are detected. Violating schedules are reconstructed; Theorem 1's
// adversary (the FLP construction) falls out as a reachability witness.
//
// The engine is built for scale and observability:
//
//   - The visited set is collapse-compressed: a component table interns
//     each processor frame's and variable's canonical window (the units
//     of machine.AppendStateKey) as a dense uint32 id, and the hashed
//     index (stateIndex, mirroring partition.SigTable) stores each state
//     as its fixed-width vector of ids. A successor copies its parent's
//     vector and re-interns only the components its step touched
//     (machine.Touched), and Options.HotIndexBytes spills cold vectors
//     to disk.
//   - Opt-in symmetry reduction (Options.SymmetryReduce) dedups states
//     modulo the system's automorphism group — the orbit-quotient
//     construction the paper's symmetry results suggest.
//   - There is one engine: each BFS level is expanded and merged one
//     state at a time on the calling goroutine, so verdicts, witness
//     schedules and counters are deterministic by construction.
//   - Stats (states/sec, depth, dedup hits, memory estimate, group
//     order) are surfaced through Result and a progress callback, and
//     time/memory/state budgets can degrade gracefully into a partial
//     Result instead of an error.
package mc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"simsym/internal/autgrp"
	"simsym/internal/canon"
	"simsym/internal/machine"
	"simsym/internal/obs"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrBudget = errors.New("mc: budget exhausted before closure")
)

// StatePredicate inspects a state; a non-empty return is a violation
// description.
type StatePredicate func(m *machine.Machine) string

// TransitionPredicate inspects a transition (before --proc--> after); a
// non-empty return is a violation description. Transition predicates see
// every scheduled step, including stutter steps whose target state equals
// the source (self-loops are excluded only from the successor graph).
type TransitionPredicate func(before, after *machine.Machine, proc int) string

// Options configures a check.
type Options struct {
	// MaxStates bounds exploration; 0 means the default (200_000). The
	// checker explores at most MaxStates distinct states: exhausting the
	// budget yields a partial Result carrying exactly MaxStates states.
	MaxStates int
	// MaxDuration bounds wall-clock exploration time; 0 means unbounded.
	MaxDuration time.Duration
	// MaxMemBytes bounds the checker's estimated memory footprint
	// (visited index plus exploration bookkeeping); 0 means unbounded.
	MaxMemBytes int64
	// Partial turns budget exhaustion (states, time, or memory) into a
	// graceful partial Result — Complete=false, Exhausted naming the
	// spent budget, nil error — instead of ErrBudget. Absence of a
	// violation in a partial result is bounded evidence, not proof.
	Partial bool
	// SymmetryReduce dedups states modulo the automorphism group of the
	// system (computed via autgrp): each newly discovered state is
	// canonicalized to the least component-id vector over its orbit, so
	// only one representative per orbit is explored. Sound when every
	// predicate is invariant under the group — true for the shipped
	// predicates (Uniqueness, Stability, stuck/halt/eating predicates),
	// which quantify over all processors. Witness schedules remain
	// genuine: stored states are reachable states, not permuted images.
	SymmetryReduce bool
	// AutLimit bounds automorphism enumeration for SymmetryReduce;
	// 0 means the autgrp default.
	AutLimit int
	// HotIndexBytes > 0 caps the visited index's in-memory vector arena:
	// when the hot tier outgrows the cap, cold arena chunks spill FIFO to
	// a temp file under SpillDir at level boundaries and are read back
	// transparently on dedup probes against deep history. The cap
	// governs only state-vector storage; the component table, the bucket
	// table and node bookkeeping stay resident (MaxMemBytes still bounds
	// the estimated total, which excludes spilled bytes). Verdicts,
	// witnesses and counters do not depend on the cap.
	HotIndexBytes int64
	// SpillDir is the directory for the spill file (os.TempDir() when
	// empty); the file is removed when the check returns.
	SpillDir string
	// Progress, when non-nil, receives a Stats snapshot roughly every
	// ProgressEvery explored states and once when the check finishes.
	Progress func(Stats)
	// ProgressEvery is the state interval between Progress callbacks;
	// 0 means the default (16384).
	ProgressEvery int
	// Obs, when non-nil, receives structured events and metrics: an
	// mc.check phase, one KindStateExpansion event per completed BFS
	// level, counters mirroring Stats, and the final verdict. Events are
	// deterministic (no wall-clock payloads); durations go to the
	// mc.check histogram only. A nil recorder costs one pointer check.
	Obs *obs.Recorder
	// Ctx, when non-nil, cancels exploration: cancellation is treated as
	// an exhausted budget (Exhausted="canceled"), degrading into a
	// partial Result under Options.Partial like any other budget.
	Ctx context.Context
	// States are violations when any StatePredicate flags them.
	StatePreds []StatePredicate
	// Transitions are violations when any TransitionPredicate flags them.
	TransPreds []TransitionPredicate
	// StuckBad, when non-nil, is evaluated on every state; after the
	// state space closes, a terminal strongly-connected component all of
	// whose states are flagged is reported as a violation. This catches
	// both quiescent deadlocks and busy-waiting livelocks: once inside
	// such a component, no schedule can ever reach an unflagged state.
	StuckBad StatePredicate
}

// DefaultMaxStates is the default exploration budget.
const DefaultMaxStates = 200_000

// DefaultProgressEvery is the default Progress callback interval.
const DefaultProgressEvery = 16384

// Violation describes a found counterexample.
type Violation struct {
	// Reason is the predicate's description.
	Reason string
	// Schedule is a step sequence from the initial state reaching the
	// violating state (for transition violations, the final step is the
	// violating one).
	Schedule []int
}

// Stats is the checker's observability surface, exposed through Result
// and the Progress callback.
type Stats struct {
	// StatesExplored counts distinct states visited (orbit
	// representatives under symmetry reduction).
	StatesExplored int
	// Transitions counts examined non-stutter transitions, including
	// those into already-visited states.
	Transitions int64
	// DedupHits counts transitions into already-visited states.
	DedupHits int64
	// SelfLoops counts stutter steps (successor state equals source),
	// which are excluded from the successor graph.
	SelfLoops int64
	// Depth is the BFS depth reached (number of frontier levels begun).
	Depth int
	// PeakFrontier is the widest BFS level.
	PeakFrontier int
	// PeakMemBytes estimates the peak memory held by the visited index
	// and exploration bookkeeping (machines pending expansion excluded).
	PeakMemBytes int64
	// GroupOrder is the automorphism count used for symmetry reduction
	// (1 when reduction is off or the group is trivial).
	GroupOrder int
	// StoredKeyBytes and LogicalKeyBytes measure key compression:
	// StoredKeyBytes is what the visited set stores — 4 bytes per
	// component per state for the id vectors, plus the component
	// table's distinct windows — and LogicalKeyBytes is what the full
	// state keys (machine.AppendStateKey) would have occupied.
	StoredKeyBytes  int64
	LogicalKeyBytes int64
	// SpilledBytes counts visited-index bytes resident on disk (their
	// peak; spilled bytes are excluded from PeakMemBytes).
	SpilledBytes int64
	// Elapsed is the wall-clock time spent exploring so far.
	Elapsed time.Duration
	// StatesPerSec is StatesExplored / Elapsed.
	StatesPerSec float64
}

// Result summarizes a check.
type Result struct {
	// StatesExplored counts distinct states visited.
	StatesExplored int
	// Complete is true when the reachable state space was exhausted
	// within budget, making the absence of violations a proof.
	Complete bool
	// Exhausted names the budget that ended an incomplete exploration:
	// "states", "time", "memory", or "canceled"; empty otherwise.
	Exhausted string
	// Violation is nil if no predicate fired.
	Violation *Violation
	// Stats carries the engine's observability counters.
	Stats Stats
}

// node is interned exploration bookkeeping.
type node struct {
	parent int // index of parent node; -1 for root
	step   int // processor stepped to reach this state
	stuck  string
	succs  []int
}

// succInfo is one successor's dedup key hash and whether the step was a
// stutter (self-loop).
type succInfo struct {
	hash     uint64
	selfLoop bool
}

// batch is the per-state expansion output: one successor machine per
// processor plus its vectors, at fixed strides. The one batch is reused
// for every expanded state, so steady-state expansion does not allocate
// per state.
//
// pool holds the sibling clones expand steps in lockstep: CloneInto
// overwrites a slot with an O(1) snapshot of the parent (no heap machine
// per child), and only children merge decides to keep are copied into
// slab storage (push). raw[p·W:] is successor p's vector; keys[p·W:] is
// its dedup key — the orbit's least vector under symmetry reduction, raw
// itself otherwise.
type batch struct {
	pool  []machine.Machine
	raw   []uint32
	keys  []uint32
	succs []succInfo
}

type checker struct {
	opts          Options
	nProcs        int
	maxStates     int
	progressEvery int
	deadline      time.Time
	start         time.Time
	width         int   // W: components per state vector
	permAt        []int // non-identity automorphisms, W positions each (see minimize)
	idx           *stateIndex
	nodes         []node
	// level and next are the current and next BFS frontiers. States are
	// pushed in node order, so a frontier's node ids are contiguous:
	// level[i] is node levelStart+i. levelVecs and nextVecs hold the
	// frontiers' raw (unpermuted) vectors, W per state in frontier order:
	// expansion reads the parent's vector here, never from the index,
	// which stores permuted representatives and may have spilled them.
	level, next         []*machine.Machine
	levelVecs, nextVecs []uint32
	levelStart          int
	res                 *Result
	stats               *Stats
	sinceProgress       int
	batch               batch
	logicalKeyBytes     int64 // full key bytes of the stored states

	// succArena backs every node's succs list. A node's successors are
	// committed contiguously (merge walks (frontier index, processor) in
	// order, one node at a time), so each list is a window re-sliced from
	// the arena tail after each append — one amortized allocation for the
	// whole graph instead of one per node.
	succArena []int

	// slab backs every machine push keeps (machine.Keep): push keeps them
	// one at a time on the checking goroutine, so one slab serves all of
	// them without synchronization, and Check recycles it at each level
	// boundary.
	slab machine.Slab
}

// appendSucc records id as curIdx's next successor. Relies on the
// commit-order invariant above: a node's window is always the arena
// tail while it is being appended to. A growth realloc copies the whole
// arena, so re-slicing by index stays correct; stale windows in the old
// backing are never mutated.
func (c *checker) appendSucc(curIdx, id int) {
	nd := &c.nodes[curIdx]
	start := len(c.succArena) - len(nd.succs)
	c.succArena = append(c.succArena, id)
	nd.succs = c.succArena[start:len(c.succArena):len(c.succArena)]
}

// Check explores all schedules of the machine produced by factory().
// The factory must return a fresh machine in its initial state on every
// call (Check calls it once).
//
// On budget exhaustion Check returns the partial Result alongside
// ErrBudget (or with a nil error when Options.Partial is set); on
// machine execution errors the Result is nil.
func Check(factory func() (*machine.Machine, error), opts Options) (*Result, error) {
	m0, err := factory()
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	width := m0.NumProcs() + m0.NumVars()
	c := &checker{
		opts:          opts,
		nProcs:        m0.NumProcs(),
		width:         width,
		maxStates:     opts.MaxStates,
		progressEvery: opts.ProgressEvery,
		start:         time.Now(),
		res:           &Result{},
		idx:           newStateIndex(width, opts.HotIndexBytes, opts.SpillDir),
	}
	defer c.idx.release()
	c.stats = &c.res.Stats
	c.stats.GroupOrder = 1
	if c.maxStates <= 0 {
		c.maxStates = DefaultMaxStates
	}
	if c.progressEvery <= 0 {
		c.progressEvery = DefaultProgressEvery
	}
	if opts.MaxDuration > 0 {
		c.deadline = c.start.Add(opts.MaxDuration)
	}
	if opts.SymmetryReduce {
		auts, err := autgrp.Automorphisms(m0.System(), autgrp.Options{Limit: opts.AutLimit})
		if err != nil {
			return nil, fmt.Errorf("mc: symmetry: %w", err)
		}
		c.stats.GroupOrder = len(auts)
		for _, a := range auts {
			if isIdentity(a) {
				continue
			}
			for _, p := range a.ProcPerm {
				c.permAt = append(c.permAt, p)
			}
			for _, v := range a.VarPerm {
				c.permAt = append(c.permAt, c.nProcs+v)
			}
		}
	}
	b := &c.batch
	b.pool = make([]machine.Machine, c.nProcs)
	b.raw = make([]uint32, c.nProcs*width)
	b.keys = b.raw
	if len(c.permAt) > 0 {
		b.keys = make([]uint32, c.nProcs*width)
	}
	b.succs = make([]succInfo, c.nProcs)

	// Root. The initial state is fixed by every automorphism (they
	// preserve initial values), but canonicalize anyway for uniformity.
	opts.Obs.PhaseStart("mc.check")
	raw, key := b.raw[:width], b.keys[:width]
	if err := c.idx.comps.vector(raw, m0); err != nil {
		return nil, err
	}
	c.minimize(key, raw)
	rootIdx := c.push(m0, raw, key, canon.HashTokens(key), -1, -1)
	if v := c.checkState(m0, rootIdx); v != nil {
		c.res.Violation = v
		return c.finish(nil)
	}

	c.level, c.next = c.next, nil
	c.levelVecs, c.nextVecs = c.nextVecs, nil
	for len(c.level) > 0 {
		c.stats.Depth++
		if len(c.level) > c.stats.PeakFrontier {
			c.stats.PeakFrontier = len(c.level)
		}
		if done, err := c.runLevel(); done {
			return c.finish(err)
		}
		if opts.Obs.Enabled() {
			opts.Obs.StateExpansion("mc", c.res.StatesExplored, c.stats.Depth, c.stats.Transitions)
		}
		// The level boundary is the one point where merge holds no
		// zero-copy slice of a hot chunk, so it is the safe place to
		// migrate cold index chunks to disk.
		freed, serr := c.idx.maybeSpill()
		if serr != nil {
			// A failed spill (disk full, unwritable dir) ends exploration,
			// but everything explored so far is intact in memory — degrade
			// to a partial result when the caller opted in, exactly like a
			// budget exhaustion.
			c.res.Complete = false
			c.res.Exhausted = "spill"
			if c.opts.Partial {
				return c.finish(nil)
			}
			return c.finish(serr)
		}
		if freed > 0 && opts.Obs.Enabled() {
			opts.Obs.Spill("mc", freed, c.idx.spilledBytes, c.idx.spillFlushes)
		}
		c.levelStart = len(c.nodes) - len(c.next)
		c.level, c.next = c.next, c.level[:0]
		c.levelVecs, c.nextVecs = c.nextVecs, c.levelVecs[:0]
		// Every machine of the just-expanded level is dead (runLevel nils
		// the level slots as it goes), so the slab generations advance:
		// chunks retired two boundaries ago are reused for the machines
		// the next level will keep.
		c.slab.Recycle()
	}
	c.res.Complete = true

	if c.opts.StuckBad != nil {
		if idx, reason := findStuckComponent(c.nodes); idx >= 0 {
			c.res.Violation = &Violation{
				Reason:   "stuck: " + reason,
				Schedule: c.scheduleTo(idx),
			}
		}
	}
	return c.finish(nil)
}

// finish finalizes stats, emits the last progress snapshot, and mirrors
// the exploration counters into the Result.
func (c *checker) finish(err error) (*Result, error) {
	c.stats.StatesExplored = c.res.StatesExplored
	c.stats.Elapsed = time.Since(c.start)
	if secs := c.stats.Elapsed.Seconds(); secs > 0 {
		c.stats.StatesPerSec = float64(c.res.StatesExplored) / secs
	}
	if mem := c.memEstimate(); mem > c.stats.PeakMemBytes {
		c.stats.PeakMemBytes = mem
	}
	c.stats.StoredKeyBytes = c.idx.storedBytes()
	c.stats.LogicalKeyBytes = c.logicalKeyBytes
	c.stats.SpilledBytes = c.idx.spilledBytes
	if c.opts.Progress != nil {
		c.opts.Progress(*c.stats)
	}
	if rec := c.opts.Obs; rec.Enabled() {
		rec.Count("mc.checks", 1)
		rec.Count("mc.states", int64(c.res.StatesExplored))
		rec.Count("mc.transitions", c.stats.Transitions)
		rec.Count("mc.dedup_hits", c.stats.DedupHits)
		rec.Count("mc.self_loops", c.stats.SelfLoops)
		if c.opts.HotIndexBytes > 0 {
			// Spill-mode telemetry only: the emissions below would
			// perturb the deterministic event stream golden-file tests
			// pin for the in-memory configuration.
			rec.Count("mc.stored_key_bytes", c.stats.StoredKeyBytes)
			rec.Count("mc.logical_key_bytes", c.stats.LogicalKeyBytes)
			rec.Count("mc.spilled_bytes", c.stats.SpilledBytes)
		}
		rec.Stat("mc.depth", int64(c.stats.Depth))
		rec.Stat("mc.peak_frontier", int64(c.stats.PeakFrontier))
		rec.Observe("mc.check", c.stats.Elapsed)
		detail := "state space closed"
		switch {
		case c.res.Violation != nil:
			detail = c.res.Violation.Reason
		case c.res.Exhausted != "":
			detail = "budget exhausted: " + c.res.Exhausted
		}
		rec.Verdict("mc.check", c.res.Violation == nil, detail)
		rec.PhaseEnd("mc.check", int64(c.res.StatesExplored))
	}
	return c.res, err
}

// runLevel expands and merges the current level one state at a time, in
// frontier order, reusing a single batch.
func (c *checker) runLevel() (bool, error) {
	for i, cur := range c.level {
		c.level[i] = nil // allow GC of expanded states
		if err := c.expand(cur, c.levelVecs[i*c.width:(i+1)*c.width]); err != nil {
			return true, err
		}
		if done, err := c.merge(c.levelStart+i, cur); done {
			return true, err
		}
	}
	return false, nil
}

// expand computes all successors of cur into c.batch: cloned machines
// plus their vectors and dedup-key hashes. Predicates never run here.
//
// This is the batch-stepping hot loop: each sibling clone stepped out of
// the pool starts with an empty touched list and no fingerprint cache,
// so it reports exactly the ≤1 frame and ≤1 variable its step touched
// (machine.Touched). Its vector is the parent's with just those
// re-interned — no other component is encoded, copied or read.
func (c *checker) expand(cur *machine.Machine, curVec []uint32) error {
	b := &c.batch
	w := c.width
	for p := 0; p < c.nProcs; p++ {
		next := &b.pool[p]
		cur.CloneInto(next)
		if err := next.Step(p); err != nil {
			return fmt.Errorf("mc: stepping %d: %w", p, err)
		}
		raw := b.raw[p*w : (p+1)*w]
		if err := c.idx.comps.childVector(raw, curVec, next); err != nil {
			return err
		}
		si := &b.succs[p]
		si.selfLoop = slices.Equal(raw, curVec)
		if !si.selfLoop {
			key := b.keys[p*w : (p+1)*w]
			c.minimize(key, raw)
			si.hash = canon.HashTokens(key)
		}
	}
	return nil
}

// minimize writes into key the least image of raw, in lexicographic id
// order, over the automorphism group — the orbit-canonical dedup key.
// Automorphism k maps position i to the component at permAt[k·W+i]
// (processors by ProcPerm, variables by VarPerm), the relabeling
// machine.AppendStateKey's procAt/varAt apply to keys. Without symmetry
// reduction key aliases raw and this is a no-op.
func (c *checker) minimize(key, raw []uint32) {
	if len(c.permAt) == 0 {
		return
	}
	copy(key, raw)
	for k := 0; k < len(c.permAt); k += c.width {
		at := c.permAt[k : k+c.width]
		for i, src := range at {
			x := raw[src]
			if x == key[i] {
				continue
			}
			if x < key[i] {
				for j := i; j < len(at); j++ {
					key[j] = raw[at[j]]
				}
			}
			break
		}
	}
}

// merge folds the expanded batch of cur into the exploration: transition
// predicates (before the self-loop skip — stutter steps are visible to
// predicates, excluded only from the successor graph), dedup against the
// hashed index, budget checks before each push, state predicates on new
// states.
func (c *checker) merge(curIdx int, cur *machine.Machine) (bool, error) {
	b := &c.batch
	w := c.width
	for p, si := range b.succs {
		next := &b.pool[p]
		for _, pred := range c.opts.TransPreds {
			if reason := pred(cur, next, p); reason != "" {
				c.res.Violation = &Violation{
					Reason:   reason,
					Schedule: append(c.scheduleTo(curIdx), p),
				}
				return true, nil
			}
		}
		if si.selfLoop {
			c.stats.SelfLoops++
			continue
		}
		c.stats.Transitions++
		key := b.keys[p*w : (p+1)*w]
		if id, ok, err := c.idx.lookupHashed(key, si.hash); err != nil {
			return true, err
		} else if ok {
			c.stats.DedupHits++
			c.appendSucc(curIdx, int(id-c.idx.baseID))
			continue
		} else if c.res.StatesExplored >= c.maxStates {
			// Budget check strictly before the push: the checker
			// explores exactly MaxStates states, never MaxStates+1.
			return true, c.exhaust("states")
		} else {
			id := c.push(next, b.raw[p*w:(p+1)*w], key, si.hash, curIdx, p)
			c.appendSucc(curIdx, id)
			if v := c.checkState(next, id); v != nil {
				c.res.Violation = v
				return true, nil
			}
		}
		if stop, err := c.pollBudgets(); stop {
			return true, err
		}
	}
	return false, nil
}

// push commits a new state: it indexes key (the state's dedup vector)
// and appends the state's node, frontier slot and raw vector, stuck
// flag, and the explored-state counters. It returns the node index,
// which equals the index id minus baseID because ids are dense and
// assigned in the same order as nodes.
//
// The frontier holds a Keep copy of m — made once per kept state, never
// per candidate — with private frame and variable arrays in the current
// slab generation, so m itself (a pool slot, or the root) stays free for
// reuse, and each of the copy's children reports only its own step's
// components. No window is encoded: the vector already names every
// component.
func (c *checker) push(m *machine.Machine, raw, key []uint32, hash uint64, parent, step int) int {
	c.idx.insert(key, hash)
	c.logicalKeyBytes += c.idx.comps.keyLen(raw)
	c.nextVecs = append(c.nextVecs, raw...)
	m = m.Keep(&c.slab)
	stuck := ""
	if c.opts.StuckBad != nil {
		stuck = c.opts.StuckBad(m)
	}
	id := len(c.nodes)
	c.nodes = append(c.nodes, node{parent: parent, step: step, stuck: stuck})
	c.next = append(c.next, m)
	c.res.StatesExplored++
	c.sinceProgress++
	return id
}

// pollBudgets emits progress snapshots and enforces the time and memory
// budgets. Called after each push.
func (c *checker) pollBudgets() (bool, error) {
	if c.sinceProgress >= c.progressEvery {
		c.sinceProgress = 0
		if mem := c.memEstimate(); mem > c.stats.PeakMemBytes {
			c.stats.PeakMemBytes = mem
		}
		if c.opts.Progress != nil {
			c.stats.StatesExplored = c.res.StatesExplored
			c.stats.Elapsed = time.Since(c.start)
			if secs := c.stats.Elapsed.Seconds(); secs > 0 {
				c.stats.StatesPerSec = float64(c.res.StatesExplored) / secs
			}
			c.opts.Progress(*c.stats)
		}
	}
	if c.opts.MaxMemBytes > 0 {
		if mem := c.memEstimate(); mem > c.opts.MaxMemBytes {
			if mem > c.stats.PeakMemBytes {
				c.stats.PeakMemBytes = mem
			}
			return true, c.exhaust("memory")
		}
	}
	if c.res.StatesExplored%64 == 0 {
		if !c.deadline.IsZero() && time.Now().After(c.deadline) {
			return true, c.exhaust("time")
		}
		if c.opts.Ctx != nil && c.opts.Ctx.Err() != nil {
			return true, c.exhaust("canceled")
		}
	}
	return false, nil
}

// memEstimate approximates the checker's resident footprint: the visited
// index plus per-node bookkeeping and successor edges. Capacities, not
// lengths: the nodes slice's grown backing array is real memory whether
// or not it is full yet.
func (c *checker) memEstimate() int64 {
	const nodeOverhead = 80 // node struct + slice headers, amortized
	return c.idx.memBytes() + int64(cap(c.nodes))*nodeOverhead + c.stats.Transitions*8
}

// exhaust records which budget ended the run; with Options.Partial the
// partial Result is returned without error.
func (c *checker) exhaust(kind string) error {
	c.res.Exhausted = kind
	c.res.Complete = false
	if c.opts.Partial {
		return nil
	}
	return fmt.Errorf("%w (%s): %d states", ErrBudget, kind, c.res.StatesExplored)
}

func (c *checker) scheduleTo(idx int) []int {
	var rev []int
	for idx >= 0 && c.nodes[idx].parent >= 0 {
		rev = append(rev, c.nodes[idx].step)
		idx = c.nodes[idx].parent
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func (c *checker) checkState(m *machine.Machine, idx int) *Violation {
	for _, pred := range c.opts.StatePreds {
		if reason := pred(m); reason != "" {
			return &Violation{Reason: reason, Schedule: c.scheduleTo(idx)}
		}
	}
	return nil
}

// isIdentity reports whether perm maps every node to itself.
func isIdentity(perm system.Permutation) bool {
	for i, v := range perm.ProcPerm {
		if v != i {
			return false
		}
	}
	for i, v := range perm.VarPerm {
		if v != i {
			return false
		}
	}
	return true
}

// findStuckComponent runs Tarjan's SCC algorithm (iteratively) and
// returns a representative node of the first terminal SCC whose states
// are all flagged stuck, or (-1, ""). Under symmetry reduction the graph
// is the orbit quotient; a terminal all-bad component there corresponds
// to one in the full graph because the stuck predicate is
// automorphism-invariant.
func findStuckComponent(nodes []node) (int, string) {
	n := len(nodes)
	const unvisited = -1
	indexOf := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range indexOf {
		indexOf[i] = unvisited
		comp[i] = -1
	}
	var stack []int
	counter := 0
	nComps := 0

	type frame struct {
		v, childPos int
	}
	for start := 0; start < n; start++ {
		if indexOf[start] != unvisited {
			continue
		}
		callStack := []frame{{v: start}}
		indexOf[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			v := fr.v
			if fr.childPos < len(nodes[v].succs) {
				w := nodes[v].succs[fr.childPos]
				fr.childPos++
				if indexOf[w] == unvisited {
					indexOf[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] {
					if indexOf[w] < low[v] {
						low[v] = indexOf[w]
					}
				}
				continue
			}
			// Post-visit.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == indexOf[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComps
					if w == v {
						break
					}
				}
				nComps++
			}
		}
	}

	// A component is terminal when no edge leaves it; it is stuck-bad
	// when every member is flagged.
	terminal := make([]bool, nComps)
	allBad := make([]bool, nComps)
	reason := make([]string, nComps)
	repr := make([]int, nComps)
	for c := range terminal {
		terminal[c] = true
		allBad[c] = true
		repr[c] = -1
	}
	for v := range nodes {
		c := comp[v]
		if repr[c] == -1 {
			repr[c] = v
		}
		if nodes[v].stuck == "" {
			allBad[c] = false
		} else if reason[c] == "" {
			reason[c] = nodes[v].stuck
		}
		for _, w := range nodes[v].succs {
			if comp[w] != c {
				terminal[c] = false
			}
		}
	}
	for c := 0; c < nComps; c++ {
		if terminal[c] && allBad[c] {
			return repr[c], reason[c]
		}
	}
	return -1, ""
}

// UniquenessPred flags states with two or more selected processors — the
// selection problem's Uniqueness requirement.
func UniquenessPred(m *machine.Machine) string {
	if sel := m.SelectedProcs(); len(sel) >= 2 {
		return fmt.Sprintf("uniqueness violated: processors %v all selected", sel)
	}
	return ""
}

// StabilityPred flags transitions where a selected processor becomes
// unselected — the selection problem's Stability requirement.
func StabilityPred(before, after *machine.Machine, _ int) string {
	selBefore := before.SelectedProcs()
	selAfterSet := make(map[int]bool)
	for _, p := range after.SelectedProcs() {
		selAfterSet[p] = true
	}
	for _, p := range selBefore {
		if !selAfterSet[p] {
			return fmt.Sprintf("stability violated: processor %d unselected", p)
		}
	}
	return ""
}

// NotAllHalted is a StuckBad predicate: a terminal component whose states
// still have running processors is a deadlock or livelock.
func NotAllHalted(m *machine.Machine) string {
	if !m.AllHalted() {
		return "processors can never all halt"
	}
	return ""
}

// NoneSelectedAndAllHalted flags states where every processor halted
// without anyone selected — a selection algorithm that gave up.
func NoneSelectedAndAllHalted(m *machine.Machine) string {
	if m.AllHalted() && len(m.SelectedProcs()) == 0 {
		return "all processors halted with no selection"
	}
	return ""
}
