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
//     index (stateIndex) stores each state as its fixed-width vector of
//     ids, under an xor hash of its (position, id) pairs in 8-byte tag
//     slots. A vector is stored at 1, 2 or 4 bytes per id, the fewest
//     that hold the table's ids when its chunk was written, so a state
//     costs W bytes while the table holds fewer than 256 windows.
//   - Expansion steps on ids. A step of processor p reads and writes
//     only p's frame and the one variable machine.StepVar names, so a
//     successor's vector is its parent's with at most those two ids
//     replaced, and a step memo maps (p, frame id, variable id) to the
//     new pair and the xor it makes to the hash. In front of it, a step
//     slot per (p, frame id) holds the variable's position and the entry
//     last used there, so a successor usually costs two array reads and
//     an xor at any width; a slot whose variable id differs falls back
//     to the hashed lookup. Only a miss runs the machine: it loads (by
//     copy) one scratch machine to the parent, steps it and interns the
//     two windows. The worst case, a key that never repeats, costs one
//     memo probe and insert on top of that load, step and intern.
//   - A frontier state is its vector and hash. The component table
//     keeps the value each window encodes, so a vector alone rebuilds
//     its state, rewriting only the components whose ids differ. A
//     predicate reads a view machine, pointed at the stored values
//     rather than copies (machine.ViewComponent). Per state the checker
//     keeps an 8-byte node and, under StuckBad, one uint32 successor
//     slot per processor, in chunks never copied.
//   - Opt-in symmetry reduction (Options.SymmetryReduce) dedups states
//     modulo the system's automorphism group — the orbit-quotient
//     construction the paper's symmetry results suggest.
//   - There is one engine, on the calling goroutine: each processor's
//     successor of a frontier state is merged into the exploration as
//     soon as it is stepped, before the next processor steps, so
//     verdicts, witness schedules and counters are deterministic by
//     construction.
//   - Stats (states/sec, depth, dedup hits, memory estimate, group
//     order) are surfaced through Result and a progress callback. A
//     spent budget (states, time, memory or cancellation) ends the check
//     with its partial Result and a nil error.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"simsym/internal/autgrp"
	"simsym/internal/machine"
	"simsym/internal/obs"
	"simsym/internal/system"
)

// ErrMaxStates rejects a MaxStates past the uint32 node ids.
var ErrMaxStates = errors.New("mc: MaxStates above 2³²−1")

// StatePredicate inspects a state; a non-empty return is a violation
// description. It must not modify, step or clone the machine it is
// given, which reads the checker's stored values in place
// (machine.ViewComponent).
type StatePredicate func(m *machine.Machine) string

// TransitionPredicate inspects a transition (before --proc--> after); a
// non-empty return is a violation description. Transition predicates see
// every scheduled step, including stutter steps whose target state equals
// the source (self-loops are excluded only from the successor graph).
// Like a StatePredicate, it must not modify, step or clone either
// machine.
type TransitionPredicate func(before, after *machine.Machine, proc int) string

// Options configures a check.
type Options struct {
	// MaxStates bounds exploration; 0 means the default (200_000). The
	// checker explores at most MaxStates distinct states: exhausting the
	// budget yields a partial Result carrying exactly MaxStates states.
	// Node ids are uint32, so a MaxStates above 2³²−1 is ErrMaxStates.
	MaxStates int
	// MaxDuration bounds wall-clock exploration time; 0 means unbounded.
	MaxDuration time.Duration
	// MaxMemBytes bounds the checker's estimated memory footprint
	// (Stats.PeakMemBytes); 0 means unbounded. Process RSS runs above
	// the estimate by the garbage collector's headroom, about 1.3× on the
	// DP′(6) close (EXPERIMENTS.md E5), so a hard ceiling pairs
	// MaxMemBytes with GOMEMLIMIT or debug.SetMemoryLimit.
	MaxMemBytes int64
	// SymmetryReduce dedups states modulo the automorphism group of the
	// system (computed via autgrp): each newly discovered state is
	// canonicalized to the least component-id vector over its orbit, so
	// only one representative per orbit is explored. Sound when every
	// predicate is invariant under the group — true for the shipped
	// predicates (Uniqueness, Stability, stuck/halt/eating predicates),
	// which quantify over all processors. Witness schedules remain
	// genuine: stored states are reachable states, not permuted images.
	SymmetryReduce bool
	// Progress, when non-nil, receives a Stats snapshot every 16,384
	// explored states and once when the check finishes.
	Progress func(Stats)
	// Obs, when non-nil, receives structured events and metrics: an
	// mc.check phase, one KindStateExpansion event per completed BFS
	// level, counters mirroring Stats, and the final verdict. Events are
	// deterministic (no wall-clock payloads); durations go to the
	// mc.check histogram only. A nil recorder costs one pointer check.
	Obs *obs.Recorder
	// Ctx, when non-nil, cancels exploration, polled every 64 new states:
	// cancellation is a spent budget (Exhausted="canceled") and returns
	// the partial Result like any other.
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

// progressEvery is the number of new states between Progress callbacks.
const progressEvery = 16384

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
	// PeakMemBytes estimates the peak heap the check holds live: the
	// visited index with its component table and stored values, the step
	// memo with its step slots, the node and successor chunks and both
	// frontier buffers, by capacity, and the stuck search's arrays once
	// it runs. RSS runs above it (see Options.MaxMemBytes).
	PeakMemBytes int64
	// GroupOrder is the automorphism count used for symmetry reduction
	// (1 when reduction is off or the group is trivial).
	GroupOrder int
	// StoredKeyBytes and LogicalKeyBytes measure key compression:
	// StoredKeyBytes is what the visited set stores — the id vectors at
	// the 1, 2 or 4 bytes per component their chunks hold, plus the
	// component table's distinct windows — and LogicalKeyBytes is what
	// the full state keys (machine.AppendStateKey) would have occupied.
	StoredKeyBytes  int64
	LogicalKeyBytes int64
	// MemoEntries is the step memo's size, and MemoMisses counts the
	// processor steps it could not answer, each of which ran the machine
	// and added an entry. Every other step, of Transitions + SelfLoops,
	// was a memo hit.
	MemoEntries, MemoMisses int64
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
	// within budget, making the absence of violations a proof. Absence
	// of a violation in an incomplete result is bounded evidence only.
	Complete bool
	// Exhausted names the budget that ended an incomplete exploration:
	// "states", "time", "memory", or "canceled"; empty otherwise.
	Exhausted string
	// Violation is nil if no predicate fired.
	Violation *Violation
	// Stats carries the engine's observability counters.
	Stats Stats
}

// node is one explored state's bookkeeping: the node it was reached
// from and the processor stepped to reach it, with stuckBit set in step
// when Options.StuckBad flagged the state. The root is node 0; its
// parent and step are 0 and never read.
type node struct {
	parent uint32
	step   uint32
}

const (
	stuckBit = 1 << 31
	// selfLoop fills a successor slot whose step stutters. Node ids stop
	// below it, because MaxStates is at most 2³²−1.
	selfLoop = math.MaxUint32
)

// chunked is an append-only array held in chunks of chunkLen elements.
// A full chunk is never copied: growth adds a chunk, so no growth step
// holds an old and a new copy of the array at once. Only the first chunk
// starts small, at firstChunkLen, and doubles up to chunkLen, so a tiny
// check does not pay for a full chunk.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

const (
	chunkLenShift = 16
	chunkLen      = 1 << chunkLenShift
	firstChunkLen = 256
)

func (a *chunked[T]) push(x T) {
	ci := a.n >> chunkLenShift
	if ci == len(a.chunks) {
		size := chunkLen
		if ci == 0 {
			size = firstChunkLen
		}
		a.chunks = append(a.chunks, make([]T, 0, size))
	}
	ch := a.chunks[ci]
	if len(ch) == cap(ch) { // the first chunk, not yet at chunkLen
		ch = append(make([]T, 0, 2*cap(ch)), ch...)
	}
	a.chunks[ci] = append(ch, x)
	a.n++
}

// at returns element i.
func (a *chunked[T]) at(i int) T {
	return a.chunks[i>>chunkLenShift][i&(chunkLen-1)]
}

// memBytes is the chunks' allocated size: every chunk but the first is
// full-length.
func (a *chunked[T]) memBytes() int64 {
	if len(a.chunks) == 0 {
		return 0
	}
	var x T
	return int64(cap(a.chunks[0])+(len(a.chunks)-1)*chunkLen) * int64(unsafe.Sizeof(x))
}

// putHash stores h in dst[0:2], low word first; getHash reads it back.
func putHash(dst []uint32, h uint64) { dst[0], dst[1] = uint32(h), uint32(h>>32) }

func getHash(src []uint32) uint64 { return uint64(src[0]) | uint64(src[1])<<32 }

type checker struct {
	opts      Options
	nProcs    int
	maxStates int
	deadline  time.Time
	start     time.Time
	width     int   // W: components per state, ids per vector
	permAt    []int // non-identity automorphisms, W positions each (see minimize)
	idx       *stateIndex
	nodes     chunked[node]
	// succ holds nProcs successor slots per expanded node, in node
	// order: slot v·nProcs+p is the node processor p's step from node v
	// reaches, or selfLoop. Only the stuck search reads them, so they are
	// recorded only when Options.StuckBad is set.
	succ chunked[uint32]
	// levelVecs and nextVecs are the current and next BFS frontiers: the
	// states' raw (unpermuted) vectors in frontier order, W ids and then
	// the vector's hash in two words per state (putHash). States are
	// pushed in node order, so a frontier's node ids are contiguous: state
	// i of the current level is node levelStart+i. Expansion reads the
	// parent's vector and hash here, never from the index, which stores
	// permuted representatives.
	levelVecs, nextVecs []uint32
	levelStart          int
	// root is the initial machine, on which the stuck search replays its
	// witness. m, loaded (compTable.load) to the state mVec spells, is the
	// scratch machine a memo miss steps. view and parent are never
	// stepped (compTable.view): view, at viewVec, is the machine
	// StatePreds, StuckBad and TransPreds' "after" read, and parent, at
	// parentVec and kept only for TransPreds, their "before".
	root                     *machine.Machine
	m, view, parent          *machine.Machine
	mVec, viewVec, parentVec []uint32

	// rec is the frontier record of the successor being merged, and key
	// its least image under symmetry reduction. Both are reused for every
	// successor, so steady-state expansion does not allocate.
	rec, key []uint32

	memo            stepMemo
	res             *Result
	stats           *Stats
	sinceProgress   int
	logicalKeyBytes int64 // full key bytes of the stored states
}

// Check explores all schedules of the machine produced by factory().
// The factory must return a fresh machine in its initial state on every
// call (Check calls it once).
//
// A spent budget returns the partial Result, with Complete=false,
// Exhausted naming the budget and a nil error. On any error the Result is
// nil.
func Check(factory func() (*machine.Machine, error), opts Options) (*Result, error) {
	return new(checker).check(factory, opts)
}

// check is Check run on c, which tests inspect after it returns.
func (c *checker) check(factory func() (*machine.Machine, error), opts Options) (*Result, error) {
	if int64(opts.MaxStates) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d", ErrMaxStates, opts.MaxStates)
	}
	m0, err := factory()
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	width := m0.NumProcs() + m0.NumVars()
	*c = checker{
		opts:      opts,
		nProcs:    m0.NumProcs(),
		width:     width,
		maxStates: opts.MaxStates,
		start:     time.Now(),
		res:       &Result{},
		idx:       newStateIndex(width),
		root:      m0,
		rec:       make([]uint32, width+2),
	}
	c.stats = &c.res.Stats
	c.stats.GroupOrder = 1
	if c.maxStates <= 0 {
		c.maxStates = DefaultMaxStates
	}
	if opts.MaxDuration > 0 {
		c.deadline = c.start.Add(opts.MaxDuration)
	}
	if opts.SymmetryReduce {
		auts, err := autgrp.Automorphisms(m0.System(), autgrp.Options{})
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
		c.key = make([]uint32, width)
	}

	// Root. The initial state is fixed by every automorphism (they
	// preserve initial values), but canonicalize anyway for uniformity.
	// The scratch machine and the view machines start as clones of the
	// root.
	opts.Obs.PhaseStart("mc.check")
	raw := c.rec
	if err := c.idx.comps.vector(raw[:width], m0); err != nil {
		return nil, err
	}
	c.m, c.mVec = m0.Clone(), slices.Clone(raw[:width])
	c.view, c.viewVec = m0.Clone(), slices.Clone(raw[:width])
	if len(opts.TransPreds) > 0 {
		c.parent, c.parentVec = m0.Clone(), slices.Clone(raw[:width])
	}
	putHash(raw[width:], hashVec(raw[:width]))
	key, hash := c.keyOf(raw)
	rootIdx := c.push(raw, key, hash, 0, 0)
	if v := c.checkState(raw[:width], rootIdx); v != nil {
		c.res.Violation = v
		return c.finish(nil)
	}

	for c.levelStart < c.nodes.n {
		n := c.nodes.n - c.levelStart
		c.levelVecs, c.nextVecs = c.nextVecs, c.levelVecs[:0]
		c.stats.Depth++
		if n > c.stats.PeakFrontier {
			c.stats.PeakFrontier = n
		}
		for i := range n {
			cur := c.levelVecs[i*(width+2) : (i+1)*(width+2)]
			if done, err := c.expand(cur, c.levelStart+i); done {
				return c.finish(err)
			}
		}
		if opts.Obs.Enabled() {
			opts.Obs.StateExpansion("mc", c.res.StatesExplored, c.stats.Depth, c.stats.Transitions)
		}
		c.levelStart += n
	}
	c.res.Complete = true

	if c.opts.StuckBad != nil {
		idx, searchBytes := findStuckComponent(&c.nodes, &c.succ, c.nProcs)
		c.stats.PeakMemBytes = max(c.stats.PeakMemBytes, c.memEstimate()+searchBytes)
		if idx >= 0 {
			// Nodes keep only a stuck flag, so the reason is recomputed
			// once, for the reported state: its witness schedule is
			// replayed with Step, which emits no events, on a clone of
			// the root.
			schedule, m := c.scheduleTo(idx), c.root.Clone()
			for _, p := range schedule {
				if err := m.Step(p); err != nil {
					return c.finish(fmt.Errorf("mc: replaying the stuck witness: %w", err))
				}
			}
			c.res.Violation = &Violation{Reason: "stuck: " + c.opts.StuckBad(m), Schedule: schedule}
		}
	}
	return c.finish(nil)
}

// finish finalizes stats, emits the last progress snapshot, and mirrors
// the exploration counters into the Result, which it returns unless err
// is set.
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
	if c.opts.Progress != nil {
		c.opts.Progress(*c.stats)
	}
	if rec := c.opts.Obs; rec.Enabled() {
		rec.Count("mc.checks", 1)
		rec.Count("mc.states", int64(c.res.StatesExplored))
		rec.Count("mc.transitions", c.stats.Transitions)
		rec.Count("mc.dedup_hits", c.stats.DedupHits)
		rec.Count("mc.self_loops", c.stats.SelfLoops)
		rec.Count("mc.memo_entries", c.stats.MemoEntries)
		rec.Count("mc.memo_misses", c.stats.MemoMisses)
		rec.Count("mc.stored_key_bytes", c.stats.StoredKeyBytes)
		rec.Count("mc.logical_key_bytes", c.stats.LogicalKeyBytes)
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
	if err != nil {
		return nil, err
	}
	return c.res, nil
}

// successor writes into rec the frontier record of processor p's step
// from the record cur (a vector and its hash), and returns the step's
// memo entry. Predicates never run here.
//
// This is the hot loop. The successor is cur with p's frame id and the
// id of the variable its step touches replaced by the pair the step memo
// holds for them, and its hash is cur's xor the entry's delta. The step
// slot of (p, frame id) names that variable's position and usually the
// entry. On a miss the scratch machine is loaded to the parent, stepped,
// and its two windows interned — no other component is encoded, copied
// or read.
func (c *checker) successor(cur, rec []uint32, p int) (*memoEntry, error) {
	w := c.width
	ct := &c.idx.comps
	curVec := cur[:w]
	copy(rec, curVec)
	f := curVec[p]
	s := c.memo.slot(int(uint64(f)-ct.base)*c.nProcs + p)
	if s.vc == 0 {
		s.vc = uint32(p) + 1
		if v := c.root.StepVar(p, ct.frame(f)); v >= 0 {
			s.vc = uint32(c.nProcs+v) + 1
		}
	}
	vc := int(s.vc - 1)
	v := curVec[vc]
	e, mhash, ok := c.memo.lookup(s, uint32(p), f, v)
	if !ok {
		ct.load(c.m, c.mVec, curVec)
		if err := c.m.Step(p); err != nil {
			return nil, fmt.Errorf("mc: stepping %d: %w", p, err)
		}
		for _, comp := range [2]int{p, vc} {
			if err := ct.internEntry(c.mVec, c.m, comp); err != nil {
				return nil, err
			}
		}
		f2, v2 := c.mVec[p], c.mVec[vc]
		delta := vecWord(p, f) ^ vecWord(p, f2)
		if vc != p {
			delta ^= vecWord(vc, v) ^ vecWord(vc, v2)
		}
		e = c.memo.add(s, mhash, memoEntry{uint32(p), f, v, f2, v2, delta})
		c.stats.MemoMisses++
		c.stats.MemoEntries = int64(len(c.memo.entries))
	}
	rec[p], rec[vc] = e.f2, e.v2
	putHash(rec[w:], getHash(cur[w:])^e.delta)
	return e, nil
}

// keyOf returns the dedup key of the frontier record rec and its hash:
// rec's vector and the hash it carries, or under symmetry reduction its
// least image (in c.key), hashed in full.
func (c *checker) keyOf(rec []uint32) ([]uint32, uint64) {
	w := c.width
	if c.permAt == nil {
		return rec[:w], getHash(rec[w:])
	}
	c.minimize(c.key, rec[:w])
	return c.key, hashVec(c.key)
}

// minimize writes into key the least image of raw, in lexicographic id
// order, over the automorphism group — the orbit-canonical dedup key.
// Automorphism k maps position i to the component at permAt[k·W+i]
// (processors by ProcPerm, variables by VarPerm), the relabeling
// machine.AppendStateKey's procAt/varAt apply to keys.
func (c *checker) minimize(key, raw []uint32) {
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

// expand steps every processor from the frontier record cur, the state
// of node curIdx, and merges each successor before the next is stepped:
// transition predicates (before the self-loop skip — stutter steps are
// visible to predicates, excluded only from the successor graph), dedup
// against the hashed index, the state budget before each push, state
// predicates on new states and the other budgets after. Under
// Options.StuckBad every processor's successor fills its slot (see
// checker.succ). It reports whether the check ends here.
func (c *checker) expand(cur []uint32, curIdx int) (bool, error) {
	w, rec := c.width, c.rec
	if c.parent != nil {
		c.idx.comps.view(c.parent, c.parentVec, cur[:w])
	}
	for p := range c.nProcs {
		e, err := c.successor(cur, rec, p)
		if err != nil {
			return true, err
		}
		for _, pred := range c.opts.TransPreds {
			if reason := pred(c.parent, c.look(rec[:w]), p); reason != "" {
				c.res.Violation = &Violation{
					Reason:   reason,
					Schedule: append(c.scheduleTo(curIdx), p),
				}
				return true, nil
			}
		}
		to := uint32(selfLoop)
		if e.f2 == e.f && e.v2 == e.v {
			c.stats.SelfLoops++
		} else {
			c.stats.Transitions++
			key, hash := c.keyOf(rec)
			if id, ok := c.idx.lookupHashed(key, hash); ok {
				c.stats.DedupHits++
				to = uint32(id - c.idx.baseID)
			} else if c.res.StatesExplored >= c.maxStates {
				// Budget check strictly before the push: the checker
				// explores exactly MaxStates states, never MaxStates+1.
				return c.exhaust("states"), nil
			} else {
				id := c.push(rec, key, hash, curIdx, p)
				to = uint32(id)
				if v := c.checkState(rec[:w], id); v != nil {
					c.res.Violation = v
					return true, nil
				}
				if c.pollBudgets() {
					return true, nil
				}
			}
		}
		if c.opts.StuckBad != nil {
			c.succ.push(to)
		}
	}
	return false, nil
}

// push commits the new state whose frontier record is rec: it indexes
// the state's dedup key with its hash and appends the state's node with
// its stuck flag, rec to the next frontier, and the explored-state
// counters. It returns the node index, which equals the index id minus
// baseID because ids are dense and assigned in the same order as nodes.
func (c *checker) push(rec, key []uint32, hash uint64, parent, step int) int {
	c.idx.insert(key, hash)
	c.logicalKeyBytes += c.idx.comps.keyLen(key)
	c.nextVecs = append(c.nextVecs, rec...)
	id := c.nodes.n
	nd := node{parent: uint32(parent), step: uint32(step)}
	if c.opts.StuckBad != nil && c.opts.StuckBad(c.look(rec[:c.width])) != "" {
		nd.step |= stuckBit
	}
	c.nodes.push(nd)
	c.res.StatesExplored++
	c.sinceProgress++
	return id
}

// pollBudgets emits progress snapshots and enforces the time, memory and
// cancellation budgets, reporting whether one is spent. Called after each
// push.
func (c *checker) pollBudgets() bool {
	if c.sinceProgress >= progressEvery {
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
			return c.exhaust("memory")
		}
	}
	if c.res.StatesExplored%64 == 0 {
		if !c.deadline.IsZero() && time.Now().After(c.deadline) {
			return c.exhaust("time")
		}
		if c.opts.Ctx != nil && c.opts.Ctx.Err() != nil {
			return c.exhaust("canceled")
		}
	}
	return false
}

// memEstimate approximates the checker's live heap during exploration:
// the visited index (with the component table and its stored values),
// the step memo and its slots, the node and successor chunks, and both
// frontier buffers with their vectors' hashes. Capacities, not lengths:
// an allocated chunk or backing array is real memory whether or not it
// is full yet.
func (c *checker) memEstimate() int64 {
	return c.idx.memBytes() + c.memo.memBytes() + c.nodes.memBytes() + c.succ.memBytes() +
		4*int64(cap(c.levelVecs)+cap(c.nextVecs))
}

// exhaust records which budget ended the run and reports that the check
// ends: the partial Result is returned without error.
func (c *checker) exhaust(kind string) bool {
	c.res.Exhausted = kind
	return true
}

// scheduleTo is the step sequence from the root to node idx.
func (c *checker) scheduleTo(idx int) []int {
	out := []int{}
	for ; idx != 0; idx = int(c.nodes.at(idx).parent) {
		out = append(out, int(c.nodes.at(idx).step&^stuckBit))
	}
	slices.Reverse(out)
	return out
}

// look points the view machine at the state vec spells and returns it.
func (c *checker) look(vec []uint32) *machine.Machine {
	c.idx.comps.view(c.view, c.viewVec, vec)
	return c.view
}

func (c *checker) checkState(vec []uint32, idx int) *Violation {
	for _, pred := range c.opts.StatePreds {
		if reason := pred(c.look(vec)); reason != "" {
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

// findStuckComponent runs Tarjan's SCC algorithm (iteratively) over the
// successor graph nodes and succ spell, np slots per node, and returns a
// representative node — the component's first in node order — of the
// first terminal SCC, in completion order, whose states are all flagged
// stuck, or -1, with the bytes its arrays took. Under symmetry reduction
// the graph is the orbit quotient; a terminal all-bad component there
// corresponds to one in the full graph because the stuck predicate is
// automorphism-invariant.
// An edge leaves its source's component exactly when it reaches a
// finished node or is the tree edge to a child that roots its own
// component; either sets the source's exit flag.
func findStuckComponent(nodes *chunked[node], succ *chunked[uint32], np int) (int, int64) {
	n := nodes.n
	const none = math.MaxUint32 // an unvisited node's index, a finished node's low
	indexOf := make([]uint32, n)
	low := make([]uint32, n)
	exit := make([]bool, n)
	for i := range indexOf {
		indexOf[i] = none
	}
	// Tarjan's stack holds exactly the visited nodes with no component
	// yet. A frame walks v's successor slots from p.
	var stack []uint32
	type frame struct{ v, p uint32 }
	var calls []frame
	var counter uint32
	visit := func(v uint32) {
		indexOf[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		calls = append(calls, frame{v: v})
	}
	searchBytes := func() int64 { return 9*int64(n) + 4*int64(cap(stack)) + 8*int64(cap(calls)) }
	for root := range n {
		if indexOf[root] != none {
			continue
		}
		visit(uint32(root))
		for len(calls) > 0 {
			fr := &calls[len(calls)-1]
			v := fr.v
			if int(fr.p) < np {
				w := succ.at(int(v)*np + int(fr.p))
				fr.p++
				switch {
				case w == selfLoop:
				case indexOf[w] == none:
					visit(w)
				case low[w] == none:
					exit[v] = true
				default:
					low[v] = min(low[v], indexOf[w])
				}
				continue
			}
			// Post-visit.
			calls = calls[:len(calls)-1]
			if low[v] != indexOf[v] {
				parent := calls[len(calls)-1].v
				low[parent] = min(low[parent], low[v])
				continue
			}
			if len(calls) > 0 {
				exit[calls[len(calls)-1].v] = true
			}
			first, bad := v, true
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				low[w] = none
				first = min(first, w)
				bad = bad && !exit[w] && nodes.at(int(w)).step&stuckBit != 0
				if w == v {
					break
				}
			}
			if bad {
				return int(first), searchBytes()
			}
		}
	}
	return -1, searchBytes()
}

// UniquenessPred flags states with two or more selected processors — the
// selection problem's Uniqueness requirement. It allocates only for a
// violation's message.
func UniquenessPred(m *machine.Machine) string {
	n := 0
	for p := range m.NumProcs() {
		if m.Selected(p) {
			n++
		}
	}
	if n >= 2 {
		return fmt.Sprintf("uniqueness violated: processors %v all selected", m.SelectedProcs())
	}
	return ""
}

// StabilityPred flags transitions where a selected processor becomes
// unselected — the selection problem's Stability requirement. It
// allocates only for a violation's message.
func StabilityPred(before, after *machine.Machine, _ int) string {
	for p := range before.NumProcs() {
		if before.Selected(p) && !after.Selected(p) {
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
