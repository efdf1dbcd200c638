package partition

import (
	"fmt"
	"slices"
	"sort"
)

// DynStructure is a TokenStructure whose node set mutates in place:
// slots may be born, die, change their initial key, or change their
// environment between calls to Dyn.Update. Len reports the slot-space
// size (dead slots included); Alive reports whether slot i currently
// exists. Signatures, Dependents and out-edges must never reference
// dead slots.
//
// From CountStructure it takes AppendOutEdges, which must append slot
// i's tagged dependency edges, one for every slot whose label i's
// signature reads: the merge pass builds its class quotient by
// appending one representative's edges per class into an array it
// reuses, rewriting their targets in place.
type DynStructure interface {
	TokenStructure
	CountStructure
	// Alive reports whether slot i is currently part of the structure.
	Alive(i int) bool
	// Counting reports whether the signature is the multiset of (Tag,
	// label(To)) pairs over the out-edges, as for a CountStructure. The
	// merge pass then refines the quotient with Hopcroft's smaller-half
	// rule; set-valued signatures, for which that rule is unsound, must
	// report false and get a nested Dyn build.
	Counting() bool
}

// UpdateStats describes the work one Dyn.Update performed. Counters are
// per event; Dyn.TotalStats accumulates them over Updates.
type UpdateStats struct {
	// Touched is the number of slots the caller reported.
	Touched int
	// TouchedClasses counts distinct classes examined during settling.
	TouchedClasses int
	// Splits counts new classes carved out of invalidated ones.
	Splits int
	// Merges counts classes absorbed by the quotient merge pass.
	Merges int
	// Relabeled counts slots whose class assignment changed.
	Relabeled int
	// SigComputes counts signature encodings of slots. The merge pass
	// adds one per quotient node for reading its representative's
	// out-edges, plus every quotient signature the nested build encodes
	// (set rule); the signature-id compaction adds one per live class.
	SigComputes int
	// Rounds counts settle rounds (split propagation waves) plus the
	// quotient refinement's rounds: splitter iterations that carved a
	// class (Hopcroft) or the nested build's settle rounds (set rule).
	Rounds int
	// MergePass reports whether the quotient merge pass ran.
	MergePass bool
	// Rebuild reports a from-scratch build. Only NewDyn's initial build
	// sets it, so it shows in LastStats until the first Update and
	// never in an Update's stats.
	Rebuild bool
	// Classes is the number of live classes after the event.
	Classes int
}

func (u UpdateStats) add(v UpdateStats) UpdateStats {
	u.Touched += v.Touched
	u.TouchedClasses += v.TouchedClasses
	u.Splits += v.Splits
	u.Merges += v.Merges
	u.Relabeled += v.Relabeled
	u.SigComputes += v.SigComputes
	u.Rounds += v.Rounds
	if v.MergePass {
		u.MergePass = true
	}
	u.Classes = v.Classes
	return u
}

// Dyn maintains the coarsest stable partition of a mutating structure
// incrementally. Between events it keeps, per class, the interned
// signature id the class stabilized at; an event only pays for the
// slots it touches plus the dependency cone their label changes reach.
//
// Algorithm (see DESIGN.md §10 for the invariants):
//
//  1. Reconcile: touched slots are detached when dead, re-seated into
//     an existing class of their initial key when born or rekeyed (a
//     fresh singleton when none exists), and marked dirty along with
//     their dependents.
//  2. Settle: a worklist recomputes signatures for dirty slots only and
//     splits a class exactly when a member's interned signature id
//     diverges from the class's stored stable id. Split-off labels
//     propagate dirtiness through Dependents. The initial build is one
//     settle from the init-key partition with every slot dirty, which is
//     all FixpointWorklist runs.
//  3. Merge: if the event provably left the class-quotient structure
//     unchanged (no class born or freed, no stable signature or init
//     key drift), the pre-event partition was coarsest, so the
//     post-event one still is and the pass is skipped. Otherwise the
//     quotient (one node per live class, edges read off a
//     representative) is refined from its init keys — by Hopcroft for
//     counting signatures, by a nested Dyn build for set signatures —
//     and pulled back: quotient classes that coalesce
//     are merged, which is exactly — and only — where coarseness is
//     restorable. The pass costs O(m_q log k) on a k-class quotient
//     with m_q edges, never more than refining the structure itself.
//  4. Compact: once the persistent signature-id table outgrows the
//     live classes, every live class's stable signature is
//     re-interned into a fresh table, so ids stay O(classes + 1024)
//     however long the churn runs.
//
// FixpointNaive is the cross-checked oracle; the differential fuzzers
// assert relation-for-relation equality with a from-scratch refinement
// after every event.
//
// Dyn is not goroutine-safe.
type Dyn struct {
	s DynStructure
	// hook observes the initial build's settle rounds; only
	// FixpointWorklist sets it.
	hook RoundHook
	// enc interns signatures into a persistent id space: unlike
	// Hopcroft's per-class windows, ids stay comparable
	// across events, which is what lets Dyn store one stable signature
	// id per class and certify "nothing changed" without recomputing
	// unaffected classes.
	enc sigEncoder

	label   []int         // slot -> class id, -1 when dead
	lbl     func(int) int // reads label; built once, as a method value would allocate per signature
	pos     []int         // slot -> index within members[label[slot]]
	members [][]int       // class -> member slots (internal; see ClassMembers)
	freeCls []int         // recycled class ids
	csig    []int         // class -> stable signature id, -1 unknown
	cinit   []int         // class -> interned init-key id

	initTab map[string]int // init key -> dense id
	initStr []string       // dense id -> init key
	byInit  map[int][]int  // init-key id -> candidate classes (lazily compacted)

	liveClasses int
	aliveSlots  int

	dirty []bool
	queue []int

	// Reusable scratch. Settle buckets its dirty batch by class: ccount
	// (grown by allocClass, zero between rounds) counts a class's dirty
	// members and then locates its bucket in batch, and settled lists
	// the classes with any. splitOut sorts packed id<<32 | position
	// keys, so signature ids and class sizes must stay below 2^32.
	ccount    []int
	settled   []int
	batch     []int
	relabeled []int
	idsBuf    []int
	moveKeys  []uint64
	moveSlots []int
	quot      quotient
	ref       refiner // the merge pass's Hopcroft refiner
	done      []bool
	moved     []int

	last  UpdateStats
	total UpdateStats
}

// NewDyn computes the initial coarsest stable partition of s and
// returns the engine ready for Update calls. Returns ErrEmptyStructure
// when s has no alive slots.
func NewDyn(s DynStructure) (*Dyn, error) { return newDyn(s, nil) }

// newDyn is NewDyn with hook observing the initial build.
func newDyn(s DynStructure, hook RoundHook) (*Dyn, error) {
	d := &Dyn{
		s:       s,
		hook:    hook,
		enc:     sigEncoder{s: s},
		initTab: make(map[string]int),
		byInit:  make(map[int][]int),
	}
	d.lbl = func(v int) int { return d.label[v] }
	d.grow(s.Len())
	st := d.build()
	if d.aliveSlots == 0 {
		return nil, ErrEmptyStructure
	}
	d.last = st
	return d, nil
}

// Len returns the slot-space size (dead slots included).
func (d *Dyn) Len() int { return len(d.label) }

// NumClasses returns the number of live classes.
func (d *Dyn) NumClasses() int { return d.liveClasses }

// Label returns the class of slot i, or -1 when i is dead.
func (d *Dyn) Label(i int) int { return d.label[i] }

// Labels returns a copy of the slot label vector (-1 marks dead slots).
func (d *Dyn) Labels() []int { return append([]int(nil), d.label...) }

// Canonical returns the label vector renumbered by first occurrence
// over ascending slots, with dead slots left at -1. Two Dyn states over
// the same slot space induce the same equivalence relation iff their
// Canonical vectors are equal.
func (d *Dyn) Canonical() []int {
	next := 0
	remap := make(map[int]int, d.liveClasses)
	out := make([]int, len(d.label))
	for i, l := range d.label {
		if l < 0 {
			out[i] = -1
			continue
		}
		r, ok := remap[l]
		if !ok {
			r = next
			remap[l] = r
			next++
		}
		out[i] = r
	}
	return out
}

// ClassMembers returns the member slots of class c, sorted ascending.
// The result is a fresh copy: the engine's internal member lists are
// mutated in place by later Updates (swap-removal, splits, merges), so
// handing out the backing storage would let one event corrupt a
// caller's earlier view. See TestDynClassMembersCopied.
func (d *Dyn) ClassMembers(c int) []int {
	out := append([]int(nil), d.members[c]...)
	sort.Ints(out)
	return out
}

// LastStats returns the statistics of the most recent Update, or of the
// initial build (Rebuild set) before the first Update.
func (d *Dyn) LastStats() UpdateStats { return d.last }

// TotalStats returns the statistics of every Update since NewDyn,
// summed; the initial build is not included, so it is zero-valued
// before the first Update.
func (d *Dyn) TotalStats() UpdateStats { return d.total }

// Update repairs the partition after a mutation of the underlying
// structure. touched must list every slot whose alive-status, initial
// key, or environment changed — including the former neighbors of
// removed slots (a dead slot no longer reports Dependents, so the
// caller must name the survivors it used to feed). Duplicate entries
// are harmless. The repaired partition is exactly the coarsest stable
// partition FixpointWorklist would compute from scratch on the mutated
// structure.
func (d *Dyn) Update(touched []int) UpdateStats {
	st := UpdateStats{Touched: len(touched)}
	d.grow(d.s.Len())
	quotChanged := false
	for _, x := range touched {
		d.reconcile(x, &st, &quotChanged)
	}
	d.settle(&st, &quotChanged)
	if quotChanged && d.liveClasses > 1 {
		d.mergePass(&st)
	}
	d.compactIDs(&st)
	st.Classes = d.liveClasses
	d.last = st
	d.total = d.total.add(st)
	return st
}

func (d *Dyn) grow(n int) {
	for len(d.label) < n {
		d.label = append(d.label, -1)
		d.pos = append(d.pos, 0)
		d.dirty = append(d.dirty, false)
	}
}

func (d *Dyn) initID(key string) int {
	id, ok := d.initTab[key]
	if !ok {
		id = len(d.initStr)
		d.initTab[key] = id
		d.initStr = append(d.initStr, key)
	}
	return id
}

// allocClass returns a (possibly recycled) class id with the given init
// key and unknown stable signature.
func (d *Dyn) allocClass(initID int) int {
	var c int
	if n := len(d.freeCls); n > 0 {
		c = d.freeCls[n-1]
		d.freeCls = d.freeCls[:n-1]
		d.members[c] = d.members[c][:0]
		d.csig[c] = -1
		d.cinit[c] = initID
	} else {
		c = len(d.members)
		d.members = append(d.members, nil)
		d.csig = append(d.csig, -1)
		d.cinit = append(d.cinit, initID)
		d.ccount = append(d.ccount, 0)
	}
	d.liveClasses++
	d.byInit[initID] = append(d.byInit[initID], c)
	return c
}

// seat places slot x into class c.
func (d *Dyn) seat(x, c int) {
	d.label[x] = c
	d.pos[x] = len(d.members[c])
	d.members[c] = append(d.members[c], x)
}

// detach removes slot x from its class, freeing the class when emptied.
func (d *Dyn) detach(x int, quotChanged *bool) {
	c := d.label[x]
	m := d.members[c]
	last := m[len(m)-1]
	m[d.pos[x]] = last
	d.pos[last] = d.pos[x]
	d.members[c] = m[:len(m)-1]
	d.label[x] = -1
	if len(d.members[c]) == 0 {
		d.freeCls = append(d.freeCls, c)
		d.liveClasses--
		*quotChanged = true
	}
}

// candidateClass returns a live class with the given init key, or -1.
// The byInit lists are append-only at class creation and compacted
// lazily here (freed ids may have been recycled under another key).
func (d *Dyn) candidateClass(initID int) int {
	list := d.byInit[initID]
	out := list[:0]
	found := -1
	for _, c := range list {
		if d.cinit[c] != initID || len(d.members[c]) == 0 {
			continue
		}
		out = append(out, c)
		if found < 0 {
			found = c
		}
	}
	d.byInit[initID] = out
	return found
}

func (d *Dyn) markDirty(x int) {
	if !d.dirty[x] {
		d.dirty[x] = true
		d.queue = append(d.queue, x)
	}
}

// reconcile brings slot x's membership in line with the structure:
// dead slots are detached; born or rekeyed slots are seated with their
// init-key peers (the settle pass splits them back out if the guess is
// wrong, and the merge pass re-coarsens if it was needlessly shy).
func (d *Dyn) reconcile(x int, st *UpdateStats, quotChanged *bool) {
	if !d.s.Alive(x) {
		if d.label[x] >= 0 {
			d.detach(x, quotChanged)
			d.aliveSlots--
			st.Relabeled++
		}
		return
	}
	ik := d.initID(d.s.InitKey(x))
	if d.label[x] >= 0 && d.cinit[d.label[x]] != ik {
		d.detach(x, quotChanged)
		d.label[x] = -2 // sentinel: alive, awaiting seating
	}
	if d.label[x] < 0 {
		if d.label[x] == -1 {
			d.aliveSlots++
		}
		c := d.candidateClass(ik)
		if c < 0 {
			c = d.allocClass(ik)
			*quotChanged = true
		}
		d.label[x] = -1
		d.seat(x, c)
		st.Relabeled++
	}
	d.markDirty(x)
	for _, dep := range d.s.Dependents(x) {
		d.markDirty(dep)
	}
}

// settle runs the incremental worklist: recompute signatures for dirty
// slots only and split a class exactly when a member's id diverges from
// the class's stored stable id. The invariant it maintains — every
// non-dirty alive slot's signature equals its class's stored id — is
// what makes dirty-only recomputation sound.
func (d *Dyn) settle(st *UpdateStats, quotChanged *bool) {
	for len(d.queue) > 0 {
		st.Rounds++
		splits := st.Splits
		// Bucket the dirty slots by their class at gather time: count
		// each class's slots, turn the counts into bucket starts in
		// ascending class order, and fill the buckets in queue order. A
		// queued slot is dirty exactly once, so the queue holds no
		// duplicates. Splits only relabel slots within the class being
		// processed, so later buckets stay intact.
		settled := d.settled[:0]
		for _, x := range d.queue {
			d.dirty[x] = false
			if c := d.label[x]; c >= 0 {
				if d.ccount[c] == 0 {
					settled = append(settled, c)
				}
				d.ccount[c]++
			}
		}
		slices.Sort(settled)
		n := 0
		for _, c := range settled {
			n, d.ccount[c] = n+d.ccount[c], n
		}
		batch := fit(d.batch, n)
		for _, x := range d.queue {
			if c := d.label[x]; c >= 0 {
				batch[d.ccount[c]] = x
				d.ccount[c]++
			}
		}
		d.queue = d.queue[:0]
		d.settled, d.batch = settled, batch
		relabeled := d.relabeled[:0]
		lo := 0
		for _, c := range settled {
			members := batch[lo:d.ccount[c]]
			lo, d.ccount[c] = d.ccount[c], 0
			slices.Sort(members)
			relabeled = d.settleClass(c, members, st, quotChanged, relabeled)
		}
		d.relabeled = relabeled
		for _, x := range relabeled {
			d.markDirty(x)
			for _, dep := range d.s.Dependents(x) {
				d.markDirty(dep)
			}
		}
		if d.hook != nil {
			d.hook(st.Rounds, d.liveClasses, st.Splits-splits)
		}
	}
}

// settleClass processes one class with the given dirty members,
// appending relabeled slots to out.
func (d *Dyn) settleClass(c int, dirtyMembers []int, st *UpdateStats, quotChanged *bool, out []int) []int {
	st.TouchedClasses++
	stable := d.csig[c]
	work := dirtyMembers
	if stable < 0 {
		// Fresh class: no stored signature to compare against, so the
		// whole membership must be encoded.
		work = d.members[c]
	}
	ids := d.idsBuf[:0]
	for _, x := range work {
		ids = append(ids, d.enc.sigID(x, d.lbl))
	}
	d.idsBuf = ids
	st.SigComputes += len(work)

	if stable >= 0 {
		same := true
		for _, id := range ids {
			if id != stable {
				same = false
				break
			}
		}
		if same {
			return out
		}
		*quotChanged = true
		if len(dirtyMembers) == len(d.members[c]) {
			// Every member was recomputed: fall through to the
			// full-regroup path below (the stored id may have no
			// takers left).
			stable = -1
		}
	}

	if stable >= 0 {
		// Non-dirty members hold the stored id by the settle invariant;
		// split out the dirty members that diverged, grouped by id.
		return d.splitOut(c, work, ids, stable, st, out)
	}

	// Full regroup: keep the group containing the smallest member under
	// the old class id (deterministic) and carve the rest out in
	// ascending id order.
	minAt := 0
	for k, x := range work {
		if x < work[minAt] {
			minAt = k
		}
	}
	keep := ids[minAt]
	if d.csig[c] != keep {
		d.csig[c] = keep
		*quotChanged = true
	}
	return d.splitOut(c, work, ids, keep, st, out)
}

// splitOut moves every slot of work whose id differs from keep into a
// new class per distinct id (ascending id order), leaving keep-id slots
// in place. Returns out extended with the relabeled slots.
func (d *Dyn) splitOut(c int, work []int, ids []int, keep int, st *UpdateStats, out []int) []int {
	// Snapshot the movers before detaching: detach swap-mutates the
	// member list work may alias (the stable<0 path passes members[c]).
	// One sort of id<<32 | position keys groups them by id and keeps
	// work order within a group, so a k-way split costs O(m log m), not
	// O(k·m).
	keys, slots := d.moveKeys[:0], d.moveSlots[:0]
	for k, x := range work {
		if ids[k] != keep {
			keys = append(keys, uint64(ids[k])<<32|uint64(len(slots)))
			slots = append(slots, x)
		}
	}
	slices.Sort(keys)
	d.moveKeys, d.moveSlots = keys, slots
	initID := d.cinit[c]
	var dummy bool
	nc := -1
	for k, key := range keys {
		if k == 0 || key>>32 != keys[k-1]>>32 {
			nc = d.allocClass(initID)
			d.csig[nc] = int(key >> 32)
			st.Splits++
		}
		x := slots[uint32(key)]
		d.detach(x, &dummy)
		d.seat(x, nc)
		st.Relabeled++
		out = append(out, x)
	}
	return out
}

// mergePass refines the class quotient and merges the classes that
// coalesce. Any stable partition refining the initial one also refines
// the coarsest, so the settled partition refines the target and the
// pullback of the quotient's coarsest partition is exactly the global
// coarsest — merging happens precisely where coarseness is restorable.
// The algorithm is the one core.SimilarityWith would pick for the
// structure's signatures: Hopcroft when they count, a Dyn build when
// they are sets.
func (d *Dyn) mergePass(st *UpdateStats) {
	st.MergePass = true
	q := d.newQuotient()
	st.SigComputes += len(q.cls)
	var p *Partition
	var err error
	if d.s.Counting() {
		p, err = d.refineQuotient(q, func(int, int, int) { st.Rounds++ })
	} else {
		// The nested build's work is read off its stats: a hook closure
		// over st would be kept by the heap Dyn and move st, and with it
		// every Update's stats, to the heap.
		q.linkDependents()
		var qd *Dyn
		if qd, err = newDyn(allAlive{q}, nil); err == nil {
			st.Rounds += qd.last.Rounds
			st.SigComputes += qd.last.SigComputes
			p = qd.partition()
		}
	}
	if err != nil {
		panic("partition: quotient refinement: " + err.Error())
	}

	// Pull back: every quotient class holding more than one slot class
	// merges, groups in order of their smallest class id. Survivor: the
	// largest class (fewest relabels), smallest id on ties. Both orders
	// depend only on the quotient's relation, never on how the driver
	// numbered its classes.
	moved := d.moved[:0]
	d.done = fit(d.done, p.NumClasses())
	for node := range q.cls {
		l := p.label[node]
		if d.done[l] || len(p.members[l]) < 2 {
			continue
		}
		d.done[l] = true
		// Ascending nodes, so ascending class ids. p is this pass's
		// scratch, so its member list is sorted in place.
		group := p.members[l]
		slices.Sort(group)
		surv := q.cls[group[0]]
		for _, n := range group[1:] {
			if c := q.cls[n]; len(d.members[c]) > len(d.members[surv]) {
				surv = c
			}
		}
		for _, n := range group {
			c := q.cls[n]
			if c == surv {
				continue
			}
			for _, x := range d.members[c] {
				d.label[x] = surv
				d.pos[x] = len(d.members[surv])
				d.members[surv] = append(d.members[surv], x)
				st.Relabeled++
				moved = append(moved, x)
			}
			d.members[c] = d.members[c][:0]
			d.freeCls = append(d.freeCls, c)
			d.liveClasses--
			st.Merges++
		}
	}
	d.moved = moved
	if len(moved) == 0 {
		return
	}
	// Labels moved, so the stored stable id of every class that reads a
	// moved slot is stale. The settled partition was stable, so all
	// members of a class read the same classes: marking the moved slots'
	// dependents dirties such a class whole, and settle's full-regroup
	// path re-derives its stable id. Classes that read no moved slot kept
	// their signature. The same settle is the defensive check: were the
	// pullback ever unstable, it would split again and the differential
	// fuzzer would flag the coarseness gap.
	for _, x := range moved {
		d.markDirty(x)
		for _, dep := range d.s.Dependents(x) {
			d.markDirty(dep)
		}
	}
	var dummy bool
	d.settle(st, &dummy)
}

// refineQuotient refines q with the merge pass's Hopcroft refiner,
// which reads q's edge arrays in place. A node's initial class is its
// class's init key, ranked among the keys q holds from the integer cinit
// ids, so no key string is looked up per node.
func (d *Dyn) refineQuotient(q *quotient, hook RoundHook) (*Partition, error) {
	q.init = fit(q.init, len(q.cls))
	for n, c := range q.cls {
		q.init[n] = d.cinit[c]
	}
	return d.ref.run(q.off, q.edges, q.init, d.ref.rankInit(q.init, d.initStr), hook)
}

// quotient is the class graph the merge pass refines: one node per live
// class, in ascending class id, whose edges and signature are read off
// one representative member with every target mapped to its class's
// node. The settled partition is stable, so every member of a class
// sees the same classes through its edges and any representative does.
// The Hopcroft refiner reads its edge arrays, and it is a TokenStructure
// for the nested build. Dyn keeps one and rebuilds it in place.
type quotient struct {
	d     *Dyn
	cls   []int        // node -> class id
	node  []int        // class id -> node, for live classes
	off   []int        // node -> its first edge in edges; off[len(cls)] = len(edges)
	edges []TaggedEdge // representatives' out-edges, targets as nodes
	init  []int        // node -> initial class, for the refiner
	deps  [][]int      // node -> nodes with an edge into it (set rule only)

	lbl  func(int) int // the nested build's current quotient labeling
	comp func(int) int // slot -> lbl(node of the slot's class)
}

func (d *Dyn) newQuotient() *quotient {
	q := &d.quot
	if q.d == nil {
		q.d = d
		q.comp = func(v int) int { return q.lbl(q.node[d.label[v]]) }
	}
	q.node = fit(q.node, len(d.members))
	q.cls = q.cls[:0]
	for c, m := range d.members {
		if len(m) > 0 {
			q.node[c] = len(q.cls)
			q.cls = append(q.cls, c)
		}
	}
	q.off = fit(q.off, len(q.cls)+1)
	q.edges = q.edges[:0]
	for n, c := range q.cls {
		q.off[n] = len(q.edges)
		q.edges = d.s.AppendOutEdges(q.edges, d.members[c][0])
		for k := q.off[n]; k < len(q.edges); k++ {
			q.edges[k].To = q.node[d.label[q.edges[k].To]]
		}
	}
	q.off[len(q.cls)] = len(q.edges)
	return q
}

// linkDependents builds the reverse quotient edges the nested build
// propagates splits along.
func (q *quotient) linkDependents() {
	q.deps = make([][]int, len(q.cls))
	for n := range q.cls {
		for _, e := range q.edges[q.off[n]:q.off[n+1]] {
			q.deps[e.To] = append(q.deps[e.To], n)
		}
	}
}

func (q *quotient) Len() int               { return len(q.cls) }
func (q *quotient) InitKey(n int) string   { return q.d.initStr[q.d.cinit[q.cls[n]]] }
func (q *quotient) Dependents(n int) []int { return q.deps[n] }

// AppendSignature encodes quotient node n as its representative's
// signature under the composed labeling.
func (q *quotient) AppendSignature(buf []uint64, n int, label func(int) int) []uint64 {
	q.lbl = label
	return q.d.s.AppendSignature(buf, q.d.members[q.cls[n]][0], q.comp)
}

// compactIDs bounds the persistent signature-id space. Settling interns
// an id for every signature it meets and only csig holds ids across
// events, so once the table outgrows the live structure it is replaced
// by a fresh one holding each live class's stable signature, encoded
// from a representative.
func (d *Dyn) compactIDs(st *UpdateStats) {
	if d.enc.tab.Len() <= d.idBound() {
		return
	}
	d.enc.tab.Reset()
	for c, m := range d.members {
		if len(m) > 0 {
			d.csig[c] = d.enc.sigID(m[0], d.lbl)
		}
	}
	st.SigComputes += d.liveClasses
}

// idBound is the interned-id count past which compactIDs runs. A
// compaction leaves at most one id per live class, so the next one
// comes after at least classes + 1024 new ids: one re-encoding per new
// id at most, and the slack keeps small quotients from compacting on
// every event.
func (d *Dyn) idBound() int { return 2*d.liveClasses + 1024 }

// build computes the initial partition from scratch: classes by init
// key (sorted for determinism), everything dirty, one settle to the
// fixpoint.
func (d *Dyn) build() UpdateStats {
	st := UpdateStats{Rebuild: true}
	byKey := make(map[string][]int)
	for i := 0; i < d.s.Len(); i++ {
		if d.s.Alive(i) {
			d.aliveSlots++
			k := d.s.InitKey(i)
			byKey[k] = append(byKey[k], i)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := d.allocClass(d.initID(k))
		for _, i := range byKey[k] {
			d.seat(i, c)
			d.markDirty(i)
		}
	}
	var dummy bool
	d.settle(&st, &dummy)
	st.Classes = d.liveClasses
	return st
}

// allAlive views a static TokenStructure as a DynStructure with every
// node alive. Only builds run over it, and a build never runs the merge
// pass, so AppendOutEdges and Counting are never called.
type allAlive struct{ TokenStructure }

func (allAlive) Alive(int) bool                                      { return true }
func (allAlive) AppendOutEdges(buf []TaggedEdge, _ int) []TaggedEdge { return buf }
func (allAlive) Counting() bool                                      { return false }

// partition returns the classes of a build over an allAlive view. A
// build never empties a class and every slot is alive, so the labels and
// member lists already form a Partition; d must not be updated after.
func (d *Dyn) partition() *Partition { return &Partition{label: d.label, members: d.members} }

// Check audits the engine's invariants: membership/position coherence,
// init-key uniformity, and — the stability certificate — that every
// alive slot's signature matches its class's stored stable id. Meant
// for tests; cost is one full signature sweep.
func (d *Dyn) Check() error {
	alive := 0
	for i, l := range d.label {
		if l < 0 {
			if d.s.Alive(i) {
				return fmt.Errorf("partition: alive slot %d has no class", i)
			}
			continue
		}
		if !d.s.Alive(i) {
			return fmt.Errorf("partition: dead slot %d has class %d", i, l)
		}
		alive++
		if d.pos[i] >= len(d.members[l]) || d.members[l][d.pos[i]] != i {
			return fmt.Errorf("partition: slot %d position bookkeeping broken", i)
		}
		if got := d.initID(d.s.InitKey(i)); got != d.cinit[l] {
			return fmt.Errorf("partition: slot %d init key drifted from class %d", i, l)
		}
	}
	if alive != d.aliveSlots {
		return fmt.Errorf("partition: alive count %d != tracked %d", alive, d.aliveSlots)
	}
	live := 0
	for c := range d.members {
		if len(d.members[c]) == 0 {
			continue
		}
		live++
		for _, x := range d.members[c] {
			if d.label[x] != c {
				return fmt.Errorf("partition: member %d of class %d labeled %d", x, c, d.label[x])
			}
			if got := d.enc.sigID(x, d.lbl); got != d.csig[c] {
				return fmt.Errorf("partition: slot %d signature %d != class %d stable %d",
					x, got, c, d.csig[c])
			}
		}
	}
	if live != d.liveClasses {
		return fmt.Errorf("partition: live class count %d != tracked %d", live, d.liveClasses)
	}
	return nil
}
