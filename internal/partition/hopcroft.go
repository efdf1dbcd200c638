package partition

import (
	"fmt"
	"slices"
)

// TaggedEdge is a directed, integer-tagged edge: the color of From (the
// owner) depends on the color of To through an edge with this Tag.
type TaggedEdge struct {
	To  int
	Tag int
}

// CountStructure describes a structure refinable by counting signatures:
// a node's environment is the multiset of (tag, target-class) pairs over
// its out-edges. For such structures the Hopcroft smaller-half strategy
// is sound — the count of edges into a split-off part determines the
// count into the remainder — which is not true of set-based signatures;
// set-rule refinement must use FixpointWorklist instead.
//
// The paper's Q-environment rules are counting signatures: a processor
// has exactly one edge per name to its n-neighbor (condition (2)) and a
// variable's environment counts n-neighbors per processor label
// (condition (3)).
type CountStructure interface {
	// Len returns the number of nodes.
	Len() int
	// InitKey returns the initial-coloring key of node i.
	InitKey(i int) string
	// AppendOutEdges appends node i's dependency edges to buf and
	// returns the extended slice, as AppendSignature does for tokens:
	// the drivers read every node's edges into one backing array they
	// reuse. Implementations must not retain buf.
	AppendOutEdges(buf []TaggedEdge, i int) []TaggedEdge
}

// segments is the classic Hopcroft partition structure: a permutation of
// the nodes in which every class occupies a contiguous segment, so moving
// a node into a freshly split-off part is a constant-time swap and the
// untouched remainder of a class is never enumerated.
type segments struct {
	order   []int // permutation of node ids
	pos     []int // pos[node] = index into order
	classOf []int // node -> class id
	start   []int // class id -> first index of its segment
	length  []int // class id -> segment length
	carved  []int // class id -> nodes carved off the segment front (scratch)
}

// moveToFront swaps node x to the carved prefix of its class segment.
func (s *segments) moveToFront(x int) {
	c := s.classOf[x]
	target := s.start[c] + s.carved[c]
	s.carved[c]++
	cur := s.pos[x]
	other := s.order[target]
	s.order[target], s.order[cur] = x, other
	s.pos[x], s.pos[other] = target, cur
}

// finishCarve turns the carved prefix of class c into a new class and
// shrinks c to its remainder; returns the new class id. The caller must
// ensure 0 < carved < length.
func (s *segments) finishCarve(c int) int {
	nc := len(s.start)
	cnt := s.carved[c]
	s.start = append(s.start, s.start[c])
	s.length = append(s.length, cnt)
	s.carved = append(s.carved, 0)
	for i := s.start[c]; i < s.start[c]+cnt; i++ {
		s.classOf[s.order[i]] = nc
	}
	s.start[c] += cnt
	s.length[c] -= cnt
	s.carved[c] = 0
	return nc
}

// fit returns s resized to n zeroed elements, reusing its storage when
// it is large enough.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// refiner holds every array of a Hopcroft run, so a caller that refines
// repeatedly (Dyn's merge pass) allocates nothing once its refiner has
// seen a structure as large as the current one. Each run resets the
// state it reads before reading it, so a failed run leaves nothing
// behind. The returned Partition aliases the refiner and is valid until
// its next run.
type refiner struct {
	seg    segments
	keyID  map[string]int // init key -> first-appearance id
	keys   []string       // distinct init keys
	rank   []int          // first-appearance id -> rank in key order
	off    []int          // node -> first out-edge in out; off[n] = m
	out    []TaggedEdge   // every node's out-edges, node by node
	revOff []int          // node -> first in-edge in rev; revOff[n] = m
	rev    []TaggedEdge   // (x, tag) per edge x --tag--> y, grouped by y

	inQueue []bool
	queue   []int
	// Splitter scratch: touched holds class<<32 | node of every node
	// with edges into the splitter (nodes and class ids stay below
	// 2^32), and node x's tags into it are tags[off[x]:off[x]+ntags[x]];
	// x has at most off[x+1]-off[x] of them, so the windows never
	// overlap. groups[id] lists the members whose interned tag multiset
	// got dense id `id`.
	touched []uint64
	ntags   []int
	tags    []uint64
	tab     SigTable
	groups  [][]int

	part    Partition
	remap   []int
	members []int // backing of part.members
}

// FixpointHopcroft computes the coarsest stable partition of s with the
// smaller-half splitter strategy of Hopcroft [H71], as Theorem 5
// prescribes: split work is proportional to the edges into the splitter
// (untouched class remainders are never visited), and split-off parts
// enter the queue while the largest part stays out, so every node is
// processed O(log n) times per incident edge — O((n + m) log n) overall.
//
// Touched-member grouping interns sorted tag multisets through a
// SigTable, so the hot loop compares small dense ints. Every array of
// the run lives in an unexported refiner; this entry point runs a fresh
// one, and Dyn's merge pass keeps one and reuses its storage across
// passes, so a warm pass allocates nothing.
//
// hook, when non-nil, fires once per splitter iteration that carved at
// least one new class; quiet iterations (no edges into the splitter, or
// no refinement) are skipped so observed runs stay proportional to
// actual refinement work.
func FixpointHopcroft(cs CountStructure, hook RoundHook) (*Partition, error) {
	var r refiner
	p, err := r.run(cs, hook)
	if err != nil {
		return nil, err
	}
	// A partition the caller keeps must not keep the run's other arrays.
	return &Partition{label: p.label, members: p.members}, nil
}

func (r *refiner) run(cs CountStructure, hook RoundHook) (*Partition, error) {
	n := cs.Len()
	if n == 0 {
		return nil, ErrEmptyStructure
	}
	if err := r.readEdges(cs, n); err != nil {
		return nil, err
	}
	r.initSegments(cs, n)
	seg := &r.seg
	r.inQueue = fit(r.inQueue, n) // a partition of n nodes has at most n classes
	r.queue = r.queue[:0]
	for c := range seg.start {
		r.enqueue(c)
	}
	r.ntags = fit(r.ntags, n)
	r.tags = fit(r.tags, len(r.out))

	for head := 0; head < len(r.queue); head++ {
		splitter := r.queue[head]
		r.inQueue[splitter] = false
		classesBefore := len(seg.start)

		// Gather the nodes with edges into the splitter and their tags.
		touched := r.touched[:0]
		for i := seg.start[splitter]; i < seg.start[splitter]+seg.length[splitter]; i++ {
			y := seg.order[i]
			for _, e := range r.rev[r.revOff[y]:r.revOff[y+1]] {
				x := e.To
				if r.ntags[x] == 0 {
					touched = append(touched, uint64(seg.classOf[x])<<32|uint64(x))
				}
				r.tags[r.off[x]+r.ntags[x]] = uint64(int64(e.Tag))
				r.ntags[x]++
			}
		}
		r.touched = touched
		if len(touched) == 0 {
			continue
		}

		// Group touched nodes by class, deterministically: classes in
		// ascending id, members ascending. Carving a class relabels only
		// its own members, so the runs found before carving stay valid.
		slices.Sort(touched)
		for lo := 0; lo < len(touched); {
			c := int(touched[lo] >> 32)
			hi := lo + 1
			for hi < len(touched) && int(touched[hi]>>32) == c {
				hi++
			}
			xs := touched[lo:hi]
			lo = hi
			if seg.length[c] <= 1 {
				continue
			}
			// Group the touched members by interned tag-multiset id; ids
			// are dense per class in first-appearance order.
			r.tab.Reset()
			ngroups := 0
			for _, key := range xs {
				x := int(uint32(key))
				tags := r.tags[r.off[x] : r.off[x]+r.ntags[x]]
				slices.Sort(tags)
				id := r.tab.Intern(tags)
				if id == ngroups {
					if ngroups < len(r.groups) {
						r.groups[ngroups] = r.groups[ngroups][:0]
					} else {
						r.groups = append(r.groups, nil)
					}
					ngroups++
				}
				r.groups[id] = append(r.groups[id], x)
			}
			untouched := seg.length[c] - len(xs)
			if untouched == 0 && ngroups == 1 {
				continue // whole class shares one signature: no split
			}

			// Determine the largest part (untouched remainder counts as
			// a part, id -1); it keeps the old class id when it is the
			// remainder, and stays out of the queue when c wasn't in it.
			largestID := -1
			largestSize := untouched
			for id := 0; id < ngroups; id++ {
				if len(r.groups[id]) > largestSize {
					largestSize = len(r.groups[id])
					largestID = id
				}
			}
			wasQueued := r.inQueue[c]

			// Carve every touched group except, when the remainder is
			// empty, the largest touched group (something must keep the
			// old id and carving all members is illegal).
			skipID := -1
			if untouched == 0 {
				skipID = largestID
				if skipID < 0 {
					skipID = 0
				}
			}
			for id := 0; id < ngroups; id++ {
				if id == skipID {
					continue
				}
				for _, x := range r.groups[id] {
					seg.moveToFront(x)
				}
				nc := seg.finishCarve(c)
				// Queue policy: if c was pending, every part must be a
				// splitter; otherwise all parts except the largest.
				if wasQueued || id != largestID {
					r.enqueue(nc)
				}
			}
			if wasQueued {
				continue // the remainder keeps c's pending queue slot
			}
			// c now holds the remainder (or the skipped largest touched
			// group). If that part is NOT the largest overall, it must
			// be enqueued too.
			remainderIsLargest := (skipID == -1 && largestID == -1) || (skipID != -1 && skipID == largestID)
			if !remainderIsLargest {
				r.enqueue(c)
			}
		}

		for _, key := range touched {
			r.ntags[uint32(key)] = 0
		}
		if hook != nil && len(seg.start) > classesBefore {
			hook(head+1, len(seg.start), len(seg.start)-classesBefore)
		}
	}
	return r.partition(n), nil
}

func (r *refiner) enqueue(c int) {
	if !r.inQueue[c] {
		r.inQueue[c] = true
		r.queue = append(r.queue, c)
	}
}

// readEdges appends every node's out-edges into one array and builds the
// reverse adjacency in another, each node's run of in-edges ascending by
// source as the edges were read.
func (r *refiner) readEdges(cs CountStructure, n int) error {
	r.off = fit(r.off, n+1)
	r.out = r.out[:0]
	for i := 0; i < n; i++ {
		r.off[i] = len(r.out)
		r.out = cs.AppendOutEdges(r.out, i)
	}
	m := len(r.out)
	r.off[n] = m
	r.revOff = fit(r.revOff, n+1)
	for _, e := range r.out {
		if e.To < 0 || e.To >= n {
			return fmt.Errorf("partition: edge target %d out of range", e.To)
		}
		r.revOff[e.To]++
	}
	// Prefix sums make revOff[y] the end of y's run; filling each run
	// backwards from its end leaves revOff[y] at its start.
	for y := 1; y <= n; y++ {
		r.revOff[y] += r.revOff[y-1]
	}
	r.rev = fit(r.rev, m)
	for x := n - 1; x >= 0; x-- {
		for k := r.off[x+1] - 1; k >= r.off[x]; k-- {
			e := r.out[k]
			r.revOff[e.To]--
			r.rev[r.revOff[e.To]] = TaggedEdge{To: x, Tag: e.Tag}
		}
	}
	return nil
}

// initSegments lays out the initial partition: one class per distinct
// init key, numbered in key order, each segment holding its nodes
// ascending. The keys are interned to dense ids and only the distinct
// ones are sorted; a counting sort then places the nodes.
func (r *refiner) initSegments(cs CountStructure, n int) {
	seg := &r.seg
	if r.keyID == nil {
		r.keyID = make(map[string]int)
	}
	clear(r.keyID)
	r.keys = r.keys[:0]
	seg.classOf = fit(seg.classOf, n)
	for i := 0; i < n; i++ {
		k := cs.InitKey(i)
		id, ok := r.keyID[k]
		if !ok {
			id = len(r.keys)
			r.keyID[k] = id
			r.keys = append(r.keys, k)
		}
		seg.classOf[i] = id
	}
	k := len(r.keys)
	r.rank = fit(r.rank, k)
	slices.Sort(r.keys)
	for rank, key := range r.keys {
		r.rank[r.keyID[key]] = rank
	}
	// Carving appends a class per split, at most n in all, so the
	// per-class arrays get capacity n once and never regrow.
	seg.start = slices.Grow(seg.start[:0], n)[:k]
	seg.length = fit(slices.Grow(seg.length[:0], n), k)
	seg.carved = fit(slices.Grow(seg.carved[:0], n), k)
	for i := 0; i < n; i++ {
		c := r.rank[seg.classOf[i]]
		seg.classOf[i] = c
		seg.length[c]++
	}
	for c, at := 0, 0; c < k; c++ {
		seg.start[c] = at
		at += seg.length[c]
	}
	// carved serves as each class's fill cursor, and is zero again after.
	seg.order = fit(seg.order, n)
	seg.pos = fit(seg.pos, n)
	for i := 0; i < n; i++ {
		c := seg.classOf[i]
		at := seg.start[c] + seg.carved[c]
		seg.carved[c]++
		seg.order[at], seg.pos[i] = i, at
	}
	clear(seg.carved)
}

// partition converts the segments into a Partition with deterministic
// ids: classes numbered by first member, member lists ascending, all
// carved from one backing array sized by the segment lengths.
func (r *refiner) partition(n int) *Partition {
	seg := &r.seg
	p := &r.part
	p.label = fit(p.label, n)
	p.members = slices.Grow(p.members[:0], len(seg.start))
	r.members = fit(r.members, n)
	r.remap = fit(r.remap, len(seg.start))
	for c := range r.remap {
		r.remap[c] = -1
	}
	used := 0
	for i := 0; i < n; i++ {
		c := seg.classOf[i]
		if r.remap[c] < 0 {
			r.remap[c] = len(p.members)
			p.members = append(p.members, r.members[used:used:used+seg.length[c]])
			used += seg.length[c]
		}
		id := r.remap[c]
		p.label[i] = id
		p.members[id] = append(p.members[id], i)
	}
	return p
}
