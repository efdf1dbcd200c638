package partition

import (
	"fmt"
	"slices"
	"strings"
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
	carved  []int // class id -> nodes carved or marked at the segment front (scratch)
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
	seg segments
	// refine's copy of a CountStructure: every node's out-edges, node by
	// node, its init-key id and the distinct keys by first appearance.
	off    []int
	out    []TaggedEdge
	init   []int
	keys   []string
	ids    []int        // rankInit scratch: the distinct key ids present
	rank   []int        // rankInit scratch: key id -> rank
	revOff []int        // node -> first in-edge in rev; revOff[n] = m
	rev    []TaggedEdge // (x, tag) per edge x --tag--> y, grouped by y

	inQueue []bool
	queue   []int
	// Splitter scratch. spl copies the splitter's members; touched lists
	// the classes whose carved prefix holds their touched members (nodes
	// with edges into the splitter). Node x's tags into the splitter are
	// tags[off[x]:off[x]+ntags[x]]; x has at most off[x+1]-off[x] of
	// them, so the windows never overlap. groups lists a class's touched
	// members per tag multiset, least member first.
	spl     []int
	touched []int
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
// Touched nodes are grouped by marking, not sorting: each moves to the
// front of its class segment, and only the touched class ids are
// sorted. A class's touched members are grouped by sorted tag multiset,
// interned through a SigTable so the hot loop compares small dense
// ints. Every array of the run lives in an unexported refiner; this
// entry point reads cs into a fresh one, and Dyn's merge pass keeps one
// and hands it the quotient's arrays, so a warm pass allocates nothing.
//
// hook, when non-nil, fires once per splitter iteration that carved at
// least one new class; quiet iterations (no edges into the splitter, or
// no refinement) are skipped so observed runs stay proportional to
// actual refinement work.
func FixpointHopcroft(cs CountStructure, hook RoundHook) (*Partition, error) {
	var r refiner
	p, err := r.refine(cs, hook)
	if err != nil {
		return nil, err
	}
	// A partition the caller keeps must not keep the run's other arrays.
	return &Partition{label: p.label, members: p.members}, nil
}

// refine reads cs's out-edges and init keys into the refiner's own input
// arrays and runs on them.
func (r *refiner) refine(cs CountStructure, hook RoundHook) (*Partition, error) {
	n := cs.Len()
	r.off = fit(r.off, n+1)
	r.out = r.out[:0]
	for i := 0; i < n; i++ {
		r.off[i] = len(r.out)
		r.out = cs.AppendOutEdges(r.out, i)
	}
	r.off[n] = len(r.out)
	keyID := make(map[string]int)
	r.keys = r.keys[:0]
	r.init = fit(r.init, n)
	for i := range r.init {
		k := cs.InitKey(i)
		id, ok := keyID[k]
		if !ok {
			id = len(r.keys)
			keyID[k] = id
			r.keys = append(r.keys, k)
		}
		r.init[i] = id
	}
	return r.run(r.off, r.out, r.init, r.rankInit(r.init, r.keys), hook)
}

// rankInit rewrites init, whose entries index keys, to the rank of each
// entry's key among the distinct keys init holds, so the initial classes
// are numbered in key order; it returns their count. Only the distinct
// keys are sorted.
func (r *refiner) rankInit(init []int, keys []string) int {
	r.rank = fit(r.rank, len(keys))
	r.ids = r.ids[:0]
	for _, id := range init {
		if r.rank[id] == 0 {
			r.rank[id] = 1
			r.ids = append(r.ids, id)
		}
	}
	slices.SortFunc(r.ids, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
	for rank, id := range r.ids {
		r.rank[id] = rank
	}
	for i, id := range init {
		init[i] = r.rank[id]
	}
	return len(r.ids)
}

// run refines the structure whose node i has the out-edges
// edges[off[i]:off[i+1]] and starts in class init[i], one of k classes
// numbered in init-key order. It reads off, edges and init in place and
// writes none of them.
func (r *refiner) run(off []int, edges []TaggedEdge, init []int, k int, hook RoundHook) (*Partition, error) {
	n := len(init)
	if n == 0 {
		return nil, ErrEmptyStructure
	}
	if err := r.reverse(off, edges, n); err != nil {
		return nil, err
	}
	r.initSegments(init, k)
	seg := &r.seg
	r.inQueue = fit(r.inQueue, n) // a partition of n nodes has at most n classes
	r.queue = r.queue[:0]
	for c := range seg.start {
		r.enqueue(c)
	}
	r.ntags = fit(r.ntags, n)
	r.tags = fit(r.tags, len(edges))

	for head := 0; head < len(r.queue); head++ {
		splitter := r.queue[head]
		r.inQueue[splitter] = false
		classesBefore := len(seg.start)

		// Gather the nodes with edges into the splitter and their tags,
		// marking each by moving it to the front of its class segment.
		// That can permute the splitter's own segment, so its members
		// are copied first. A singleton class cannot split, so its nodes
		// are skipped.
		lo := seg.start[splitter]
		r.spl = append(r.spl[:0], seg.order[lo:lo+seg.length[splitter]]...)
		touched := r.touched[:0]
		for _, y := range r.spl {
			for _, e := range r.rev[r.revOff[y]:r.revOff[y+1]] {
				x := e.To
				c := seg.classOf[x]
				if seg.length[c] == 1 {
					continue
				}
				if r.ntags[x] == 0 {
					if seg.carved[c] == 0 {
						touched = append(touched, c)
					}
					seg.moveToFront(x)
				}
				r.tags[off[x]+r.ntags[x]] = uint64(int64(e.Tag))
				r.ntags[x]++
			}
		}
		r.touched = touched

		// Split the touched classes in ascending id. Carving a class
		// relabels only its own members, so the marks of the classes
		// after it stay valid.
		slices.Sort(touched)
		for _, c := range touched {
			xs := seg.order[seg.start[c] : seg.start[c]+seg.carved[c]]
			seg.carved[c] = 0
			ngroups := r.group(xs, off)
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

		if hook != nil && len(seg.start) > classesBefore {
			hook(head+1, len(seg.start), len(seg.start)-classesBefore)
		}
	}
	return r.partition(n), nil
}

// group sorts each touched member's tags, clears its tag count, and
// groups the members by tag multiset into groups[:ngroups], ordered by
// least member. That is the order in which the groups first appear over
// ascending members, so the carving order does not depend on the order
// the members were touched in. A member whose tags equal the previous
// member's joins its group without a table probe, and the first
// multiset is interned only once a second one shows up.
func (r *refiner) group(xs, off []int) (ngroups int) {
	r.tab.Reset()
	var first, prev []uint64
	id := 0
	for _, x := range xs {
		tags := r.tags[off[x] : off[x]+r.ntags[x]]
		r.ntags[x] = 0
		slices.Sort(tags)
		switch {
		case ngroups == 0:
			first = tags
		case slices.Equal(tags, prev):
		default:
			if r.tab.Len() == 0 {
				r.tab.Intern(first)
			}
			id = r.tab.Intern(tags)
		}
		if id == ngroups {
			if ngroups < len(r.groups) {
				r.groups[ngroups] = r.groups[ngroups][:0]
			} else {
				r.groups = append(r.groups, nil)
			}
			ngroups++
		}
		prev = tags
		g := append(r.groups[id], x)
		if x < g[0] {
			g[0], g[len(g)-1] = x, g[0]
		}
		r.groups[id] = g
	}
	if ngroups > 1 {
		slices.SortFunc(r.groups[:ngroups], func(a, b []int) int { return a[0] - b[0] })
	}
	return ngroups
}

func (r *refiner) enqueue(c int) {
	if !r.inQueue[c] {
		r.inQueue[c] = true
		r.queue = append(r.queue, c)
	}
}

// reverse builds the reverse adjacency of the n nodes' out-edges, each
// node's run of in-edges ascending by source.
func (r *refiner) reverse(off []int, edges []TaggedEdge, n int) error {
	r.revOff = fit(r.revOff, n+1)
	for _, e := range edges {
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
	r.rev = fit(r.rev, len(edges))
	for x := n - 1; x >= 0; x-- {
		for k := off[x+1] - 1; k >= off[x]; k-- {
			e := edges[k]
			r.revOff[e.To]--
			r.rev[r.revOff[e.To]] = TaggedEdge{To: x, Tag: e.Tag}
		}
	}
	return nil
}

// initSegments lays out the initial partition: node i in class init[i],
// one of k, each segment holding its nodes ascending, placed by a
// counting sort.
func (r *refiner) initSegments(init []int, k int) {
	seg := &r.seg
	n := len(init)
	// Carving appends a class per split, at most n in all, so the
	// per-class arrays get capacity n once and never regrow.
	seg.start = slices.Grow(seg.start[:0], n)[:k]
	seg.length = fit(slices.Grow(seg.length[:0], n), k)
	seg.carved = fit(slices.Grow(seg.carved[:0], n), k)
	seg.classOf = append(seg.classOf[:0], init...)
	for _, c := range init {
		seg.length[c]++
	}
	for c, at := 0, 0; c < k; c++ {
		seg.start[c] = at
		at += seg.length[c]
	}
	// carved serves as each class's fill cursor, and is zero again after.
	seg.order = fit(seg.order, n)
	seg.pos = fit(seg.pos, n)
	for i, c := range init {
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
