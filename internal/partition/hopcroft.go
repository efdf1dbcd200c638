package partition

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
	// OutEdges returns node i's dependency edges. Called once per node.
	OutEdges(i int) []TaggedEdge
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

func newSegments(keys []string) *segments {
	n := len(keys)
	// A partition of n nodes has at most n classes, so the per-class
	// slices are sized once and carving never regrows them.
	s := &segments{
		order:   make([]int, n),
		pos:     make([]int, n),
		classOf: make([]int, n),
		start:   make([]int, 0, n),
		length:  make([]int, 0, n),
		carved:  make([]int, 0, n),
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if keys[idx[a]] != keys[idx[b]] {
			return keys[idx[a]] < keys[idx[b]]
		}
		return idx[a] < idx[b]
	})
	for i, node := range idx {
		s.order[i] = node
		s.pos[node] = i
	}
	for i := 0; i < n; {
		j := i
		for j < n && keys[idx[j]] == keys[idx[i]] {
			j++
		}
		c := len(s.start)
		s.start = append(s.start, i)
		s.length = append(s.length, j-i)
		s.carved = append(s.carved, 0)
		for k := i; k < j; k++ {
			s.classOf[idx[k]] = c
		}
		i = j
	}
	return s
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

// FixpointHopcroft computes the coarsest stable partition of s with the
// smaller-half splitter strategy of Hopcroft [H71], as Theorem 5
// prescribes: split work is proportional to the edges into the splitter
// (untouched class remainders are never visited), and split-off parts
// enter the queue while the largest part stays out, so every node is
// processed O(log n) times per incident edge — O((n + m) log n) overall.
//
// Touched-member grouping interns sorted tag multisets through a
// SigTable, so the hot loop compares small dense ints and reuses its
// scratch arrays instead of formatting strings and allocating maps per
// splitter.
//
// hook, when non-nil, fires once per splitter iteration that carved at
// least one new class; quiet iterations (no edges into the splitter, or
// no refinement) are skipped so observed runs stay proportional to
// actual refinement work.
func FixpointHopcroft(cs CountStructure, hook RoundHook) (*Partition, error) {
	n := cs.Len()
	if n == 0 {
		return nil, ErrEmptyStructure
	}
	keys := make([]string, n)
	outs := make([][]TaggedEdge, n)
	for i := 0; i < n; i++ {
		keys[i] = cs.InitKey(i)
		outs[i] = cs.OutEdges(i)
	}
	seg := newSegments(keys)

	// Reverse adjacency: rev[y] lists (x, tag) for each edge x --tag--> y.
	// Counted first so the whole adjacency lives in one backing array.
	deg := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		for _, e := range outs[i] {
			if e.To < 0 || e.To >= n {
				return nil, fmt.Errorf("partition: edge target %d out of range", e.To)
			}
			deg[e.To]++
			total++
		}
	}
	backing := make([]TaggedEdge, total)
	rev := make([][]TaggedEdge, n)
	off := 0
	for y := 0; y < n; y++ {
		rev[y] = backing[off : off : off+deg[y]]
		off += deg[y]
	}
	for i := 0; i < n; i++ {
		for _, e := range outs[i] {
			rev[e.To] = append(rev[e.To], TaggedEdge{To: i, Tag: e.Tag})
		}
	}

	inQueue := make([]bool, len(seg.start), 2*n)
	queue := make([]int, 0, 2*n)
	enqueue := func(c int) {
		for c >= len(inQueue) {
			inQueue = append(inQueue, false)
		}
		if !inQueue[c] {
			inQueue[c] = true
			queue = append(queue, c)
		}
	}
	for c := range seg.start {
		enqueue(c)
	}

	// Reusable scratch, cleared after each splitter: nodeTags[x] holds
	// the tags of x's edges into the current splitter, groups[id] the
	// members whose interned tag multiset got dense id `id`.
	var (
		tab     SigTable
		tokBuf  []uint64
		touched []int
		groups  [][]int
	)
	inTouched := make([]bool, n)
	// x has at most len(outs[x]) edges into any splitter, so nodeTags
	// windows carved from one edge-count-sized array never regrow.
	nodeTags := make([][]int, n)
	tagBacking := make([]int, total)
	off = 0
	for x := 0; x < n; x++ {
		nodeTags[x] = tagBacking[off : off : off+len(outs[x])]
		off += len(outs[x])
	}

	for head := 0; head < len(queue); head++ {
		splitter := queue[head]
		inQueue[splitter] = false
		classesBefore := len(seg.start)

		// Gather the nodes with edges into the splitter and their tags.
		touched = touched[:0]
		for i := seg.start[splitter]; i < seg.start[splitter]+seg.length[splitter]; i++ {
			y := seg.order[i]
			for _, e := range rev[y] {
				if !inTouched[e.To] {
					inTouched[e.To] = true
					touched = append(touched, e.To)
				}
				nodeTags[e.To] = append(nodeTags[e.To], e.Tag)
			}
		}
		if len(touched) == 0 {
			continue
		}

		// Group touched nodes by class, deterministically: classes in
		// ascending id, members ascending. Carving a class relabels only
		// its own members, so the runs found before carving stay valid.
		slices.SortFunc(touched, func(x, y int) int {
			return cmp.Or(cmp.Compare(seg.classOf[x], seg.classOf[y]), cmp.Compare(x, y))
		})
		for lo := 0; lo < len(touched); {
			c := seg.classOf[touched[lo]]
			hi := lo + 1
			for hi < len(touched) && seg.classOf[touched[hi]] == c {
				hi++
			}
			xs := touched[lo:hi]
			lo = hi
			if seg.length[c] <= 1 {
				continue
			}
			// Group the touched members by interned tag-multiset id; ids
			// are dense per class in first-appearance order.
			tab.Reset()
			ngroups := 0
			for _, x := range xs {
				tags := nodeTags[x]
				sort.Ints(tags)
				tokBuf = tokBuf[:0]
				for _, t := range tags {
					tokBuf = append(tokBuf, uint64(int64(t)))
				}
				id := tab.Intern(tokBuf)
				if id == ngroups {
					if ngroups < len(groups) {
						groups[ngroups] = groups[ngroups][:0]
					} else {
						groups = append(groups, nil)
					}
					ngroups++
				}
				groups[id] = append(groups[id], x)
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
				if len(groups[id]) > largestSize {
					largestSize = len(groups[id])
					largestID = id
				}
			}
			wasQueued := inQueue[c]

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
				for _, x := range groups[id] {
					seg.moveToFront(x)
				}
				nc := seg.finishCarve(c)
				for nc >= len(inQueue) {
					inQueue = append(inQueue, false)
				}
				// Queue policy: if c was pending, every part must be a
				// splitter; otherwise all parts except the largest.
				if wasQueued || id != largestID {
					enqueue(nc)
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
				enqueue(c)
			}
		}

		for _, x := range touched {
			inTouched[x] = false
			nodeTags[x] = nodeTags[x][:0]
		}
		if hook != nil && len(seg.start) > classesBefore {
			hook(head+1, len(seg.start), len(seg.start)-classesBefore)
		}
	}

	// Convert segments into a Partition with deterministic ids: classes
	// numbered by first member, member lists ascending, all carved from
	// one backing array sized by the segment lengths.
	p := &Partition{label: make([]int, n), members: make([][]int, 0, len(seg.start))}
	remap := make([]int, len(seg.start))
	for c := range remap {
		remap[c] = -1
	}
	memberBacking := make([]int, n)
	used := 0
	for i := 0; i < n; i++ {
		c := seg.classOf[i]
		if remap[c] < 0 {
			remap[c] = len(p.members)
			p.members = append(p.members, memberBacking[used:used:used+seg.length[c]])
			used += seg.length[c]
		}
		id := remap[c]
		p.label[i] = id
		p.members[id] = append(p.members[id], i)
	}
	return p, nil
}
