package mc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"unsafe"

	"simsym/internal/canon"
	"simsym/internal/machine"
)

// stateIndex is the checker's visited set, collapse-compressed (SPIN's
// COLLAPSE): a state key is a sequence of component windows — one per
// processor frame and one per variable, the units machine.AppendStateKey
// length-prefixes — and the index stores each state as the fixed-width
// vector of its windows' ids in a component table (compTable) instead of
// as key bytes. Window ids are exact, so two states are equal exactly
// when their vectors are. Vectors are bucketed by their Zobrist hash
// (hashVec), which the checker updates per step by a delta its step memo
// carries, and a tag match is confirmed by one fixed-width compare, so
// ids are collision-free by construction — hash quality affects only
// speed, never verdicts.
//
//   - Ids are int64, so they neither truncate nor alias past 2³¹.
//     States are inserted in BFS commit order, so a state's id is baseID
//     plus its record index and doubles as its node index in the
//     checker's bookkeeping; baseID lets tests pin the id stream right
//     at the 32-bit boundary.
//   - Vectors live in a chunked byte arena (fixed-size chunks,
//     append-only, never moved once full). Each chunk stores its ids at
//     one width w of 1, 2 or 4 little-endian bytes: it opens at the
//     fewest bytes that hold the component table's largest id, and only
//     the open chunk is ever re-encoded wider, when an id outgrows it.
//     Record i sits in chunk i/perChunk at byte (i%perChunk)·w·W,
//     perChunk being what fits in a chunk at 4 bytes, so no per-state
//     location table is needed and no widening moves a record to
//     another chunk.
type stateIndex struct {
	buckets bucketTable // full vector hash -> record index
	comps   compTable
	baseID  int64 // first id assigned; nonzero only in boundary tests

	width    int   // W: components per vector
	perChunk int64 // records per chunk
	n        int64 // records written

	chunks [][]byte // chunk i holds records [i·perChunk, (i+1)·perChunk)
	widths []uint8  // widths[i]: chunk i's bytes per id, 1, 2 or 4
	hot    int64    // allocated chunk bytes, kept by write and widen
}

const (
	// chunkSize is a chunk's span at 4 bytes per id: a chunk holds the
	// records that fit in it at that width, and at least one.
	chunkSize = 64 << 10

	// bucketSlotSize is the bucket directory's exact footprint per
	// allocated open-addressing slot: a tag and an index in one uint64.
	bucketSlotSize = 8
	// maxIndices bounds a bucket table's indices, so index+1 fits a
	// slot's 32 bits and a table never fills its 2³² slots: the
	// checker's MaxStates cap and compTable's id check see to it.
	maxIndices = math.MaxUint32
)

// hashVec is the Zobrist hash of a vector: the xor of vecWord over its
// positions, so a new id at one position xors in its word and the old's.
func hashVec(vec []uint32) uint64 {
	var h uint64
	for c, id := range vec {
		h ^= vecWord(c, id)
	}
	return h
}

// vecWord is the hash word of id at position c of a vector.
func vecWord(c int, id uint32) uint64 {
	return canon.Mix64(uint64(c)<<32 | uint64(id))
}

// newStateIndex builds an empty index over width-component vectors.
// A chunk holds at least one record, so a vector wider than a chunk
// gets a chunk of its own.
func newStateIndex(width int) *stateIndex {
	return &stateIndex{width: width, perChunk: max(1, chunkSize/(4*int64(width)))}
}

// bucketTable is an open-addressed multimap from 64-bit hashes to dense
// indices — the bucket directory of the visited index, the component
// table and the step memo. A slot is one uint64: the hash's top 32 bits,
// its tag, above index+1, or 0 when empty. Its home is the tag's top
// bits, so a lookup reads one array, the home slot and a short linear
// scan (load never exceeds 3/4), and growth re-homes each slot from its
// tag alone, reading no key; the table stops doubling at 2³² slots.
// Indices sharing a tag occupy separate slots along the probe chain and
// the caller's exact comparison disambiguates them, so probe order never
// affects results.
type bucketTable struct {
	slots []uint64
	shift uint // a tag's home is tag >> shift
	n     int
}

// add inserts index i under hash, growing at 3/4 load.
func (bt *bucketTable) add(hash uint64, i uint32) {
	if bt.n*4 >= len(bt.slots)*3 && uint64(len(bt.slots)) < 1<<32 {
		bt.grow()
	}
	bt.place(hash>>32<<32 | (uint64(i) + 1))
	bt.n++
}

// place puts slot s at or after its home.
func (bt *bucketTable) place(s uint64) {
	mask := uint64(len(bt.slots) - 1)
	sl := s >> 32 >> bt.shift
	for bt.slots[sl] != 0 {
		sl = (sl + 1) & mask
	}
	bt.slots[sl] = s
}

func (bt *bucketTable) grow() {
	old := bt.slots
	size := 1024
	if len(old) > 0 {
		size = len(old) * 2
	}
	bt.slots = make([]uint64, size)
	bt.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s != 0 {
			bt.place(s)
		}
	}
}

// probe returns hash's tag and home, where its probe chain starts.
func (bt *bucketTable) probe(hash uint64) (tag, sl uint64) {
	return hash >> 32, hash >> 32 >> bt.shift
}

// next walks the probe chain from slot *sl to the first slot whose tag
// is tag, returns its index and leaves *sl after it; it returns false at
// the chain's end.
func (bt *bucketTable) next(tag uint64, sl *uint64) (uint32, bool) {
	mask := uint64(len(bt.slots) - 1)
	for i := *sl; i < uint64(len(bt.slots)); i = (i + 1) & mask {
		s := bt.slots[i]
		if s == 0 {
			break
		}
		if s>>32 == tag {
			*sl = (i + 1) & mask
			return uint32(s) - 1, true
		}
	}
	return 0, false
}

// lookupHashed reports whether vec (with its precomputed hash) is
// already indexed, and its id if so.
func (t *stateIndex) lookupHashed(vec []uint32, hash uint64) (id int64, ok bool) {
	bt := &t.buckets
	tag, sl := bt.probe(hash)
	for i, ok := bt.next(tag, &sl); ok; i, ok = bt.next(tag, &sl) {
		if rec, w := t.record(int64(i)); equalAt(rec, w, vec) {
			return t.baseID + int64(i), true
		}
	}
	return 0, false
}

// insert appends vec (not yet present; hash as from lookupHashed) with
// the next dense id and returns it. vec is copied.
func (t *stateIndex) insert(vec []uint32, hash uint64) int64 {
	ei := t.write(vec)
	t.buckets.add(hash, uint32(ei))
	return t.baseID + ei
}

// idWidth is the fewest bytes, 1, 2 or 4, that hold id.
func idWidth(id uint64) uint8 {
	switch {
	case id <= math.MaxUint8:
		return 1
	case id <= math.MaxUint16:
		return 2
	}
	return 4
}

// write appends vec as the next record and returns its index. A new
// chunk opens at the width of the component table's largest id; the open
// chunk is re-encoded wider first when one of vec's ids needs it.
func (t *stateIndex) write(vec []uint32) int64 {
	ei := t.n
	ci := int(ei / t.perChunk)
	var top uint32
	for _, id := range vec {
		top = max(top, id)
	}
	w := idWidth(uint64(top))
	if ci == len(t.chunks) {
		w = max(w, idWidth(t.comps.maxID()))
		t.chunks = append(t.chunks, make([]byte, t.perChunk*int64(w)*int64(t.width)))
		t.widths = append(t.widths, w)
		t.hot += int64(len(t.chunks[ci]))
	} else if w > t.widths[ci] {
		t.widen(ci, w)
	}
	w = t.widths[ci]
	rec := t.chunks[ci][int(ei%t.perChunk)*int(w)*t.width:]
	for c, id := range vec {
		putID(rec, w, c, id)
	}
	t.n++
	return ei
}

// widen re-encodes chunk ci, the open one, at w bytes per id.
func (t *stateIndex) widen(ci int, w uint8) {
	old, ow := t.chunks[ci], t.widths[ci]
	t.chunks[ci] = make([]byte, t.perChunk*int64(w)*int64(t.width))
	for i := range int(t.n-int64(ci)*t.perChunk) * t.width {
		putID(t.chunks[ci], w, i, getID(old, ow, i))
	}
	t.widths[ci] = w
	t.hot += int64(len(t.chunks[ci]) - len(old))
}

// putID stores id as the i-th w-byte word of b.
func putID(b []byte, w uint8, i int, id uint32) {
	switch w {
	case 1:
		b[i] = byte(id)
	case 2:
		binary.LittleEndian.PutUint16(b[2*i:], uint16(id))
	default:
		binary.LittleEndian.PutUint32(b[4*i:], id)
	}
}

// getID reads the i-th w-byte word of b.
func getID(b []byte, w uint8, i int) uint32 {
	switch w {
	case 1:
		return uint32(b[i])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return binary.LittleEndian.Uint32(b[4*i:])
}

// equalAt reports whether rec, a record stored at w bytes per id, holds
// vec. An id too wide for w never equals a stored one.
func equalAt(rec []byte, w uint8, vec []uint32) bool {
	switch w {
	case 1:
		rec = rec[:len(vec)]
		for i, id := range vec {
			if uint32(rec[i]) != id {
				return false
			}
		}
	case 2:
		rec = rec[:2*len(vec)]
		for i, id := range vec {
			if uint32(binary.LittleEndian.Uint16(rec[2*i:])) != id {
				return false
			}
		}
	default:
		rec = rec[:4*len(vec)]
		for i, id := range vec {
			if binary.LittleEndian.Uint32(rec[4*i:]) != id {
				return false
			}
		}
	}
	return true
}

// record returns record ei's bytes, zero-copy, and their width per id.
func (t *stateIndex) record(ei int64) ([]byte, uint8) {
	ci := int(ei / t.perChunk)
	w := t.widths[ci]
	n := int(w) * t.width
	off := int(ei%t.perChunk) * n
	return t.chunks[ci][off : off+n], w
}

// storedBytes is what the index stores per state key: the vectors, each
// at its chunk's width, plus the component table's distinct windows.
func (t *stateIndex) storedBytes() int64 {
	total := int64(len(t.comps.data))
	for ci, w := range t.widths {
		total += min(t.perChunk, t.n-int64(ci)*t.perChunk) * int64(w) * int64(t.width)
	}
	return total
}

// memBytes estimates the index's resident memory footprint from
// capacities, not lengths: allocated chunk bytes at their widths (a
// half-filled chunk costs its full size), the bucket directory's exact
// slot count and the component table. Keeping this honest is what lets
// a MaxMemBytes budget end the check with its partial Result instead of
// an OOM; it is O(1), because the budget polls it after every push.
func (t *stateIndex) memBytes() int64 {
	return t.hot + int64(len(t.buckets.slots))*bucketSlotSize + t.comps.memBytes()
}

// errCompIDs reports a component table that ran out of uint32 ids.
var errCompIDs = errors.New("mc: more than 2³² distinct component windows")

// compTable interns component windows — the canonical encodings of
// single processor frames and variables — as dense uint32 ids in
// first-appearance order. A tag match is confirmed by comparing the
// exact window bytes, so ids are collision-free. Ids name byte strings,
// not positions: a state's vector says which window each of its
// components holds. Beside each window the table keeps the value it
// encodes, so a vector alone rebuilds its state (load). The zero value
// is an empty table.
type compTable struct {
	buckets bucketTable // window hash -> local index
	offs    []int       // window i is data[offs[i]:offs[i+1]]; offs[0] = 0 once non-empty
	data    []byte
	keyLens []int64 // keyLens[i]: window i's bytes in a state key, with its uvarint length prefix
	base    uint64  // first id assigned; nonzero only in overflow tests
	win     []byte  // encode scratch for internEntry

	// vals[k][i] is the value window i encodes at a processor (k = 0) or
	// variable (k = 1) position, copied from the machine that first
	// interned it there. The kinds are kept apart because the bytes can
	// coincide: a frame at pc 59 starts with 'v', as an S/L variable does.
	vals     [2][]*machine.Component
	valBytes int64 // the heap the stored values hold
}

// intern returns win's id, assigning the next one on first appearance.
// A slot's home lies in the hash's top bits, which FNV-1a hardly mixes
// the last bytes into (windows that differ in their last byte share one
// home in a 1024-slot table), so Mix64 finishes the hash.
func (ct *compTable) intern(win []byte) (uint32, error) {
	return ct.internHashed(win, canon.Mix64(canon.HashBytes(win)))
}

// internHashed is intern with a precomputed hash — the seam tests use to
// force equal hashes.
func (ct *compTable) internHashed(win []byte, hash uint64) (uint32, error) {
	bt := &ct.buckets
	tag, sl := bt.probe(hash)
	for i, ok := bt.next(tag, &sl); ok; i, ok = bt.next(tag, &sl) {
		if bytes.Equal(ct.data[ct.offs[i]:ct.offs[i+1]], win) {
			return uint32(ct.base + uint64(i)), nil
		}
	}
	if ct.offs == nil {
		ct.offs = []int{0}
	}
	i := len(ct.offs) - 1
	if ct.base+uint64(i) > math.MaxUint32 || uint64(i) >= maxIndices {
		return 0, errCompIDs
	}
	ct.data = append(ct.data, win...)
	ct.offs = append(ct.offs, len(ct.data))
	var prefix [binary.MaxVarintLen64]byte
	ct.keyLens = append(ct.keyLens, int64(binary.PutUvarint(prefix[:], uint64(len(win)))+len(win)))
	bt.add(hash, uint32(i))
	return uint32(ct.base + uint64(i)), nil
}

// maxID is the largest id the table has assigned, or 0 while it is empty.
func (ct *compTable) maxID() uint64 {
	if len(ct.offs) < 2 {
		return 0
	}
	return ct.base + uint64(len(ct.offs)-2)
}

// keyLen is the length of the full state key (machine.AppendStateKey)
// vec stands for: every window plus its uvarint length prefix.
func (ct *compTable) keyLen(vec []uint32) int64 {
	var total int64
	for _, id := range vec {
		total += ct.keyLens[uint64(id)-ct.base]
	}
	return total
}

// memBytes is the table's resident footprint, from capacities: windows,
// offsets, key lengths, buckets and the stored values.
func (ct *compTable) memBytes() int64 {
	return int64(cap(ct.data)+8*cap(ct.offs)+8*cap(ct.keyLens)+cap(ct.win)) + int64(len(ct.buckets.slots))*bucketSlotSize +
		8*int64(cap(ct.vals[0])+cap(ct.vals[1])) + ct.valBytes
}

// valKind is the value kind of component c of m: 0 for a processor, 1
// for a variable.
func valKind(m *machine.Machine, c int) int {
	if c < m.NumProcs() {
		return 0
	}
	return 1
}

// internEntry sets entry c of vec, a vector of m, to component c's
// window id (processors first, then variables — the state key's order).
// The component's value is stored the first time the id appears at a
// position of its kind.
func (ct *compTable) internEntry(vec []uint32, m *machine.Machine, c int) error {
	k := valKind(m, c)
	if k == 0 {
		ct.win = m.AppendProcFingerprint(ct.win[:0], c)
	} else {
		ct.win = m.AppendVarFingerprint(ct.win[:0], c-m.NumProcs())
	}
	id, err := ct.intern(ct.win)
	if err != nil {
		return err
	}
	vec[c] = id
	i := int(uint64(id) - ct.base)
	for len(ct.vals[k]) <= i {
		ct.vals[k] = append(ct.vals[k], nil)
	}
	if ct.vals[k][i] == nil {
		x := m.Component(c)
		ct.vals[k][i] = &x
		ct.valBytes += int64(unsafe.Sizeof(x)) + 16*int64(cap(x.Frame.Locals)+cap(x.Sub))
	}
	return nil
}

// load rewrites m from the state the vector have spells to the state
// want spells: each component whose id differs is set to a copy of the
// value stored for its new id, and have becomes want. m may then step.
func (ct *compTable) load(m *machine.Machine, have, want []uint32) {
	for c, id := range want {
		if have[c] != id {
			have[c] = id
			m.SetComponent(c, ct.vals[valKind(m, c)][uint64(id)-ct.base])
		}
	}
}

// view is load without the copies: each differing component of m is
// pointed at the stored value itself (machine.ViewComponent), so m must
// only be read.
func (ct *compTable) view(m *machine.Machine, have, want []uint32) {
	for c, id := range want {
		if have[c] != id {
			have[c] = id
			m.ViewComponent(c, ct.vals[valKind(m, c)][uint64(id)-ct.base])
		}
	}
}

// vector fills dst with the vector of m, interning every component.
func (ct *compTable) vector(dst []uint32, m *machine.Machine) error {
	for c := range dst {
		if err := ct.internEntry(dst, m, c); err != nil {
			return err
		}
	}
	return nil
}

// frame returns the frame window id encodes at a processor position.
func (ct *compTable) frame(id uint32) *machine.Frame {
	return &ct.vals[0][uint64(id)-ct.base].Frame
}

// stepMemo maps a step of processor p from frame id f, touching the
// variable whose window id is v (v = f for a step that touches none), to
// the frame id f2 and variable id v2 after it, and to the delta that
// change makes to a vector's hash. A step reads and writes only those
// two components (machine.StepVar), so (p, f, v) fixes (f2, v2). p is
// part of the key because naming may alias: under Q a post rewrites
// every slot of p's window that lists the variable, which depends on p.
// A step slot per (p, f) answers most steps without hashing the key.
type stepMemo struct {
	buckets bucketTable // key hash -> entry index
	entries []memoEntry
	slots   []stepSlot // slots[(f−compTable.base)·P+p], for P processors
}

// memoEntry is one memoized step. delta is the change the step makes to
// a vector's hash: the xor of vecWord for f and f2 at p's position and,
// when the step touches a variable, for v and v2 at its position; a step
// that touches none keys as (p, f, f) and covers p's position once. The
// step stutters exactly when f2 == f and v2 == v.
type memoEntry struct {
	p, f, v, f2, v2 uint32
	delta           uint64
}

// stepSlot holds, each plus one and zero until set, what p's frame id f
// fixes: vc, the position of the component its step touches (the
// variable machine.StepVar names, or p's own when none: the key (p, f,
// f)), and last, the entry last used here, which a step takes when its
// variable id is that entry's.
type stepSlot struct{ vc, last uint32 }

// slot returns slot i, doubling the slots, from 256, until they hold it.
func (sm *stepMemo) slot(i int) *stepSlot {
	if i >= len(sm.slots) {
		slots := make([]stepSlot, max(i+1, 2*len(sm.slots), 256))
		copy(slots, sm.slots)
		sm.slots = slots
	}
	return &sm.slots[i]
}

// lookup returns the entry for (p, f, v), whose slot is s, and whether
// there is one, with the key's hash for a following add. An entry the
// hashed lookup finds becomes s's last.
func (sm *stepMemo) lookup(s *stepSlot, p, f, v uint32) (*memoEntry, uint64, bool) {
	if s.last != 0 {
		if e := &sm.entries[s.last-1]; e.v == v {
			return e, 0, true
		}
	}
	hash := canon.HashTokens([]uint32{p, f, v})
	bt := &sm.buckets
	tag, sl := bt.probe(hash)
	for i, ok := bt.next(tag, &sl); ok; i, ok = bt.next(tag, &sl) {
		if e := &sm.entries[i]; e.p == p && e.f == f && e.v == v {
			s.last = i + 1
			return e, hash, true
		}
	}
	return nil, hash, false
}

// add records e, the entry for slot s, under its key's hash and returns
// the stored entry, which becomes s's last.
func (sm *stepMemo) add(s *stepSlot, hash uint64, e memoEntry) *memoEntry {
	sm.buckets.add(hash, uint32(len(sm.entries)))
	sm.entries = append(sm.entries, e)
	s.last = uint32(len(sm.entries))
	return &sm.entries[len(sm.entries)-1]
}

// memBytes is the memo's footprint, from capacities.
func (sm *stepMemo) memBytes() int64 {
	return int64(len(sm.buckets.slots))*bucketSlotSize + int64(cap(sm.entries))*int64(unsafe.Sizeof(memoEntry{})) +
		int64(cap(sm.slots))*int64(unsafe.Sizeof(stepSlot{}))
}
