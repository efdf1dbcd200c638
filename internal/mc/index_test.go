package mc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"simsym/internal/canon"
)

// testWidth is wide enough (256 records a chunk) that a few thousand
// vectors fill several chunks.
const testWidth = 64

// testVec builds a distinct width-component vector for each i.
func testVec(i, width int) []uint32 {
	vec := make([]uint32, width)
	for c := range vec {
		vec[c] = uint32(c)
	}
	vec[0] = uint32(i % 7)
	vec[width-1] = uint32(i)
	return vec
}

// mustInsert inserts a vector known to be absent and returns its gid.
func mustInsert(t *testing.T, idx *stateIndex, vec []uint32) int64 {
	t.Helper()
	hash := hashVec(vec)
	if _, ok := idx.lookupHashed(vec, hash); ok {
		t.Fatalf("vector %v unexpectedly present", vec)
	}
	return idx.insert(vec, hash)
}

// recountHot is the O(chunks) walk the running hot-bytes count replaces.
func recountHot(idx *stateIndex) int64 {
	var total int64
	for _, c := range idx.chunks {
		total += int64(len(c))
	}
	return total
}

// TestIndexIDWidthBoundary pins the int32 → int64 id fix: the old index
// stored ids as []int32, so the id stream silently wrapped and aliased
// distinct states past 2³¹. The baseID hook pins the stream right at the
// boundary; crossing it must neither truncate nor alias. Ids are still
// int64, but the bucket directory now stores uint32 record indices
// (baseID-relative), which Check keeps below 2³²−1 by capping MaxStates
// (TestMaxStatesAboveNodeIDs).
func TestIndexIDWidthBoundary(t *testing.T) {
	idx := newStateIndex(3)
	idx.baseID = (int64(1) << 31) - 2

	vecs := make([][]uint32, 6)
	gids := make([]int64, 6)
	for i := range vecs {
		vecs[i] = testVec(i, 3)
		gids[i] = mustInsert(t, idx, vecs[i])
		if want := idx.baseID + int64(i); gids[i] != want {
			t.Fatalf("gid %d = %d, want %d", i, gids[i], want)
		}
	}
	if gids[5] <= int64(1)<<31 {
		t.Fatalf("test must cross the int32 boundary; last gid = %d", gids[5])
	}
	// Every vector must resolve to its own id — an int32-width index
	// would alias ids 2147483646 and beyond after truncation.
	for i, vec := range vecs {
		if gid, ok := idx.lookupHashed(vec, hashVec(vec)); !ok || gid != gids[i] {
			t.Errorf("vector %d resolved to gid %d (ok=%v), want %d", i, gid, ok, gids[i])
		}
	}
}

// TestIndexMemBytesCountsCapacities pins the capacity-accounting fix:
// the arena allocates whole chunks, so even a single tiny vector must be
// charged a full chunk — the old length-based estimate undercounted by
// nearly the whole allocation and fired the memory budget late. Ids
// below 256 take one byte each, so that chunk is perChunk·W bytes.
func TestIndexMemBytesCountsCapacities(t *testing.T) {
	idx := newStateIndex(2)
	mustInsert(t, idx, []uint32{1, 2})
	if chunk := idx.perChunk * 2; int64(len(idx.chunks[0])) != chunk || idx.memBytes() < chunk {
		t.Errorf("memBytes = %d after one insert; a %d-byte chunk is allocated and must be charged", idx.memBytes(), chunk)
	}

	// The bucket directory must charge exactly bucketSlotSize per
	// allocated open-addressing slot, and vectors forced to share one
	// full hash must land in separate slots that all still resolve
	// exactly (the probe chain disambiguates by vector comparison).
	idx2 := newStateIndex(3)
	hash := hashVec([]uint32{7})
	for i := 0; i < 100; i++ {
		idx2.insert(testVec(i, 3), hash)
	}
	if idx2.buckets.n != 100 {
		t.Errorf("bucket table holds %d entries, want 100", idx2.buckets.n)
	}
	for i := 0; i < 100; i++ {
		gid, ok := idx2.lookupHashed(testVec(i, 3), hash)
		if !ok {
			t.Fatalf("same-hash vector %d not found", i)
		}
		if gid != int64(i) {
			t.Errorf("same-hash vector %d resolved to gid %d", i, gid)
		}
	}
	if got, wantMin := idx2.memBytes(), int64(len(idx2.buckets.slots))*bucketSlotSize; got < wantMin {
		t.Errorf("memBytes = %d must cover the bucket directory's %d bytes", got, wantMin)
	}

	// The component table is resident and charged too.
	before := idx2.memBytes()
	if _, err := idx2.comps.intern([]byte("a window")); err != nil {
		t.Fatal(err)
	}
	if got := idx2.memBytes(); got-before < int64(len(idx2.comps.buckets.slots))*bucketSlotSize {
		t.Errorf("memBytes grew %d after the first intern; the component table's bucket directory must be charged", got-before)
	}
}

// TestIndexRoundTrip: every vector resolves to its id, and record i sits
// in chunk i/perChunk at byte (i%perChunk)·w·W, w being its chunk's bytes
// per id. The second width is one id past what a chunk holds at 4 bytes
// per id, so each of its records gets a chunk of its own.
func TestIndexRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		width       int
		n, perChunk int64
	}{
		{testWidth, 3000, 256},
		{chunkSize/4 + 1, 5, 1},
	} {
		t.Run(fmt.Sprint("W=", tc.width), func(t *testing.T) {
			idx := newStateIndex(tc.width)
			for i := range tc.n {
				if gid := mustInsert(t, idx, testVec(int(i), tc.width)); gid != i {
					t.Fatalf("vector %d got id %d", i, gid)
				}
			}
			if idx.perChunk != tc.perChunk {
				t.Fatalf("perChunk = %d, want %d", idx.perChunk, tc.perChunk)
			}
			if want := int((tc.n + tc.perChunk - 1) / tc.perChunk); len(idx.chunks) != want {
				t.Errorf("%d chunks, want %d", len(idx.chunks), want)
			}
			for i := range tc.n {
				vec := testVec(int(i), tc.width)
				if got, ok := idx.lookupHashed(vec, hashVec(vec)); !ok || got != i {
					t.Errorf("vector %d resolved to %d/%v", i, got, ok)
				}
				ci := i / idx.perChunk
				w := idx.widths[ci]
				rec := idx.chunks[ci][(i%idx.perChunk)*int64(w)*int64(tc.width):]
				for c := range vec {
					if got := getID(rec, w, c); got != vec[c] {
						t.Fatalf("record %d id %d = %d, want %d", i, c, got, vec[c])
					}
				}
			}
		})
	}
}

// TestIndexHotBytesRunningCount pins the memory-budget fix: memBytes
// used to walk every chunk, and the budget polls it after every push,
// so a budgeted check was quadratic in its chunk count. The running
// count must equal a recount after every insert.
func TestIndexHotBytesRunningCount(t *testing.T) {
	idx := newStateIndex(testWidth)
	for i := 0; i < 4000; i++ {
		mustInsert(t, idx, testVec(i, testWidth))
		if got, want := idx.hot, recountHot(idx); got != want {
			t.Fatalf("after insert %d: hot = %d, recount %d", i, got, want)
		}
	}
}

// TestIndexWidensOpenChunk: ids that cross 255, and then 65,535, in the
// middle of a chunk widen that chunk alone. The component table's base
// starts two ids below the boundary, so chunk 0 opens narrow and fills;
// halfway through chunk 1 the table assigns the boundary id, the next
// vector holds it, and chunk 1 is re-encoded wider; chunk 2 opens wide.
// Every record must be found at its chunk's width, vectors never written
// must not be — nor one that equals a record modulo its chunk's width,
// probed under that record's hash — and the byte counts must be exact.
func TestIndexWidensOpenChunk(t *testing.T) {
	for _, boundary := range []uint64{1 << 8, 1 << 16} {
		t.Run(fmt.Sprint("boundary=", boundary), func(t *testing.T) {
			idx := newStateIndex(testWidth)
			idx.comps.base = boundary - 2
			intern := func(win string) uint32 {
				id, err := idx.comps.intern([]byte(win))
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
			narrow, wide := idWidth(boundary-1), idWidth(boundary)
			// Record i spells i in binary: id zero at its 0 bits, and id
			// one at its 1 bits, which is the boundary id from record
			// switchAt on.
			zero, one := intern("a"), intern("b")
			vec := func(i int, one uint32) []uint32 {
				v := make([]uint32, testWidth)
				for c := range v {
					v[c] = zero
					if i>>c&1 == 1 {
						v[c] = one
					}
				}
				return v
			}
			pc := int(idx.perChunk)
			switchAt, n := pc+pc/2, 2*pc+pc/2
			oneAt := func(i int) uint32 {
				if i < switchAt {
					return one
				}
				return uint32(boundary)
			}
			for i := range n {
				if i == switchAt {
					if id := intern("c"); uint64(id) != boundary {
						t.Fatalf("the third window's id = %d, want %d", id, boundary)
					}
					if idx.widths[1] != narrow {
						t.Fatalf("chunk 1 holds %d-byte ids before the boundary id, want %d", idx.widths[1], narrow)
					}
				}
				if got := mustInsert(t, idx, vec(i, oneAt(i))); got != int64(i) {
					t.Fatalf("record %d got id %d", i, got)
				}
			}
			if want := []uint8{narrow, wide, wide}; !slices.Equal(idx.widths, want) {
				t.Fatalf("chunk widths %v, want %v", idx.widths, want)
			}

			for i := range n {
				v := vec(i, oneAt(i))
				if got, ok := idx.lookupHashed(v, hashVec(v)); !ok || got != int64(i) {
					t.Fatalf("record %d resolved to %d (ok=%v)", i, got, ok)
				}
			}
			for i := n; i < n+pc; i++ {
				v := vec(i, uint32(boundary))
				if got, ok := idx.lookupHashed(v, hashVec(v)); ok {
					t.Fatalf("vector %d was never written but resolved to %d", i, got)
				}
			}
			for _, i := range []int{0, 1, pc - 1, pc, switchAt - 1, n - 1} {
				w := idx.widths[i/pc]
				if w == 4 {
					continue // no uint32 id aliases a 4-byte one
				}
				v := vec(i, oneAt(i))
				alias := slices.Clone(v)
				alias[0] += 1 << (8 * w)
				if got, ok := idx.lookupHashed(alias, hashVec(v)); ok {
					t.Fatalf("record %d's alias %d at %d-byte ids resolved to %d", i, alias[0], w, got)
				}
			}

			// Exact byte counts: each chunk at its width, the arena the
			// chunks' full allocations.
			perChunkBytes := idx.perChunk * testWidth
			stored := perChunkBytes*int64(narrow) + perChunkBytes*int64(wide) + int64(n-2*pc)*testWidth*int64(wide)
			if want := stored + int64(len(idx.comps.data)); idx.storedBytes() != want {
				t.Errorf("storedBytes = %d, want %d", idx.storedBytes(), want)
			}
			hot := perChunkBytes * int64(narrow+2*wide)
			if idx.hot != hot || recountHot(idx) != hot {
				t.Errorf("hot = %d (recount %d), want %d", idx.hot, recountHot(idx), hot)
			}
			want := hot + int64(len(idx.buckets.slots))*bucketSlotSize + idx.comps.memBytes()
			if got := idx.memBytes(); got != want {
				t.Errorf("memBytes = %d, want %d", got, want)
			}
		})
	}
}

// TestCompTableMatchesMapReference interns a stream of windows with
// repeats through table growth against a map reference: ids are dense
// in first-appearance order and every window keeps its id. Forcing all
// hashes equal — and onto the last slot, so every probe chain wraps to
// slot 0 — must change nothing but speed.
func TestCompTableMatchesMapReference(t *testing.T) {
	for _, forced := range []bool{false, true} {
		t.Run(fmt.Sprint("forced=", forced), func(t *testing.T) {
			var ct compTable
			ref := map[string]uint32{}
			for i := 0; i < 3000; i++ {
				// Repeats interleave with first appearances; the empty
				// window is a legitimate distinct value.
				win := []byte(fmt.Sprintf("w%d", (i*7919)%1900))
				if i%97 == 0 {
					win = nil
				}
				hash := canon.Mix64(canon.HashBytes(win))
				if forced {
					hash = math.MaxUint64
				}
				id, err := ct.internHashed(win, hash)
				if err != nil {
					t.Fatal(err)
				}
				want, seen := ref[string(win)]
				if !seen {
					want = uint32(len(ref))
					ref[string(win)] = want
				}
				if id != want {
					t.Fatalf("intern %d (%q) = %d, want %d", i, win, id, want)
				}
			}
			if len(ct.buckets.slots) <= 1024 {
				t.Errorf("table never grew: %d slots", len(ct.buckets.slots))
			}
			for w, id := range ref {
				if got := ct.window(id); !bytes.Equal(got, []byte(w)) {
					t.Errorf("window(%d) = %q, want %q", id, got, w)
				}
			}
			if got := len(ct.offs) - 1; got != len(ref) {
				t.Errorf("table holds %d windows, reference %d", got, len(ref))
			}
		})
	}
}

// TestBucketTableGrowth grows a bucket table through four doublings and
// then finds every index on its hash's probe chain, which only holds if
// each doubling re-homed every slot from its tag's top bits. With
// distinct tags the indices spread over the table; with forced-equal
// tags (distinct hashes, one top half) they form one chain, which must
// start at the tag's home, mid-table.
func TestBucketTableGrowth(t *testing.T) {
	const n = 7000 // 1024 slots doubled to 16384
	for _, forced := range []bool{false, true} {
		t.Run(fmt.Sprint("forced=", forced), func(t *testing.T) {
			hash := func(i int) uint64 {
				if forced {
					return 0x8000_0001<<32 | uint64(i)
				}
				return canon.Mix64(uint64(i))
			}
			var bt bucketTable
			for i := range n {
				bt.add(hash(i), uint32(i))
			}
			if len(bt.slots) != 16384 || bt.n != n {
				t.Fatalf("%d indices in %d slots; want %d in 16384", bt.n, len(bt.slots), n)
			}
			for i := range n {
				found := false
				tag, sl := bt.probe(hash(i))
				for j, ok := bt.next(tag, &sl); ok && !found; j, ok = bt.next(tag, &sl) {
					found = j == uint32(i)
				}
				if !found {
					t.Fatalf("index %d is not on the probe chain of its hash %#x", i, hash(i))
				}
			}
		})
	}
}

// TestCompTableIDOverflow: running past 2³² ids is an error, never a
// wrap that would alias a new window with id 0. The base hook starts the
// id stream two short of the limit.
func TestCompTableIDOverflow(t *testing.T) {
	var ct compTable
	ct.base = math.MaxUint32 - 1
	for i, want := range []uint32{math.MaxUint32 - 1, math.MaxUint32} {
		id, err := ct.intern([]byte{byte(i)})
		if err != nil || id != want {
			t.Fatalf("intern %d = %d, %v; want %d", i, id, err, want)
		}
	}
	if id, err := ct.intern([]byte{9}); !errors.Is(err, errCompIDs) {
		t.Fatalf("intern past the last id = %d, %v; want errCompIDs", id, err)
	}
	// Known windows still resolve after the failure.
	if id, err := ct.intern([]byte{1}); err != nil || id != math.MaxUint32 {
		t.Errorf("re-intern of a known window = %d, %v", id, err)
	}
}

// window returns the bytes of window id.
func (ct *compTable) window(id uint32) []byte {
	i := uint64(id) - ct.base
	return ct.data[ct.offs[i]:ct.offs[i+1]]
}
