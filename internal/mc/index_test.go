package mc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"simsym/internal/canon"
)

// testWidth is wide enough (256-byte records, 256 per chunk) that a few
// thousand vectors finalize several chunks — only full chunks spill.
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
	if _, ok, err := idx.lookupHashed(vec, hash); err != nil {
		t.Fatal(err)
	} else if ok {
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
	idx := newStateIndex(3, 0, "")
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
		gid, ok, err := idx.lookupHashed(vec, hashVec(vec))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || gid != gids[i] {
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
	idx := newStateIndex(2, 0, "")
	mustInsert(t, idx, []uint32{1, 2})
	if chunk := idx.perChunk * 2; int64(len(idx.chunks[0])) != chunk || idx.memBytes() < chunk {
		t.Errorf("memBytes = %d after one insert; a %d-byte chunk is allocated and must be charged", idx.memBytes(), chunk)
	}

	// The bucket directory must charge exactly bucketSlotSize per
	// allocated open-addressing slot, and vectors forced to share one
	// full hash must land in separate slots that all still resolve
	// exactly (the probe chain disambiguates by vector comparison).
	idx2 := newStateIndex(3, 0, "")
	hash := hashVec([]uint32{7})
	for i := 0; i < 100; i++ {
		idx2.insert(testVec(i, 3), hash)
	}
	if idx2.buckets.n != 100 {
		t.Errorf("bucket table holds %d entries, want 100", idx2.buckets.n)
	}
	for i := 0; i < 100; i++ {
		gid, ok, err := idx2.lookupHashed(testVec(i, 3), hash)
		if err != nil || !ok {
			t.Fatalf("same-hash vector %d not found (ok=%v, err=%v)", i, ok, err)
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

// TestIndexSpillRoundTrip: with a hot cap far below the written volume,
// full chunks migrate to disk at their logical offsets and every vector
// still resolves exactly through file reads; release removes the file.
func TestIndexSpillRoundTrip(t *testing.T) {
	for _, width := range []int{testWidth, chunkSize/4 + 1} { // the second needs widened chunks
		t.Run(fmt.Sprint("W=", width), func(t *testing.T) {
			idx := newStateIndex(width, chunkSize/2, t.TempDir()) // cap below one chunk: spill every full one
			n := 3000
			if width > chunkSize/4 {
				n = 5
			}
			gids := make([]int64, n)
			for i := range gids {
				gids[i] = mustInsert(t, idx, testVec(i, width))
				if i%500 == 499 {
					if _, err := idx.maybeSpill(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := idx.maybeSpill(); err != nil {
				t.Fatal(err)
			}
			if idx.spilledBytes == 0 {
				t.Fatal("spill tier never engaged despite a sub-chunk hot cap")
			}
			if idx.hot > int64(1)<<idx.shift {
				t.Errorf("hot tier holds %d bytes after spilling; at most the active chunk should remain", idx.hot)
			}

			for i, gid := range gids {
				vec := testVec(i, width)
				got, ok, err := idx.lookupHashed(vec, hashVec(vec))
				if err != nil {
					t.Fatalf("vector %d: %v", i, err)
				}
				if !ok || got != gid {
					t.Errorf("vector %d resolved to %d/%v, want %d", i, got, ok, gid)
				}
			}

			// File offset equals logical offset: record i sits at
			// (i/perChunk)<<shift + (i%perChunk)·w·W, w being its chunk's
			// bytes per id.
			for _, i := range []int64{0, idx.perChunk - 1, int64(idx.spilled)*idx.perChunk - 1} {
				w := int64(idx.widths[i/idx.perChunk])
				rec := make([]byte, w*int64(width))
				off := (i/idx.perChunk)<<idx.shift + (i%idx.perChunk)*w*int64(width)
				if _, err := idx.file.ReadAt(rec, off); err != nil {
					t.Fatal(err)
				}
				want := testVec(int(i), width)
				for c := range want {
					if got := getID(rec, uint8(w), c); got != want[c] {
						t.Fatalf("record %d id %d on disk = %d, want %d", i, c, got, want[c])
					}
				}
			}

			path := idx.file.Name()
			idx.release()
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("release must remove the spill file; stat err = %v", err)
			}
		})
	}
}

// TestIndexHotBytesRunningCount pins the memory-budget fix: memBytes
// used to walk every chunk, and the budget polls it after every push,
// so a budgeted check was quadratic in its chunk count. The running
// count must equal a recount after inserts and after spills.
func TestIndexHotBytesRunningCount(t *testing.T) {
	idx := newStateIndex(testWidth, 3*chunkSize, t.TempDir())
	defer idx.release()
	for i := 0; i < 4000; i++ {
		mustInsert(t, idx, testVec(i, testWidth))
		if got, want := idx.hot, recountHot(idx); got != want {
			t.Fatalf("after insert %d: hot = %d, recount %d", i, got, want)
		}
		if i%700 == 699 {
			if _, err := idx.maybeSpill(); err != nil {
				t.Fatal(err)
			}
			if got, want := idx.hot, recountHot(idx); got != want {
				t.Fatalf("after spill at %d: hot = %d, recount %d", i, got, want)
			}
		}
	}
	if idx.spilled == 0 {
		t.Fatal("spill tier never engaged; the test covered inserts only")
	}
	if _, err := idx.maybeSpill(); err != nil {
		t.Fatal(err)
	}
	if idx.hot != recountHot(idx) || idx.hot > idx.hotCapBytes {
		t.Errorf("hot = %d after spilling, cap %d", idx.hot, idx.hotCapBytes)
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
// Under a 1-byte hot cap the full chunks of both widths spill and are
// read back.
func TestIndexWidensOpenChunk(t *testing.T) {
	for _, boundary := range []uint64{1 << 8, 1 << 16} {
		for _, hotCap := range []int64{0, 1} {
			t.Run(fmt.Sprintf("boundary=%d/hot=%d", boundary, hotCap), func(t *testing.T) {
				idx := newStateIndex(testWidth, hotCap, t.TempDir())
				defer idx.release()
				idx.comps.base = boundary - 2
				intern := func(win string) uint32 {
					id, err := idx.comps.intern([]byte(win))
					if err != nil {
						t.Fatal(err)
					}
					return id
				}
				narrow, wide := idWidth(boundary-1), idWidth(boundary)
				// Record i spells i in binary: id zero at its 0 bits, and
				// id one at its 1 bits, which is the boundary id from
				// record switchAt on.
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
					if _, err := idx.maybeSpill(); err != nil {
						t.Fatal(err)
					}
				}
				if want := []uint8{narrow, wide, wide}; !slices.Equal(idx.widths, want) {
					t.Fatalf("chunk widths %v, want %v", idx.widths, want)
				}
				if want := hotCap * 2; int64(idx.spilled) != want {
					t.Fatalf("%d chunks spilled, want %d", idx.spilled, want)
				}

				for i := range n {
					v := vec(i, oneAt(i))
					if got, ok, err := idx.lookupHashed(v, hashVec(v)); err != nil || !ok || got != int64(i) {
						t.Fatalf("record %d resolved to %d (ok=%v, err=%v)", i, got, ok, err)
					}
				}
				for i := n; i < n+pc; i++ {
					v := vec(i, uint32(boundary))
					if got, ok, err := idx.lookupHashed(v, hashVec(v)); err != nil || ok {
						t.Fatalf("vector %d was never written but resolved to %d (ok=%v, err=%v)", i, got, ok, err)
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
					if got, ok, err := idx.lookupHashed(alias, hashVec(v)); err != nil || ok {
						t.Fatalf("record %d's alias %d at %d-byte ids resolved to %d (ok=%v, err=%v)", i, alias[0], w, got, ok, err)
					}
				}

				// Exact byte counts: each chunk at its width, the hot tier
				// the resident chunks' full allocations.
				perChunkBytes := idx.perChunk * testWidth
				stored := perChunkBytes*int64(narrow) + perChunkBytes*int64(wide) + int64(n-2*pc)*testWidth*int64(wide)
				if want := stored + int64(len(idx.comps.data)); idx.storedBytes() != want {
					t.Errorf("storedBytes = %d, want %d", idx.storedBytes(), want)
				}
				hot := perChunkBytes * int64(narrow+2*wide)
				if hotCap > 0 {
					hot = perChunkBytes * int64(wide)
				}
				if idx.hot != hot || recountHot(idx) != hot {
					t.Errorf("hot = %d (recount %d), want %d", idx.hot, recountHot(idx), hot)
				}
				recBuf := int64(0)
				if hotCap > 0 {
					recBuf = 4 * testWidth
				}
				want := hot + int64(len(idx.buckets.slots))*bucketSlotSize + idx.comps.memBytes() + recBuf
				if got := idx.memBytes(); got != want {
					t.Errorf("memBytes = %d, want %d", got, want)
				}
			})
		}
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
