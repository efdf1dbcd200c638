package mc

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"simsym/internal/canon"
)

// testKey builds a canonically framed state key (uvarint length-prefixed
// components, like machine.AppendStateKey) from the component values.
func testKey(vals ...string) []byte {
	var buf []byte
	for _, v := range vals {
		buf = canon.AppendLenPrefixed(buf, v)
	}
	return buf
}

// mustInsert inserts a key known to be absent and returns its gid.
func mustInsert(t *testing.T, idx *stateIndex, key []byte, ancGID int64, ancKey []byte) int64 {
	t.Helper()
	hash := canon.HashBytes(key)
	if _, ok, err := idx.lookupHashed(key, hash); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatalf("key %q unexpectedly present", key)
	}
	return idx.insert(key, hash, ancGID, ancKey)
}

// TestIndexIDWidthBoundary pins the int32 → int64 id fix: the old index
// stored ids as []int32, so the id stream silently wrapped and aliased
// distinct states past 2³¹. The baseID hook pins the stream right at the
// boundary; crossing it must neither truncate nor alias.
func TestIndexIDWidthBoundary(t *testing.T) {
	idx := newStateIndex(0, "")
	idx.baseID = (int64(1) << 31) - 2

	keys := make([][]byte, 6)
	gids := make([]int64, 6)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("pc=%d", i), "x=0", "halted")
		gids[i] = mustInsert(t, idx, keys[i], -1, nil)
		if want := idx.baseID + int64(i); gids[i] != want {
			t.Fatalf("gid %d = %d, want %d", i, gids[i], want)
		}
	}
	if gids[5] <= int64(1)<<31 {
		t.Fatalf("test must cross the int32 boundary; last gid = %d", gids[5])
	}
	// Every key must resolve to its own id — an int32-width index would
	// alias ids 2147483646 and beyond after truncation.
	for i, key := range keys {
		gid, ok, err := idx.lookupHashed(key, canon.HashBytes(key))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || gid != gids[i] {
			t.Errorf("key %d resolved to gid %d (ok=%v), want %d", i, gid, ok, gids[i])
		}
		if int32(gid) == int32(gids[(i+1)%len(gids)]) && gid != gids[(i+1)%len(gids)] {
			// Purely documentary: truncation would have collided these.
			t.Logf("gids %d and %d collide after int32 truncation", gid, gids[(i+1)%len(gids)])
		}
	}
}

// TestIndexMemBytesCountsCapacities pins the capacity-accounting fix:
// the arena allocates whole chunks, so even a single tiny key must be
// charged a full chunk — the old length-based estimate undercounted by
// nearly the whole allocation and fired the memory budget late.
func TestIndexMemBytesCountsCapacities(t *testing.T) {
	idx := newStateIndex(0, "")
	small := testKey("a")
	mustInsert(t, idx, small, -1, nil)
	if got := idx.memBytes(); got < chunkSize {
		t.Errorf("memBytes = %d after one insert; a %d-byte chunk is allocated and must be charged", got, chunkSize)
	}

	// The bucket directory must charge exactly bucketSlotSize per
	// allocated open-addressing slot, and entries forced to share one
	// full hash must land in separate slots that all still resolve
	// exactly (the probe chain disambiguates by key comparison).
	idx2 := newStateIndex(0, "")
	hash := canon.HashBytes(testKey("seed"))
	for i := 0; i < 100; i++ {
		idx2.insert(testKey(fmt.Sprintf("k=%d", i)), hash, -1, nil)
	}
	if idx2.buckets.n != 100 {
		t.Errorf("bucket table holds %d entries, want 100", idx2.buckets.n)
	}
	for i := 0; i < 100; i++ {
		gid, ok, err := idx2.lookupHashed(testKey(fmt.Sprintf("k=%d", i)), hash)
		if err != nil || !ok {
			t.Fatalf("same-hash key %d not found (ok=%v, err=%v)", i, ok, err)
		}
		if gid != int64(i) {
			t.Errorf("same-hash key %d resolved to gid %d", i, gid)
		}
	}
	if got, wantMin := idx2.memBytes(), int64(len(idx2.buckets.eis))*bucketSlotSize; got < wantMin {
		t.Errorf("memBytes = %d must cover the bucket directory's %d bytes", got, wantMin)
	}
	if got := idx2.memBytes(); got < int64(cap(idx2.entries))*entrySize {
		t.Errorf("memBytes = %d must cover the entries table capacity %d", got, cap(idx2.entries)*entrySize)
	}
}

// TestIndexDeltaStorage: a child key differing from its ancestor in one
// component is stored as a delta, resolves exactly, and never aliases a
// near-miss key.
func TestIndexDeltaStorage(t *testing.T) {
	idx := newStateIndex(0, "")
	parent := testKey("pc=0", "pc=0", "lock=free", "turn=0")
	pgid := mustInsert(t, idx, parent, -1, nil)

	ancGID, ancKey, err := idx.ancestorFor(pgid, &[]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if ancGID != pgid || !bytes.Equal(ancKey, parent) {
		t.Fatalf("full-stored parent must be its own ancestor")
	}

	child := testKey("pc=1", "pc=0", "lock=free", "turn=0")
	cgid := mustInsert(t, idx, child, ancGID, ancKey)
	if idx.deltaStates != 1 {
		t.Errorf("deltaStates = %d, want 1", idx.deltaStates)
	}
	if idx.storedBytes >= idx.logicalBytes {
		t.Errorf("delta storage should compress: stored %d >= logical %d", idx.storedBytes, idx.logicalBytes)
	}

	// Exact resolution, no aliasing with a near-miss.
	if gid, ok, _ := idx.lookupHashed(child, canon.HashBytes(child)); !ok || gid != cgid {
		t.Errorf("child resolved to %d/%v, want %d", gid, ok, cgid)
	}
	near := testKey("pc=1", "pc=0", "lock=free", "turn=1")
	if _, ok, _ := idx.lookupHashed(near, canon.HashBytes(near)); ok {
		t.Error("near-miss key must not match the delta-stored child")
	}

	// A delta-stored state's ancestor is its keyframe, not itself.
	cAncGID, cAncKey, err := idx.ancestorFor(cgid, &[]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if cAncGID != pgid || !bytes.Equal(cAncKey, parent) {
		t.Errorf("delta child's ancestor = %d, want keyframe %d", cAncGID, pgid)
	}
}

// TestIndexSpillRoundTrip: with a hot cap far below the written volume,
// chunks migrate to disk and every key still resolves bit-exactly
// through file reads; release removes the spill file.
func TestIndexSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	idx := newStateIndex(chunkSize/2, dir) // cap below one chunk: spill everything finalized
	var keys [][]byte
	var gids []int64
	// Write a few chunks' worth of keys with some delta-encoded entries.
	var ancGID int64 = -1
	var ancKey []byte
	for i := 0; i < 3000; i++ {
		// Wide, mostly-unique keys so the arena finalizes several
		// chunks (only finalized chunks are spillable).
		key := testKey(fmt.Sprintf("pc=%d", i%7), fmt.Sprintf("x=%0200d", i), "padpadpadpadpadpadpadpad")
		gid := mustInsert(t, idx, key, ancGID, ancKey)
		keys = append(keys, key)
		gids = append(gids, gid)
		if i%10 == 0 {
			var arena []byte
			ag, ak, err := idx.ancestorFor(gid, &arena)
			if err != nil {
				t.Fatal(err)
			}
			ancGID, ancKey = ag, append([]byte(nil), ak...)
		}
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
	if hot := idx.hotBytes(); hot > chunkSize {
		t.Errorf("hot tier holds %d bytes after spilling; at most the active chunk should remain", hot)
	}

	for i := range keys {
		gid, ok, err := idx.lookupHashed(keys[i], canon.HashBytes(keys[i]))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !ok || gid != gids[i] {
			t.Errorf("key %d resolved to %d/%v, want %d", i, gid, ok, gids[i])
		}
	}

	if idx.file == nil {
		t.Fatal("no spill file after spilling")
	}
	path := idx.file.Name()
	idx.release()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("release must remove the spill file; stat err = %v", err)
	}
}
