package mc

import (
	"bytes"
	"fmt"
	"os"

	"simsym/internal/canon"
)

// stateIndex is the checker's visited set: a delta-encoded index over
// binary state keys built to hold 10⁸⁺ states. Keys are bucketed by their
// full 64-bit FNV-1a hash and a bucket hit is confirmed by comparing the
// exact encodings, so ids are collision-free by construction — hash
// quality affects only speed, never verdicts.
//
// Three mechanisms keep the per-state footprint small:
//
//   - Ids are int64 (they used to be int32, which silently truncated
//     and aliased distinct states past 2³¹ — exactly the scale this
//     index targets). States are inserted in BFS commit order, so a
//     state's id is baseID plus its entry index and doubles as its node
//     index in the checker's bookkeeping; baseID lets tests pin the id
//     stream right at the old 32-bit boundary.
//   - Key bytes live in a chunked arena (fixed-size chunks, append-only,
//     never moved once allocated), and a key whose BFS lineage stays
//     close to a full-stored ancestor is stored as a canon.AppendKeyDelta
//     patch against that ancestor. Every delta points directly at a
//     full-stored ancestor (chain length one by construction): a state
//     delta-encodes against its parent's keyframe while the patch stays
//     small, and becomes a new keyframe once the lineage has drifted too
//     far.
//   - When a hot-bytes cap is set, cold chunks spill FIFO to a temp file
//     (BFS rarely re-touches old levels, so the spilled majority is read
//     back only on genuine dedup hits against deep history). File
//     offsets equal logical arena offsets, so spilling never rewrites an
//     entry.
type stateIndex struct {
	buckets bucketTable // full key hash -> entry index
	entries []entry     // entries[i] is the state with id baseID+i
	baseID  int64       // first id assigned; nonzero only in boundary tests

	chunks  [][]byte // chunk i covers logical offsets [i<<chunkShift, ...)
	used    int64    // logical end offset of written bytes
	bound   int64    // offsets below bound are on disk, chunks nil-ed
	scratch []byte   // delta-encode buffer, reused across inserts

	hotCapBytes int64    // spill threshold; 0 = never spill
	spillDir    string   // directory for the spill file ("" = os.TempDir())
	file        *os.File // spill file; nil until the first spill

	// Scratch for exact comparisons of spilled entries.
	scrA, scrB []byte

	// Delta and spill statistics.
	deltaStates  int64
	storedBytes  int64 // bytes as stored (full or delta)
	logicalBytes int64 // bytes the full keys would have taken
	spilledBytes int64
	spillFlushes int64
}

// entry is one visited state: where its (full or delta) bytes live and
// which full-stored ancestor a delta patches.
type entry struct {
	anc int64 // id of the full-stored ancestor a delta patches; -1 = full
	off int64 // logical offset of the stored bytes in the arena
	n   int32 // stored length
}

const (
	chunkShift = 16 // 64 KiB chunks
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// entrySize feeds the memory estimate: the entry struct itself. The
	// bucket directory's footprint is exact — bucketSlotSize bytes per
	// allocated open-addressing slot.
	entrySize      = 24
	bucketSlotSize = 16 // one uint64 hash + one int64 entry index

	// A delta is stored only while it is meaningfully smaller than the
	// full key; otherwise the state becomes a new full-stored keyframe.
	deltaNum, deltaDen = 1, 2
)

// newStateIndex builds an empty index; hotCapBytes > 0 arms the spill
// tier, writing under dir (os.TempDir() when dir is empty).
func newStateIndex(hotCapBytes int64, dir string) *stateIndex {
	return &stateIndex{hotCapBytes: hotCapBytes, spillDir: dir}
}

// bucketTable is an open-addressed multimap from full key hashes to
// entry indices — the index's bucket directory. It replaces a
// map[uint64][]int64 on the probe-per-candidate hot path: a lookup is
// one masked index plus a short linear scan (load never exceeds 3/4),
// with no hashing of the already-hashed key and no per-key slice
// headers. Entries sharing a full 64-bit hash (collisions, effectively
// nonexistent) occupy separate slots along the probe chain; exact key
// comparison disambiguates them, so probe order never affects verdicts.
type bucketTable struct {
	hashes []uint64
	eis    []int64 // -1 marks an empty slot
	mask   uint64
	n      int
}

// add inserts an entry index under hash, growing at 3/4 load.
func (bt *bucketTable) add(hash uint64, ei int64) {
	if bt.n*4 >= len(bt.eis)*3 {
		bt.grow()
	}
	sl := hash & bt.mask
	for bt.eis[sl] >= 0 {
		sl = (sl + 1) & bt.mask
	}
	bt.hashes[sl], bt.eis[sl] = hash, ei
	bt.n++
}

func (bt *bucketTable) grow() {
	oldH, oldE := bt.hashes, bt.eis
	size := 1024
	if len(oldE) > 0 {
		size = len(oldE) * 2
	}
	bt.hashes = make([]uint64, size)
	bt.eis = make([]int64, size)
	for i := range bt.eis {
		bt.eis[i] = -1
	}
	bt.mask = uint64(size - 1)
	for i, ei := range oldE {
		if ei < 0 {
			continue
		}
		sl := oldH[i] & bt.mask
		for bt.eis[sl] >= 0 {
			sl = (sl + 1) & bt.mask
		}
		bt.hashes[sl], bt.eis[sl] = oldH[i], ei
	}
}

// entryAt resolves an id to its entry.
func (t *stateIndex) entryAt(id int64) *entry { return &t.entries[id-t.baseID] }

// lookupHashed reports whether key (with its precomputed hash) is
// already indexed, and its id if so.
func (t *stateIndex) lookupHashed(key []byte, hash uint64) (id int64, ok bool, err error) {
	bt := &t.buckets
	if bt.eis == nil {
		return 0, false, nil
	}
	for sl := hash & bt.mask; bt.eis[sl] >= 0; sl = (sl + 1) & bt.mask {
		if bt.hashes[sl] != hash {
			continue
		}
		ei := bt.eis[sl]
		eq, err := t.entryEqual(&t.entries[ei], key)
		if err != nil {
			return 0, false, err
		}
		if eq {
			return t.baseID + ei, true, nil
		}
	}
	return 0, false, nil
}

// entryEqual compares a stored entry against a candidate key exactly.
// Full entries compare directly; delta entries stream-compare via
// canon.KeyDeltaEqual against their ancestor's bytes without
// materializing the patched key. Spilled bytes are read back through the
// scratch buffers.
func (t *stateIndex) entryEqual(e *entry, key []byte) (bool, error) {
	raw, err := t.read(e.off, int(e.n), &t.scrA)
	if err != nil {
		return false, err
	}
	if e.anc < 0 {
		return bytes.Equal(raw, key), nil
	}
	a := t.entryAt(e.anc)
	ancRaw, err := t.read(a.off, int(a.n), &t.scrB)
	if err != nil {
		return false, err
	}
	return canon.KeyDeltaEqual(ancRaw, raw, key), nil
}

// ancestorFor returns the full-stored ancestor of an indexed state: the
// state itself when stored full, its keyframe otherwise. Hot entries are
// returned zero-copy (chunks never move, and spilling happens only
// between BFS levels); spilled entries are read into *buf, so the result
// is valid until the next read through buf.
func (t *stateIndex) ancestorFor(id int64, buf *[]byte) (ancID int64, ancKey []byte, err error) {
	e := t.entryAt(id)
	if e.anc >= 0 {
		id = e.anc
		e = t.entryAt(id)
	}
	// Ancestors are full-stored by construction (a delta's anc always
	// names a keyframe).
	key, err := t.read(e.off, int(e.n), buf)
	if err != nil {
		return 0, nil, err
	}
	return id, key, nil
}

// insert appends key (not yet present; hash as from lookupHashed) with
// the next dense id and returns it: delta-encoded against ancKey when
// the patch wins by the deltaNum/deltaDen margin, full otherwise.
// ancID/ancKey name the full-stored ancestor candidate; ancID < 0 forces
// full storage. key is copied; the caller keeps ownership of its buffer.
func (t *stateIndex) insert(key []byte, hash uint64, ancID int64, ancKey []byte) int64 {
	stored := key
	anc := int64(-1)
	if ancID >= 0 && len(ancKey) > 0 {
		if delta, ok := canon.AppendKeyDelta(t.scratch[:0], ancKey, key); ok {
			t.scratch = delta
			if len(delta)*deltaDen <= len(key)*deltaNum {
				stored = delta
				anc = ancID
			}
		}
	}
	off := t.write(stored)
	if anc >= 0 {
		t.deltaStates++
	}
	t.storedBytes += int64(len(stored))
	t.logicalBytes += int64(len(key))
	ei := int64(len(t.entries))
	t.entries = append(t.entries, entry{anc: anc, off: off, n: int32(len(stored))})
	t.buckets.add(hash, ei)
	return t.baseID + ei
}

// write appends b to the chunked arena and returns its logical offset.
// Items never straddle a chunk boundary: a tail that cannot fit the item
// is padding, and an item larger than a chunk gets a dedicated
// exactly-sized chunk whose trailing slots are nil placeholders so chunk
// indices keep matching off >> chunkShift.
func (t *stateIndex) write(b []byte) int64 {
	n := len(b)
	pos := int(t.used & chunkMask)
	if pos > 0 && pos+n > chunkSize {
		t.used = (t.used + chunkMask) &^ int64(chunkMask)
		pos = 0
	}
	ci := int(t.used >> chunkShift)
	if ci >= len(t.chunks) {
		size := chunkSize
		if n > chunkSize {
			size = n
		}
		t.chunks = append(t.chunks, make([]byte, size))
	}
	copy(t.chunks[ci][pos:], b)
	off := t.used
	t.used += int64(n)
	if n > chunkSize {
		t.used = (t.used + chunkMask) &^ int64(chunkMask)
		for int64(len(t.chunks))<<chunkShift < t.used {
			t.chunks = append(t.chunks, nil)
		}
	}
	return off
}

// read returns the stored bytes at [off, off+n): zero-copy from a hot
// chunk, read through scratch from the spill file otherwise. The result
// is valid until the next read through the same scratch.
func (t *stateIndex) read(off int64, n int, scratch *[]byte) ([]byte, error) {
	if off >= t.bound {
		pos := int(off & chunkMask)
		return t.chunks[off>>chunkShift][pos : pos+n], nil
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n+n/2)
	}
	buf := (*scratch)[:n]
	if _, err := t.file.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("mc: spill read: %w", err)
	}
	return buf, nil
}

// hotBytes is the in-memory arena footprint.
func (t *stateIndex) hotBytes() int64 {
	var total int64
	for _, c := range t.chunks {
		total += int64(len(c))
	}
	return total
}

// spillWriteHook, when non-nil, intercepts each chunk write to the spill
// tier and can force it to fail — a test seam for fault-injecting the
// write path (disk full, revoked permissions) without a real bad disk.
var spillWriteHook func() error

// maybeSpill flushes finalized cold chunks FIFO to the spill file until
// the hot arena fits under the cap again. Called between BFS levels, when
// no caller holds a zero-copy slice of a hot chunk. Returns the bytes
// moved to disk by this call.
//
// Any mid-spill failure releases the spill tier before returning: the
// index is unusable for further lookups once a chunk write is lost, so
// holding the file open would only leak it — the caller surfaces the
// error (or degrades to a partial result) and never touches the spilled
// tier again.
func (t *stateIndex) maybeSpill() (int64, error) {
	if t.hotCapBytes <= 0 {
		return 0, nil
	}
	hot := t.hotBytes()
	var freed int64
	for hot-freed > t.hotCapBytes {
		ci := int(t.bound >> chunkShift)
		if ci >= len(t.chunks) {
			break
		}
		c := t.chunks[ci]
		if c == nil { // placeholder slot of an already-spilled jumbo chunk
			t.bound = int64(ci+1) << chunkShift
			continue
		}
		chunkEnd := int64(ci)<<chunkShift + int64(len(c))
		if chunkEnd > t.used {
			break // the active chunk still accepts appends
		}
		if t.file == nil {
			f, err := os.CreateTemp(t.spillDir, "mc-spill-*")
			if err != nil {
				return freed, fmt.Errorf("mc: spill: %w", err)
			}
			t.file = f
		}
		if spillWriteHook != nil {
			if err := spillWriteHook(); err != nil {
				t.release()
				return freed, fmt.Errorf("mc: spill write: %w", err)
			}
		}
		if _, err := t.file.WriteAt(c, int64(ci)<<chunkShift); err != nil {
			t.release()
			return freed, fmt.Errorf("mc: spill write: %w", err)
		}
		freed += int64(len(c))
		t.spilledBytes += int64(len(c))
		t.chunks[ci] = nil
		t.bound = (chunkEnd + chunkMask) &^ int64(chunkMask)
	}
	if freed > 0 {
		t.spillFlushes++
	}
	return freed, nil
}

// release closes and removes the spill file. Idempotent.
func (t *stateIndex) release() {
	if t.file != nil {
		t.file.Close()
		os.Remove(t.file.Name())
		t.file = nil
	}
}

// memBytes estimates the index's resident memory footprint from
// capacities, not lengths: allocated chunk bytes (a half-filled chunk
// costs its full size), the entry table's capacity, the bucket
// directory's exact slot count, and the scratch buffers. Spilled bytes
// live on disk and are deliberately excluded. Keeping this honest is
// what lets MaxMemBytes degrade into a Partial result instead of an OOM.
func (t *stateIndex) memBytes() int64 {
	return t.hotBytes() +
		int64(cap(t.entries))*entrySize +
		int64(len(t.buckets.eis))*bucketSlotSize +
		int64(cap(t.scratch)+cap(t.scrA)+cap(t.scrB))
}
