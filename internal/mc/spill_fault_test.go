package mc

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

// fillSpillable inserts enough wide vectors that the arena fills
// several chunks — only full chunks are spillable.
func fillSpillable(t *testing.T, idx *stateIndex, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		mustInsert(t, idx, testVec(i, testWidth))
	}
}

// assertSpillReleased checks the invariant the error paths must uphold:
// the spill file handle is closed and the file is gone.
func assertSpillReleased(t *testing.T, idx *stateIndex, path string) {
	t.Helper()
	if idx.file != nil {
		t.Errorf("spill file %q left open after failed spill", idx.file.Name())
	}
	if path != "" {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("spill file %q not removed after failed spill; stat err = %v", path, err)
		}
	}
}

// TestSpillWriteErrorReleasesTier: a chunk write failing on the very
// first spill must close and remove the just-created spill file rather
// than leak an fd and a temp file per failed run.
func TestSpillWriteErrorReleasesTier(t *testing.T) {
	idx := newStateIndex(testWidth, chunkSize/2, t.TempDir())
	defer idx.release()
	fillSpillable(t, idx, 0, 1500)

	var path string
	spillWriteHook = func() error {
		path = idx.file.Name() // capture the CreateTemp result before release clears it
		return errors.New("injected: disk full")
	}
	defer func() { spillWriteHook = nil }()

	_, err := idx.maybeSpill()
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("maybeSpill err = %v, want injected write error", err)
	}
	if path == "" {
		t.Fatal("hook never ran; test exercised nothing")
	}
	assertSpillReleased(t, idx, path)
}

// TestSpillWriteErrorMidLevelReleasesTier: the failure lands after
// several chunks already spilled successfully — the established tier
// (an open, non-empty spill file) must be torn down just the same.
func TestSpillWriteErrorMidLevelReleasesTier(t *testing.T) {
	idx := newStateIndex(testWidth, chunkSize/2, t.TempDir())
	defer idx.release()
	fillSpillable(t, idx, 0, 1500)

	// First spill succeeds and establishes the tier.
	if _, err := idx.maybeSpill(); err != nil {
		t.Fatal(err)
	}
	if idx.spilledBytes == 0 || idx.file == nil {
		t.Fatal("setup: first spill never engaged the tier")
	}
	path := idx.file.Name()

	// More keys, then a spill that dies on its third chunk write.
	fillSpillable(t, idx, 1500, 1500)
	calls := 0
	spillWriteHook = func() error {
		calls++
		if calls >= 3 {
			return errors.New("injected: disk full")
		}
		return nil
	}
	defer func() { spillWriteHook = nil }()

	freed, err := idx.maybeSpill()
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("maybeSpill err = %v (freed %d), want injected write error", err, freed)
	}
	assertSpillReleased(t, idx, path)

	// Idempotence under the existing defer idx.release() in Check.
	idx.release()
	assertSpillReleased(t, idx, path)
}

// spillFaultModel is a small closed model (the Figure 5 four-philosopher
// table) that reliably crosses a 1-byte hot-index cap at the first level
// boundary.
func spillFaultModel(t *testing.T) (*system.System, *machine.Program) {
	t.Helper()
	s, err := system.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	bl := machine.NewBuilder()
	g1, g2 := bl.Sym("_g1"), bl.Sym("_g2")
	bl.Label("grab1")
	bl.Lock("left", "_g1")
	bl.JumpIf(func(r *machine.Regs) bool { return r.Get(g1) != true }, "grab1")
	bl.Label("grab2")
	bl.Lock("right", "_g2")
	bl.JumpIf(func(r *machine.Regs) bool { return r.Get(g2) != true }, "grab2")
	bl.Unlock("right")
	bl.Unlock("left")
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s, prog
}

// TestCheckSpillErrorPartial: with Options.Partial a failing spill tier
// degrades into a graceful partial result (Exhausted="spill") instead of
// an error, and leaves nothing behind in SpillDir; without Partial the
// injected error surfaces. Either way the temp dir must be cleaned up.
func TestCheckSpillErrorPartial(t *testing.T) {
	s, prog := spillFaultModel(t)
	spillWriteHook = func() error { return errors.New("injected: disk full") }
	defer func() { spillWriteHook = nil }()

	for _, partial := range []bool{true, false} {
		dir := t.TempDir()
		res, err := Check(func() (*machine.Machine, error) {
			return machine.New(s, system.InstrL, prog)
		}, Options{
			MaxStates:     500_000,
			HotIndexBytes: 1,
			SpillDir:      dir,
			Partial:       partial,
		})
		if partial {
			if err != nil {
				t.Fatalf("Partial=true: Check err = %v, want graceful degradation", err)
			}
			if res.Complete {
				t.Error("Partial=true: result claims Complete despite dead spill tier")
			}
			if res.Exhausted != "spill" {
				t.Errorf("Partial=true: Exhausted = %q, want \"spill\"", res.Exhausted)
			}
			if res.StatesExplored == 0 {
				t.Error("Partial=true: partial result lost the states explored before the fault")
			}
		} else if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("Partial=false: Check err = %v, want injected spill error", err)
		}
		ents, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for _, e := range ents {
			t.Errorf("Partial=%v: leaked %q under SpillDir", partial, filepath.Join(dir, e.Name()))
		}
	}
}

// TestSpillOpenErrorReleasesTier: failing to create the spill file (here
// SpillDir does not exist, which fails for every user, root included)
// must surface the error and leave no file handle behind.
func TestSpillOpenErrorReleasesTier(t *testing.T) {
	idx := newStateIndex(testWidth, chunkSize/2, filepath.Join(t.TempDir(), "missing"))
	defer idx.release()
	fillSpillable(t, idx, 0, 1500)

	if _, err := idx.maybeSpill(); err == nil {
		t.Fatal("maybeSpill succeeded despite a missing spill dir")
	}
	if idx.spilledBytes != 0 {
		t.Errorf("spilledBytes = %d after a failed create, want 0", idx.spilledBytes)
	}
	assertSpillReleased(t, idx, "")
}
