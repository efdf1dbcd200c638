package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"simsym/internal/canon"
	"simsym/internal/obs"
	"simsym/internal/system"
)

// Sentinel errors for execution.
var (
	ErrInstrNotAllowed = errors.New("machine: instruction not in instruction set")
	ErrBadProcessor    = errors.New("machine: processor index out of range")
	ErrBadVariable     = errors.New("machine: variable index out of range")
	ErrMissingLocal    = errors.New("machine: local variable not set")
	ErrBadInstrSet     = errors.New("machine: unsupported instruction set")
)

// String names the opcode for error messages.
func (k opKind) String() string {
	switch k {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opLock:
		return "lock"
	case opUnlock:
		return "unlock"
	case opPeek:
		return "peek"
	case opPost:
		return "post"
	case opCompute:
		return "compute"
	case opJumpIf:
		return "jumpif"
	case opJump:
		return "jump"
	case opHalt:
		return "halt"
	default:
		return fmt.Sprintf("opKind(%d)", int(k))
	}
}

// Frame is one processor's private state: program counter plus locals.
// The frame never records the processor's identity — processors are
// anonymous, and programs can only distinguish themselves through what
// they observe.
//
// Locals is a slot slice indexed by Sym (the program's symbol table);
// unassigned slots hold the package-private unset sentinel. The slice is
// copy-on-write: Clone shares it between machines and the first mutating
// step afterwards copies it, so model-checker expansion stays cheap.
type Frame struct {
	PC     int
	Locals []any
	Halted bool

	// owned reports that Locals is exclusively this frame's: mutating
	// steps may write in place. Meaningful only while the machine owns
	// its frames array (procsOwned); cowProcs resets it when the array
	// itself is copied after a Clone.
	owned bool
}

// cow makes fr.Locals private to this frame, copying once after a Clone
// and never again until the next Clone.
func (fr *Frame) cow() {
	if fr.owned {
		return
	}
	fr.Locals = append([]any(nil), fr.Locals...)
	fr.owned = true
}

// frameCow is Frame.cow with recycling: the copy lands in a Locals slice
// salvaged from a dead batch-expansion child when the bin has one.
func (m *Machine) frameCow(fr *Frame) {
	if fr.owned {
		return
	}
	if sp := m.spares; sp != nil {
		for n := len(sp.locals); n > 0; n-- {
			l := sp.locals[n-1]
			sp.locals[n-1] = nil
			sp.locals = sp.locals[:n-1]
			if len(l) == len(fr.Locals) {
				copy(l, fr.Locals)
				fr.Locals = l
				fr.owned = true
				return
			}
		}
	}
	fr.cow()
}

// Machine executes a program over a system.
type Machine struct {
	sys     *system.System
	instr   system.InstrSet
	program *Program

	// bound[p][pc] is the variable index processor p touches at pc — the
	// paper's n-nbr function evaluated once at construction, so Step never
	// resolves a name. Entries for local instructions are unused. Shared
	// (immutable) between clones.
	bound [][]int32
	// allowedKind[k] caches instruction-set legality per opcode.
	allowedKind [opHalt + 1]bool

	frames []Frame
	// S/L variables: one value each, plus a lock bit for L.
	varVal []any
	locked []bool
	// Q variables: one subvalue slot per processor (unset sentinel when
	// the processor has not posted). Copy-on-write like frame locals:
	// subOwned[v] reports the slice is private to this machine.
	varSub   [][]any
	subOwned []bool

	// procsOwned, varsOwned, and spansOwned are machine-level
	// copy-on-write bits over the backing arrays themselves, making Clone
	// O(1): procsOwned guards frames/crashed, varsOwned guards
	// varVal/locked/varSub/subOwned, and spansOwned guards the four
	// fingerprint bookkeeping arrays (procSpan/varSpan/procValid/
	// varValid). Clone clears all bits on both machines and shares every
	// array; the first mutating step afterwards copies just the group it
	// touches (cowProcs/cowVars/cowSpans). The span group is split out
	// because every step invalidates a cache bit but most steps leave
	// whole value groups untouched — and PrimeFingerprints must rewrite
	// span offsets without paying for a var-side value copy. When an
	// array group is shared, its finer-grained ownership bits
	// (Frame.owned, subOwned) are stale and ignored — the cow of the
	// outer array resets them.
	procsOwned bool
	varsOwned  bool
	spansOwned bool

	steps int

	// crashed marks processors halted by fault injection (Crash) rather
	// than by their own program. A crashed processor is observationally a
	// halted one — fingerprints and other processors cannot tell the
	// difference — but harnesses use the distinction to excuse crashed
	// processors from convergence and correctness obligations.
	crashed []bool

	// Fingerprint caches: a step touches one processor frame and at most
	// one variable, so caching makes whole-state fingerprints (the model
	// checker's hot path) incremental. Cached encodings live as byte
	// windows in fpArena addressed by procSpan/varSpan; the procValid/
	// varValid bitmasks — not the windows — are the cache authority, so a
	// legitimately empty encoding can never alias "uncached" (the hazard
	// the old ""-sentinel string caches had by construction).
	//
	// fpArena is append-only while arenaOwned; a Clone freezes it (both
	// sides drop ownership and treat it as read-only shared storage whose
	// still-valid windows they keep serving). fpLive tracks the bytes
	// covered by valid spans so arenaReserve can compact garbage into
	// fpScratch (a ping-pong buffer, never shared: Clone nils it on the
	// child) instead of growing forever. Invariant: arenaOwned implies
	// spansOwned — only New and rebuildArena (which cows the span group)
	// set it, so cache fills may always write spans.
	fpArena    []byte
	fpScratch  []byte
	fpLive     int
	arenaOwned bool
	procSpan   []fpSpan
	varSpan    []fpSpan
	procValid  []uint64
	varValid   []uint64

	// pStale/vStale defer cache invalidation on machines whose span group
	// is still shared: a batch-expansion child steps once, staling ≤1
	// frame and ≤2 variables, and copying four span arrays just to clear
	// bits would dominate expansion — most children are then discarded as
	// duplicates without ever owning spans. procCached/varCached treat a
	// pending component as uncached; applyStales folds the entries into
	// the bitmasks when the machine does privatize its span group (every
	// path to spansOwned runs through it, so a spansOwned — a fortiori
	// arenaOwned — machine never carries pendings and cache fills may
	// write bits directly). Fixed arrays, copied wholesale by clone and
	// detach; overflow falls back to an immediate apply.
	pStale  [4]int32
	vStale  [4]int32
	nPStale int8
	nVStale int8

	// Single-component overrides, the write-side twin of the pending
	// stales: a machine whose value arrays are still clone-shared keeps
	// its first touched frame in ovFrame (ovProc = which, -1 for none)
	// and up to two touched variables in the ovVar slots (value + lock
	// bit), so a batch-expansion child that steps once — one frame, at
	// most two variables — mutates nothing but its own struct. Reads go
	// through frameAt/varValAt/lockedAt, which consult the overrides;
	// cowProcs/cowVars fold them back into the freshly privatized arrays
	// (so procsOwned ⇒ no frame override, varsOwned ⇒ no var overrides),
	// and writes that outgrow the slots fall back to privatizing.
	ovProc   int32
	nOvVar   int8
	ovVar    [2]int32
	ovLocked [2]bool
	ovFrame  Frame
	ovVal    [2]any

	// selSym is the slot of the conventional "selected" local, or -1 when
	// the program never interns it.
	selSym Sym

	// regs is the scratch register view lent to Compute/JumpIf closures;
	// keeping it on the machine avoids a per-step allocation. Closures
	// must not retain it past their call.
	regs Regs

	// rec, when non-nil, observes streamed execution: RunWith emits one
	// KindSchedStep event per executed step and a machine.steps counter.
	// Step itself is never instrumented — it is the model checker's inner
	// loop, where even a nil check per step would be measurable.
	rec *obs.Recorder

	// spares is the pool slot's recycling bin (see spareArrays); nil on
	// machines that never host batch-expansion children.
	spares *spareArrays

	// slab, when non-nil, is a caller-owned bump allocator the cow paths
	// carve fresh arrays from instead of calling make — the model checker
	// sets it on kept machines so priming a whole BFS level costs a few
	// chunk allocations, not five per state. Never shared with concurrent
	// steppers: cloneInto strips it from children.
	slab *Slab
}

// Slab is a bump allocator for the machine's copy-on-write arrays. The
// zero value is ready to use. Carved windows are full-capacity slices,
// so a later append inside one machine can never bleed into a
// neighbour's window.
//
// Chunks are recycled generationally: Recycle retires everything carved
// since the previous Recycle and makes the generation before that
// reusable. The model checker calls Recycle at each BFS level boundary,
// which matches machine lifetime exactly — machines primed while
// expanding level L die when level L+1 finishes expanding, two
// boundaries later. PrimeFingerprints guarantees the lifetime premise
// by privatizing every mutable group, so no machine ever references a
// slab chunk of an older generation than its own.
type Slab struct {
	frames slabPool[Frame]
	anys   slabPool[any]
	subs   slabPool[[]any]
	bools  slabPool[bool]
	spans  slabPool[fpSpan]
	words  slabPool[uint64]
	bytes  slabPool[byte]
}

// Recycle advances the slab's generations at a point where the caller
// asserts everything carved before the previous Recycle is unreachable.
// Pools whose consumers rely on zeroed storage (bools: the subOwned
// half restarts zeroed) or whose elements carry pointers (a stale
// pointer in a free chunk would retain dead state) are cleared as their
// chunks become reusable; pointer-free pools skip the memclr.
func (s *Slab) Recycle() {
	s.frames.rotate(true)
	s.anys.rotate(true)
	s.subs.rotate(true)
	s.bools.rotate(true)
	s.spans.rotate(false)
	s.words.rotate(false)
	s.bytes.rotate(false)
}

// slabPool is one element type's chunk store: a bump tail plus three
// chunk generations — handed out since the last rotate (cur), the
// generation before that (prev), and reusable (free).
type slabPool[T any] struct {
	tail []T
	cur  [][]T
	prev [][]T
	free [][]T
}

// take carves n elements, refilling from a free (or fresh) chunk of at
// least `chunk` elements when the tail runs dry.
func (p *slabPool[T]) take(n, chunk int) []T {
	if len(p.tail) < n {
		var c []T
		if k := len(p.free); k > 0 && cap(p.free[k-1]) >= n {
			c = p.free[k-1][:cap(p.free[k-1])]
			p.free[k-1] = nil
			p.free = p.free[:k-1]
		} else {
			if chunk < n {
				chunk = n
			}
			c = make([]T, chunk)
		}
		p.cur = append(p.cur, c)
		p.tail = c
	}
	s := p.tail[:n:n]
	p.tail = p.tail[n:]
	return s
}

func (p *slabPool[T]) rotate(clearChunks bool) {
	for _, c := range p.prev {
		if clearChunks {
			clear(c)
		}
		p.free = append(p.free, c)
	}
	p.prev, p.cur = p.cur, p.prev[:0]
	// Retire the partial chunk: carving more of it would let one chunk
	// host two generations, breaking the rotation's lifetime argument.
	p.tail = nil
}

// SetSlab points the machine's copy-on-write allocations at a
// caller-owned slab. The caller must guarantee that machines sharing a
// slab never allocate concurrently; the model checker satisfies this by
// priming kept machines one at a time on its checking goroutine.
func (m *Machine) SetSlab(s *Slab) { m.slab = s }

// isSharedKind reports whether the opcode addresses a shared variable.
func isSharedKind(k opKind) bool { return k >= opRead && k <= opPost }

// fpSpan addresses one cached fingerprint window inside fpArena.
type fpSpan struct {
	off int32
	n   int32
}

// spareArrays is a machine-private recycling bin for the copy-on-write
// array groups. CloneInto salvages the exclusively owned arrays of the
// pool slot it overwrites (a batch-expansion child that was not kept),
// and the next cowProcs/cowVars consumes them instead of allocating —
// steady-state batch stepping copies only the group a step touches,
// into recycled memory. The bin is never shared: cloneInto keeps it
// with the overwritten slot, Detach strips it from the heap copy.
type spareArrays struct {
	frames   []Frame
	crashed  []bool
	hasProcs bool

	varVal   []any
	locked   []bool
	varSub   [][]any
	subOwned []bool
	hasVars  bool

	procSpan  []fpSpan
	varSpan   []fpSpan
	procValid []uint64
	varValid  []uint64
	hasSpans  bool

	// locals recycles dead frames' private Locals slices for frameCow.
	locals [][]any
}

// cowProcs makes the processor-side arrays (frames, crashed) private to
// this machine, copying once after a Clone. The fresh frame copies drop
// their owned bits: their Locals slices are still shared.
func (m *Machine) cowProcs() {
	if m.procsOwned {
		return
	}
	if sp := m.spares; sp != nil && sp.hasProcs && len(sp.frames) == len(m.frames) {
		sp.hasProcs = false
		copy(sp.frames, m.frames)
		for i := range sp.frames {
			sp.frames[i].owned = false
		}
		copy(sp.crashed, m.crashed)
		m.frames, sp.frames = sp.frames, nil
		m.crashed, sp.crashed = sp.crashed, nil
	} else {
		var frames []Frame
		var crashed []bool
		if s := m.slab; s != nil {
			frames = s.frames.take(len(m.frames), 512)
			crashed = s.bools.take(len(m.crashed), 2048)
		} else {
			frames = make([]Frame, len(m.frames))
			crashed = make([]bool, len(m.crashed))
		}
		copy(frames, m.frames)
		for i := range frames {
			frames[i].owned = false
		}
		copy(crashed, m.crashed)
		m.frames = frames
		m.crashed = crashed
	}
	if m.ovProc >= 0 {
		m.frames[m.ovProc] = m.ovFrame
		m.ovFrame = Frame{}
		m.ovProc = -1
	}
	m.procsOwned = true
}

// cowVars makes the variable-side arrays (varVal, locked, varSub,
// subOwned) private to this machine. subOwned restarts zeroed: the inner
// subvalue slices are still shared and must be copied on the next post
// to each.
func (m *Machine) cowVars() {
	if m.varsOwned {
		return
	}
	if sp := m.spares; sp != nil && sp.hasVars && len(sp.varVal) == len(m.varVal) {
		sp.hasVars = false
		copy(sp.varVal, m.varVal)
		copy(sp.locked, m.locked)
		copy(sp.varSub, m.varSub)
		for i := range sp.subOwned {
			sp.subOwned[i] = false
		}
		m.varVal, sp.varVal = sp.varVal, nil
		m.locked, sp.locked = sp.locked, nil
		m.varSub, sp.varSub = sp.varSub, nil
		m.subOwned, sp.subOwned = sp.subOwned, nil
	} else {
		nl := len(m.locked)
		var vv []any
		var lk []bool
		var vs [][]any
		if s := m.slab; s != nil {
			vv = s.anys.take(len(m.varVal), 1024)
			vs = s.subs.take(len(m.varSub), 1024)
			lk = s.bools.take(nl+len(m.subOwned), 2048)
		} else {
			vv = make([]any, len(m.varVal))
			vs = make([][]any, len(m.varSub))
			lk = make([]bool, nl+len(m.subOwned))
		}
		copy(vv, m.varVal)
		copy(vs, m.varSub)
		m.varVal, m.varSub = vv, vs
		copy(lk[:nl], m.locked) // subOwned half restarts zeroed
		m.locked, m.subOwned = lk[:nl:nl], lk[nl:]
	}
	for i := int8(0); i < m.nOvVar; i++ {
		v := m.ovVar[i]
		m.varVal[v] = m.ovVal[i]
		m.locked[v] = m.ovLocked[i]
		m.ovVal[i] = nil
	}
	m.nOvVar = 0
	m.varsOwned = true
}

// cowSpans makes the fingerprint bookkeeping arrays (procSpan, varSpan,
// procValid, varValid) private to this machine. Split from the value
// groups so the per-step cache invalidation and PrimeFingerprints'
// offset rewrite copy four small pointer-free arrays, not the frame and
// variable values.
func (m *Machine) cowSpans() {
	if m.spansOwned {
		return
	}
	if sp := m.spares; sp != nil && sp.hasSpans &&
		len(sp.procSpan) == len(m.procSpan) && len(sp.varSpan) == len(m.varSpan) {
		sp.hasSpans = false
		copy(sp.procSpan, m.procSpan)
		copy(sp.varSpan, m.varSpan)
		copy(sp.procValid, m.procValid)
		copy(sp.varValid, m.varValid)
		m.procSpan, sp.procSpan = sp.procSpan, nil
		m.varSpan, sp.varSpan = sp.varSpan, nil
		m.procValid, sp.procValid = sp.procValid, nil
		m.varValid, sp.varValid = sp.varValid, nil
		m.spansOwned = true
		return
	}
	np, nv := len(m.procSpan), len(m.varSpan)
	pw, vw := len(m.procValid), len(m.varValid)
	var blk []fpSpan
	var vblk []uint64
	if s := m.slab; s != nil {
		blk = s.spans.take(np+nv, 2048)
		vblk = s.words.take(pw+vw, 1024)
	} else {
		blk = make([]fpSpan, np+nv)
		vblk = make([]uint64, pw+vw)
	}
	copy(blk[:np], m.procSpan)
	copy(blk[np:], m.varSpan)
	m.procSpan, m.varSpan = blk[:np:np], blk[np:]
	copy(vblk[:pw], m.procValid)
	copy(vblk[pw:], m.varValid)
	m.procValid, m.varValid = vblk[:pw:pw], vblk[pw:]
	m.spansOwned = true
}

// frameAt returns the authoritative view of processor p's frame,
// consulting the override slot. Every frame read inside the machine goes
// through here (or through a frame pointer obtained from writableFrame).
func (m *Machine) frameAt(p int) *Frame {
	if m.ovProc == int32(p) {
		return &m.ovFrame
	}
	return &m.frames[p]
}

// writableFrame returns a frame p may be mutated through. A machine that
// owns its processor arrays writes the array slot directly; a
// clone-shared machine takes the single override slot, and a write to a
// second distinct frame falls back to privatizing the arrays.
func (m *Machine) writableFrame(p int) *Frame {
	if m.procsOwned {
		return &m.frames[p]
	}
	if m.ovProc == int32(p) {
		return &m.ovFrame
	}
	if m.ovProc < 0 {
		m.ovProc = int32(p)
		m.ovFrame = m.frames[p]
		m.ovFrame.owned = false // Locals still shared
		return &m.ovFrame
	}
	m.cowProcs()
	return &m.frames[p]
}

// ovVarIdx returns the override slot holding variable v, or -1.
func (m *Machine) ovVarIdx(v int) int8 {
	for i := int8(0); i < m.nOvVar; i++ {
		if m.ovVar[i] == int32(v) {
			return i
		}
	}
	return -1
}

// varValAt and lockedAt are the authoritative reads of a variable's
// value and lock bit, consulting the override slots.
func (m *Machine) varValAt(v int) any {
	if i := m.ovVarIdx(v); i >= 0 {
		return m.ovVal[i]
	}
	return m.varVal[v]
}

func (m *Machine) lockedAt(v int) bool {
	if i := m.ovVarIdx(v); i >= 0 {
		return m.ovLocked[i]
	}
	return m.locked[v]
}

// ovVarSlot returns a write slot for variable v, claiming a free one
// (seeded with the current value and lock bit) if needed; -1 means the
// slots are exhausted and the caller must privatize instead.
func (m *Machine) ovVarSlot(v int) int8 {
	if i := m.ovVarIdx(v); i >= 0 {
		return i
	}
	if int(m.nOvVar) < len(m.ovVar) {
		i := m.nOvVar
		m.ovVar[i] = int32(v)
		m.ovVal[i] = m.varVal[v]
		m.ovLocked[i] = m.locked[v]
		m.nOvVar++
		return i
	}
	return -1
}

// setVarVal and setLocked write a variable's value / lock bit through
// the override slots when the var arrays are clone-shared.
func (m *Machine) setVarVal(v int, val any) {
	if !m.varsOwned {
		if i := m.ovVarSlot(v); i >= 0 {
			m.ovVal[i] = val
			return
		}
		m.cowVars()
	}
	m.varVal[v] = val
}

func (m *Machine) setLocked(v int, b bool) {
	if !m.varsOwned {
		if i := m.ovVarSlot(v); i >= 0 {
			m.ovLocked[i] = b
			return
		}
		m.cowVars()
	}
	m.locked[v] = b
}

// procCached and varCached report whether a component's cached window is
// valid: the bitmask decides — window length is state, not status — and
// a pending deferred invalidation vetoes the bit.
func (m *Machine) procCached(p int) bool {
	if m.procValid[p>>6]&(1<<uint(p&63)) == 0 {
		return false
	}
	for i := int8(0); i < m.nPStale; i++ {
		if m.pStale[i] == int32(p) {
			return false
		}
	}
	return true
}

func (m *Machine) varCached(v int) bool {
	if m.varValid[v>>6]&(1<<uint(v&63)) == 0 {
		return false
	}
	for i := int8(0); i < m.nVStale; i++ {
		if m.vStale[i] == int32(v) {
			return false
		}
	}
	return true
}

// staleProc and staleVar invalidate a component's cached window. The
// arena bytes become garbage (reclaimed by the next compaction) but are
// never rewritten in place: shared arenas stay frozen. On a machine that
// owns its span group the bit is cleared directly; otherwise the
// invalidation is deferred to the pending lists so a clone that steps
// once and is discarded never copies span arrays at all.
func (m *Machine) staleProc(p int) {
	if !m.spansOwned {
		for i := int8(0); i < m.nPStale; i++ {
			if m.pStale[i] == int32(p) {
				return
			}
		}
		if int(m.nPStale) < len(m.pStale) {
			m.pStale[m.nPStale] = int32(p)
			m.nPStale++
			return
		}
		m.applyStales()
	}
	w, bit := p>>6, uint64(1)<<uint(p&63)
	if m.procValid[w]&bit != 0 {
		m.procValid[w] &^= bit
		m.fpLive -= int(m.procSpan[p].n)
	}
}

func (m *Machine) staleVar(v int) {
	if !m.spansOwned {
		for i := int8(0); i < m.nVStale; i++ {
			if m.vStale[i] == int32(v) {
				return
			}
		}
		if int(m.nVStale) < len(m.vStale) {
			m.vStale[m.nVStale] = int32(v)
			m.nVStale++
			return
		}
		m.applyStales()
	}
	w, bit := v>>6, uint64(1)<<uint(v&63)
	if m.varValid[w]&bit != 0 {
		m.varValid[w] &^= bit
		m.fpLive -= int(m.varSpan[v].n)
	}
}

// applyStales privatizes the span group and folds the deferred
// invalidations into the validity bitmasks. It is the gateway to
// spansOwned: rebuildArena and the stale overflow path both come
// through here, so an owned span group never coexists with pendings.
func (m *Machine) applyStales() {
	m.cowSpans()
	for i := int8(0); i < m.nPStale; i++ {
		p := int(m.pStale[i])
		w, bit := p>>6, uint64(1)<<uint(p&63)
		if m.procValid[w]&bit != 0 {
			m.procValid[w] &^= bit
			m.fpLive -= int(m.procSpan[p].n)
		}
	}
	m.nPStale = 0
	for i := int8(0); i < m.nVStale; i++ {
		v := int(m.vStale[i])
		w, bit := v>>6, uint64(1)<<uint(v&63)
		if m.varValid[w]&bit != 0 {
			m.varValid[w] &^= bit
			m.fpLive -= int(m.varSpan[v].n)
		}
	}
	m.nVStale = 0
}

// New initializes a machine: every processor at PC 0 with local slot
// "init" holding ProcInit[p], every S/L variable holding its initial
// state, every Q variable with no subvalues.
//
// New also binds the compiled program to the system: every shared-variable
// operand resolves through the naming function here, once, filling the
// [proc][pc] variable-index table that Step indexes. A program that names
// a variable the system does not define fails here, not at step time.
func New(sys *system.System, instr system.InstrSet, program *Program) (*Machine, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	switch instr {
	case system.InstrS, system.InstrL, system.InstrQ, system.InstrExtL:
	default:
		return nil, fmt.Errorf("%w: %v", ErrBadInstrSet, instr)
	}
	np, nv := sys.NumProcs(), sys.NumVars()
	m := &Machine{
		sys:       sys,
		instr:     instr,
		program:   program,
		frames:    make([]Frame, np),
		varVal:    make([]any, nv),
		locked:    make([]bool, nv),
		varSub:    make([][]any, nv),
		subOwned:  make([]bool, nv),
		crashed:   make([]bool, np),
		procSpan:  make([]fpSpan, np),
		varSpan:   make([]fpSpan, nv),
		procValid: make([]uint64, (np+63)/64),
		varValid:  make([]uint64, (nv+63)/64),
		selSym:    -1,
		// Freshly built machines own every backing array, including the
		// (still empty) fingerprint arena.
		procsOwned: true,
		varsOwned:  true,
		spansOwned: true,
		arenaOwned: true,
		ovProc:     -1,
	}
	if s, ok := program.symIdx["selected"]; ok {
		m.selSym = s
	}
	ns := program.NumSyms()
	for p := range m.frames {
		locals := make([]any, ns)
		for i := range locals {
			locals[i] = unset
		}
		locals[SymInit] = sys.ProcInit[p]
		m.frames[p] = Frame{Locals: locals, owned: true}
	}
	for v := range m.varVal {
		m.varVal[v] = sys.VarInit[v]
		sub := make([]any, np)
		for i := range sub {
			sub[i] = unset
		}
		m.varSub[v] = sub
		m.subOwned[v] = true
	}
	// Instruction-set legality per opcode (local instructions are always
	// legal).
	m.allowedKind[opCompute] = true
	m.allowedKind[opJumpIf] = true
	m.allowedKind[opJump] = true
	m.allowedKind[opHalt] = true
	switch instr {
	case system.InstrS:
		m.allowedKind[opRead] = true
		m.allowedKind[opWrite] = true
	case system.InstrL, system.InstrExtL:
		m.allowedKind[opRead] = true
		m.allowedKind[opWrite] = true
		m.allowedKind[opLock] = true
		m.allowedKind[opUnlock] = true
	case system.InstrQ:
		m.allowedKind[opPeek] = true
		m.allowedKind[opPost] = true
	}
	// Pre-bind shared operands: one NameIndex resolution per instruction,
	// one Nbr row walk per processor, never again.
	nc := program.Len()
	flat := make([]int32, np*nc)
	m.bound = make([][]int32, np)
	for p := 0; p < np; p++ {
		m.bound[p] = flat[p*nc : (p+1)*nc : (p+1)*nc]
	}
	for pc := range program.code {
		o := &program.code[pc]
		if !isSharedKind(o.kind) {
			continue
		}
		j, err := sys.NameIndex(o.name)
		if err != nil {
			return nil, fmt.Errorf("machine: pc %d: %w", pc, err)
		}
		for p := 0; p < np; p++ {
			m.bound[p][pc] = int32(sys.Nbr[p][j])
		}
	}
	return m, nil
}

// Observe attaches an event recorder to streamed execution (RunWith). A
// nil recorder detaches. Clones inherit the recorder, so an observed
// machine's probe clones stay observed unless explicitly detached.
func (m *Machine) Observe(rec *obs.Recorder) { m.rec = rec }

// System returns the underlying system.
func (m *Machine) System() *system.System { return m.sys }

// Program returns the compiled program the machine runs.
func (m *Machine) Program() *Program { return m.program }

// NumProcs returns the number of processors.
func (m *Machine) NumProcs() int { return len(m.frames) }

// NumVars returns the number of variables.
func (m *Machine) NumVars() int { return len(m.varVal) }

// Steps returns the number of executed steps.
func (m *Machine) Steps() int { return m.steps }

// Halted reports whether processor p has halted.
func (m *Machine) Halted(p int) bool { return m.frameAt(p).Halted }

// AllHalted reports whether every processor has halted.
func (m *Machine) AllHalted() bool {
	for p := range m.frames {
		if !m.frameAt(p).Halted {
			return false
		}
	}
	return true
}

// Local returns processor p's local value (nil, false when unset). This
// is the introspection path — assertions, harness predicates, display —
// and resolves the name through the program's symbol table; compiled
// execution never goes through here.
func (m *Machine) Local(p int, name string) (any, bool) {
	s, ok := m.program.symIdx[name]
	if !ok {
		return nil, false
	}
	v := m.frameAt(p).Locals[s]
	if v == unset {
		return nil, false
	}
	return v, true
}

// Step executes one atomic instruction of processor p (a schedule step).
// Stepping a halted processor is a legal no-op, matching the paper's
// schedules which may name any processor at any time.
//
// Step is atomic on failure: every input (local lookups, instruction-set
// membership) is validated before the first mutation, so a Step that
// returns an error leaves the step counter, the fingerprint caches, and
// the machine state exactly as they were. (Shared-variable names were
// validated and bound at New.)
//
// The compiled path does no map operations and no name resolutions:
// locals are slot loads, shared operands index the pre-bound table, and
// jump targets are instruction indices.
func (m *Machine) Step(p int) error {
	if p < 0 || p >= len(m.frames) {
		return fmt.Errorf("%w: %d", ErrBadProcessor, p)
	}
	fr := m.frameAt(p)
	if fr.Halted {
		// A halted processor's step is a counted stutter: the state is
		// unchanged, so the cached fingerprint stays valid — don't clear it.
		m.steps++
		return nil
	}
	if fr.PC >= len(m.program.code) {
		// Running off the end halts the processor — a real state change.
		m.steps++
		m.staleProc(p)
		fr = m.writableFrame(p)
		fr.Halted = true
		return nil
	}
	in := &m.program.code[fr.PC]
	if !m.allowedKind[in.kind] {
		return fmt.Errorf("%w: %v under %v", ErrInstrNotAllowed, in.kind, m.instr)
	}
	// Every committed step mutates the frame and invalidates p's cached
	// fingerprint window. writableFrame routes the mutation through the
	// override slot on a clone-shared machine — a batch-expansion child
	// steps exactly once, so it never copies the frame array at all.
	// Variable writes go through setVarVal/setLocked the same way.
	fr = m.writableFrame(p)
	switch in.kind {
	case opRead:
		v := m.bound[p][fr.PC]
		m.steps++
		m.staleProc(p)
		m.frameCow(fr)
		fr.Locals[in.sym] = m.varValAt(int(v))
		fr.PC++
	case opWrite:
		v := m.bound[p][fr.PC]
		val := fr.Locals[in.sym]
		if val == unset {
			return fmt.Errorf("%w: %q", ErrMissingLocal, m.program.names[in.sym])
		}
		m.steps++
		m.staleProc(p)
		m.setVarVal(int(v), val)
		m.staleVar(int(v))
		fr.PC++
	case opLock:
		v := m.bound[p][fr.PC]
		m.steps++
		m.staleProc(p)
		m.frameCow(fr)
		if m.lockedAt(int(v)) {
			fr.Locals[in.sym] = false
		} else {
			m.setLocked(int(v), true)
			m.staleVar(int(v))
			fr.Locals[in.sym] = true
		}
		fr.PC++
	case opUnlock:
		v := m.bound[p][fr.PC]
		m.steps++
		m.staleProc(p)
		m.setLocked(int(v), false)
		m.staleVar(int(v))
		fr.PC++
	case opPeek:
		v := m.bound[p][fr.PC]
		m.steps++
		m.staleProc(p)
		m.frameCow(fr)
		fr.Locals[in.sym] = m.peekValue(int(v))
		fr.PC++
	case opPost:
		v := m.bound[p][fr.PC]
		val := fr.Locals[in.sym]
		if val == unset {
			return fmt.Errorf("%w: %q", ErrMissingLocal, m.program.names[in.sym])
		}
		m.steps++
		m.staleProc(p)
		m.cowVars()
		// Copy-on-write so snapshots are not aliased.
		sub := m.varSub[v]
		if !m.subOwned[v] {
			sub = append([]any(nil), sub...)
			m.varSub[v] = sub
			m.subOwned[v] = true
		}
		sub[p] = val
		m.staleVar(int(v))
		fr.PC++
	case opCompute:
		m.steps++
		m.staleProc(p)
		m.frameCow(fr)
		m.regs.slots = fr.Locals
		in.f(&m.regs)
		m.regs.slots = nil
		fr.PC++
	case opJumpIf:
		m.steps++
		m.staleProc(p)
		m.regs.slots = fr.Locals
		taken := in.cond(&m.regs)
		m.regs.slots = nil
		if taken {
			fr.PC = in.tgt
		} else {
			fr.PC++
		}
	case opJump:
		m.steps++
		m.staleProc(p)
		fr.PC = in.tgt
	case opHalt:
		m.steps++
		m.staleProc(p)
		fr.Halted = true
	default:
		return fmt.Errorf("machine: unknown opcode %v", in.kind)
	}
	return nil
}

// peekValue builds the PeekResult for variable v: init state plus the
// subvalue multiset sorted canonically (the paper's unordered multiset).
func (m *Machine) peekValue(v int) PeekResult {
	sub := m.varSub[v]
	vals := make([]any, 0, len(sub))
	for _, s := range sub {
		if s != unset {
			vals = append(vals, s)
		}
	}
	sort.Slice(vals, func(a, b int) bool {
		return canon.String(vals[a]) < canon.String(vals[b])
	})
	return PeekResult{Init: m.sys.VarInit[v], Values: vals}
}

// Scheduler streams schedule steps to a running machine. Next observes
// the current state and returns the processor to step, or ok=false to end
// the schedule. This is the paper's adversary in executable form: the
// schedule classes (general, fair, k-bounded-fair) are restrictions on
// what Next may return, and the impossibility proofs' adversaries are
// implementations that pick each step after watching the previous one
// land. Next must not mutate m (probe on a Clone instead).
type Scheduler interface {
	Next(m *Machine) (proc int, ok bool)
}

// sliceScheduler streams a precomputed finite schedule.
type sliceScheduler struct {
	schedule []int
	i        int
}

func (s *sliceScheduler) Next(*Machine) (int, bool) {
	if s.i >= len(s.schedule) {
		return 0, false
	}
	p := s.schedule[s.i]
	s.i++
	return p, true
}

// RunWith executes steps streamed by s from the current state, stopping
// early when every processor halts or s ends the schedule. It returns the
// number of steps executed. This is the primary driver; Run wraps it for
// finite precomputed schedules.
func (m *Machine) RunWith(s Scheduler) (int, error) {
	done := 0
	var err error
	for {
		if m.AllHalted() {
			break
		}
		p, ok := s.Next(m)
		if !ok {
			break
		}
		if err = m.Step(p); err != nil {
			break
		}
		if m.rec.Enabled() {
			m.rec.SchedStep(done, p, true)
		}
		done++
	}
	if m.rec.Enabled() && done > 0 {
		m.rec.Count("machine.steps", int64(done))
	}
	return done, err
}

// Run executes the schedule (a sequence of processor indices) from the
// current state, stopping early if every processor halts. It returns the
// number of steps actually executed.
func (m *Machine) Run(schedule []int) (int, error) {
	return m.RunWith(&sliceScheduler{schedule: schedule})
}

// StepOrSkip executes one step of processor p unless p has halted (or
// crashed), in which case it reports stepped=false and leaves the machine
// — including the step counter — untouched. Step treats a halted pick as
// a counted stutter, matching the paper's schedules which may name any
// processor; StepOrSkip is the fault harness's hook for distinguishing
// real steps from burned slots.
func (m *Machine) StepOrSkip(p int) (stepped bool, err error) {
	if p < 0 || p >= len(m.frames) {
		return false, fmt.Errorf("%w: %d", ErrBadProcessor, p)
	}
	if m.frameAt(p).Halted {
		return false, nil
	}
	return true, m.Step(p)
}

// Crash permanently halts processor p without consuming a schedule step —
// the fault model's crash-stop failure. The frame (locals, program
// counter, selected flag) survives; only the ability to step is lost.
// Crashing a processor that already halted on its own is a no-op.
func (m *Machine) Crash(p int) error {
	if p < 0 || p >= len(m.frames) {
		return fmt.Errorf("%w: %d", ErrBadProcessor, p)
	}
	if !m.frameAt(p).Halted {
		m.cowProcs()
		m.frames[p].Halted = true
		m.crashed[p] = true
		m.staleProc(p)
	}
	return nil
}

// Crashed reports whether processor p was halted by Crash (fault
// injection) as opposed to halting on its own.
func (m *Machine) Crashed(p int) bool { return m.crashed[p] }

// DropLock forcibly clears variable v's lock bit without consuming a
// schedule step — the fault model's lock-drop (a flaky lock service
// releasing a lease it granted). The holder is not notified: a processor
// that believes it holds the lock proceeds regardless, which is exactly
// the hazard the dining fault sweep probes. Dropping an unheld lock is a
// no-op.
func (m *Machine) DropLock(v int) error {
	if v < 0 || v >= len(m.locked) {
		return fmt.Errorf("%w: %d", ErrBadVariable, v)
	}
	if m.lockedAt(v) {
		m.cowVars()
		m.locked[v] = false
		m.staleVar(v)
	}
	return nil
}

// Locked reports whether variable v's lock bit is set.
func (m *Machine) Locked(v int) bool { return m.lockedAt(v) }

// appendProcFP writes processor p's canonical encoding into buf. Slots
// are emitted in declaration order — fixed for a given program — so no
// name material and no sort are needed; unset slots get their own tag so
// "never assigned" cannot alias a value.
func (m *Machine) appendProcFP(buf []byte, p int) []byte {
	fr := m.frameAt(p)
	buf = binary.AppendVarint(buf, int64(fr.PC))
	if fr.Halted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, v := range fr.Locals {
		if v == unset {
			buf = append(buf, 'u')
		} else {
			buf = appendLocalValue(buf, v)
		}
	}
	return buf
}

// uvarintLen is the encoded size of binary.AppendUvarint(nil, uint64(n)).
func uvarintLen(n int32) int32 {
	l := int32(1)
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// Arena window layout: every cached window is stored with its uvarint
// length prefix immediately before the body, and the span points at the
// body. appendProcKeyed/appendVarKeyed therefore emit a cached
// component with one copy of [off-uvarintLen(n), off+n), and runs of
// windows that are adjacent in the arena — the common case after
// PrimeFingerprints, which writes them back to back — collapse into a
// single bulk copy in AppendStateKey's unpermuted fast path.

// cacheProcFP records win — just encoded into a caller buffer — as
// processor p's cached window by copying it (length-prefixed) into the
// arena. A machine that does not own its arena (post-Clone,
// pre-rebuild) skips caching: shared arenas are frozen.
func (m *Machine) cacheProcFP(p int, win []byte) {
	if !m.arenaOwned {
		return
	}
	pl := uvarintLen(int32(len(win)))
	m.arenaReserve(int(pl) + len(win))
	m.fpArena = binary.AppendUvarint(m.fpArena, uint64(len(win)))
	off := len(m.fpArena)
	m.fpArena = append(m.fpArena, win...)
	m.procSpan[p] = fpSpan{off: int32(off), n: int32(len(win))}
	m.procValid[p>>6] |= 1 << uint(p&63)
	m.fpLive += int(pl) + len(win)
}

// cacheVarFP is cacheProcFP for variable windows.
func (m *Machine) cacheVarFP(v int, win []byte) {
	if !m.arenaOwned {
		return
	}
	pl := uvarintLen(int32(len(win)))
	m.arenaReserve(int(pl) + len(win))
	m.fpArena = binary.AppendUvarint(m.fpArena, uint64(len(win)))
	off := len(m.fpArena)
	m.fpArena = append(m.fpArena, win...)
	m.varSpan[v] = fpSpan{off: int32(off), n: int32(len(win))}
	m.varValid[v>>6] |= 1 << uint(v&63)
	m.fpLive += int(pl) + len(win)
}

// arenaReserve makes room to append n more bytes to an owned arena
// without growing forever: when the append would exceed capacity, the
// still-valid windows are compacted into the scratch buffer (the two
// swap roles each compaction, so steady-state caching allocates
// nothing). Only called with arenaOwned set.
func (m *Machine) arenaReserve(n int) {
	if len(m.fpArena)+n <= cap(m.fpArena) {
		return
	}
	m.rebuildArena(n)
}

// rebuildArena rebases every valid window into a privately owned arena
// sized for live bytes plus extra headroom, taking ownership. This is
// both the compactor (owned arena full of garbage) and the rebase step
// a cloned machine performs before its first cache fill — cowProcs/
// cowVars here is what makes the arenaOwned ⇒ procsOwned ∧ varsOwned
// invariant hold.
func (m *Machine) rebuildArena(extra int) {
	// Rewriting span offsets needs only the span group privatized — the
	// frame and variable values are untouched. Deferred invalidations
	// must land first so the live-byte walk sees final validity bits.
	m.applyStales()
	live := 0
	for p := range m.procSpan {
		if m.procCached(p) {
			n := m.procSpan[p].n
			live += int(uvarintLen(n) + n)
		}
	}
	for v := range m.varSpan {
		if m.varCached(v) {
			n := m.varSpan[v].n
			live += int(uvarintLen(n) + n)
		}
	}
	need := live + extra
	dst := m.fpScratch[:0]
	if cap(dst) < need {
		if s := m.slab; s != nil {
			// Kept machines' arenas are frozen after priming (children
			// never append to an arena they don't own), so a tight carve
			// is safe; run-mode machines keep the doubling growth.
			dst = s.bytes.take(need+64, 16384)[:0]
		} else {
			dst = make([]byte, 0, 2*need+64)
		}
	}
	// Valid windows that sit back to back in the source arena move as
	// single runs: after a batch step all but the few stale components
	// are still in prime order, so the whole compaction collapses into
	// one or two bulk copies (runs may span the proc/var boundary).
	runSrc, runEnd := int32(-1), int32(-1)
	runDst := int32(0)
	for p := range m.procSpan {
		if !m.procCached(p) {
			continue
		}
		sp := &m.procSpan[p]
		oldOff := sp.off
		if wStart := oldOff - uvarintLen(sp.n); wStart != runEnd {
			if runSrc >= 0 {
				dst = append(dst, m.fpArena[runSrc:runEnd]...)
			}
			runDst = int32(len(dst))
			runSrc = wStart
		}
		sp.off = runDst + (oldOff - runSrc)
		runEnd = oldOff + sp.n
	}
	for v := range m.varSpan {
		if !m.varCached(v) {
			continue
		}
		sp := &m.varSpan[v]
		oldOff := sp.off
		if wStart := oldOff - uvarintLen(sp.n); wStart != runEnd {
			if runSrc >= 0 {
				dst = append(dst, m.fpArena[runSrc:runEnd]...)
			}
			runDst = int32(len(dst))
			runSrc = wStart
		}
		sp.off = runDst + (oldOff - runSrc)
		runEnd = oldOff + sp.n
	}
	if runSrc >= 0 {
		dst = append(dst, m.fpArena[runSrc:runEnd]...)
	}
	if m.arenaOwned {
		m.fpScratch = m.fpArena[:0] // ping-pong: old arena becomes scratch
	} else {
		m.fpScratch = nil // old arena is shared — never write into it
	}
	m.fpArena = dst
	m.fpLive = live
	m.arenaOwned = true
}

// PrimeFingerprints re-encodes every stale component into a privately
// owned arena so subsequent AppendStateKey calls are pure window copies.
// The model checker calls this once per state it keeps: the one rebase
// replaces the per-component string materializations the encode path
// used to pay, and children cloned from a primed machine inherit every
// window read-only.
func (m *Machine) PrimeFingerprints() {
	// A kept machine is about to parent whole batches of clones: fold
	// its step's frame/variable overrides into privately owned arrays so
	// children inherit clean shared state (an inherited override would
	// force every child's first write through the privatizing fallback).
	// Both groups are privatized even when no override is pending — a
	// kept machine must not share any mutable array with its parent,
	// whose slab generation the checker recycles one level before this
	// machine dies. The copies land in the same recycled slab, so this
	// costs a small memmove, not an allocation.
	m.cowProcs()
	m.cowVars()
	if !m.arenaOwned {
		m.rebuildArena(64)
	}
	for p := range m.frames {
		if m.procCached(p) {
			continue
		}
		m.arenaReserve(48)
		start := len(m.fpArena)
		m.fpArena = append(m.fpArena, 0) // length-prefix placeholder
		m.fpArena = m.appendProcFP(m.fpArena, p)
		n := int32(len(m.fpArena) - start - 1)
		m.fpArena = fixupLenPrefix(m.fpArena, start+1)
		m.procSpan[p] = fpSpan{off: int32(start) + uvarintLen(n), n: n}
		m.procValid[p>>6] |= 1 << uint(p&63)
		m.fpLive += len(m.fpArena) - start
	}
	for v := range m.varVal {
		if m.varCached(v) {
			continue
		}
		m.arenaReserve(24)
		start := len(m.fpArena)
		m.fpArena = append(m.fpArena, 0) // length-prefix placeholder
		m.fpArena = m.appendVarFP(m.fpArena, v)
		n := int32(len(m.fpArena) - start - 1)
		m.fpArena = fixupLenPrefix(m.fpArena, start+1)
		m.varSpan[v] = fpSpan{off: int32(start) + uvarintLen(n), n: n}
		m.varValid[v>>6] |= 1 << uint(v&63)
		m.fpLive += len(m.fpArena) - start
	}
}

// ProcFingerprint returns a canonical encoding of processor p's state
// (program counter + locals). Two processors running the same program
// "have the same state" in the paper's sense exactly when their
// fingerprints are equal. The encoding walks the local slots in
// declaration order — injectivity survives because every component is
// self-delimiting and the slot layout is fixed per program.
func (m *Machine) ProcFingerprint(p int) string {
	if m.procCached(p) {
		sp := m.procSpan[p]
		return string(m.fpArena[sp.off : sp.off+sp.n])
	}
	buf := m.appendProcFP(make([]byte, 0, 48), p)
	m.cacheProcFP(p, buf)
	return string(buf)
}

// AppendProcFingerprint appends processor p's canonical fingerprint bytes
// to buf and returns the extended slice, refreshing the cache when stale.
// Comparing appended windows with bytes.Equal is equivalent to comparing
// ProcFingerprint strings, without materializing strings per check —
// trace's per-round witness scans run on reused buffers through here.
func (m *Machine) AppendProcFingerprint(buf []byte, p int) []byte {
	if m.procCached(p) {
		sp := m.procSpan[p]
		return append(buf, m.fpArena[sp.off:sp.off+sp.n]...)
	}
	start := len(buf)
	buf = m.appendProcFP(buf, p)
	m.cacheProcFP(p, buf[start:])
	return buf
}

// appendLocalValue appends a tagged self-delimiting encoding of a local
// value. Scalars and PeekResult get direct fast paths; anything else
// (slices, exotic Compute products) falls back to the canonical string,
// length-prefixed under its own tag so the regimes cannot alias.
func appendLocalValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n')
	case bool:
		if x {
			return append(buf, 'b', 1)
		}
		return append(buf, 'b', 0)
	case int:
		buf = append(buf, 'i')
		return binary.AppendVarint(buf, int64(x))
	case string:
		buf = append(buf, 's')
		return canon.AppendLenPrefixed(buf, x)
	case PeekResult:
		// peekValue already sorted Values canonically, so encoding the
		// stored order is canonical for the multiset it represents.
		buf = append(buf, 'p')
		buf = canon.AppendLenPrefixed(buf, x.Init)
		buf = binary.AppendUvarint(buf, uint64(len(x.Values)))
		for _, e := range x.Values {
			buf = appendLocalValue(buf, e)
		}
		return buf
	default:
		buf = append(buf, 'c')
		return canon.AppendLenPrefixed(buf, canon.String(valueForCanon(v)))
	}
}

// appendVarFP writes variable v's canonical encoding into buf. The
// leading tag byte separates the Q and S/L regimes.
func (m *Machine) appendVarFP(buf []byte, v int) []byte {
	if m.instr == system.InstrQ {
		return m.appendQVarFP(buf, v)
	}
	buf = append(buf, 'v')
	if m.lockedAt(v) {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendLocalValue(buf, m.varValAt(v))
}

// appendQVarFP encodes a Q variable — init state plus the posted
// subvalue multiset — directly in binary: elements are encoded in place
// and then ordered by their encoded bytes, which is canonical for the
// multiset because appendLocalValue is injective. This replaces the old
// "q"+canon.String(map[...]) construction (kept as VarFingerprintOracle)
// that dominated the encode path's allocations.
func (m *Machine) appendQVarFP(buf []byte, v int) []byte {
	sub := m.varSub[v]
	n := 0
	for _, s := range sub {
		if s != unset {
			n++
		}
	}
	buf = append(buf, 'q')
	buf = canon.AppendLenPrefixed(buf, m.sys.VarInit[v])
	buf = binary.AppendUvarint(buf, uint64(n))
	if n == 0 {
		return buf
	}
	var spanArr [24]fpSpan
	spans := spanArr[:0]
	if n > len(spanArr) {
		spans = make([]fpSpan, 0, n)
	}
	base := len(buf)
	for _, s := range sub {
		if s == unset {
			continue
		}
		off := len(buf)
		buf = appendLocalValue(buf, s)
		spans = append(spans, fpSpan{off: int32(off), n: int32(len(buf) - off)})
	}
	sorted := true
	for i := 1; i < len(spans); i++ {
		if bytes.Compare(fpWin(buf, spans[i-1]), fpWin(buf, spans[i])) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return buf
	}
	for i := 1; i < len(spans); i++ {
		sp := spans[i]
		j := i
		for ; j > 0 && bytes.Compare(fpWin(buf, spans[j-1]), fpWin(buf, sp)) > 0; j-- {
			spans[j] = spans[j-1]
		}
		spans[j] = sp
	}
	// Variable-length elements can't be permuted in place: append the
	// sorted sequence after the unsorted one (scratch inside buf's own
	// tail), then slide it back over the unsorted region.
	end := len(buf)
	for _, sp := range spans {
		buf = append(buf, buf[sp.off:sp.off+sp.n]...)
	}
	total := len(buf) - end
	copy(buf[base:], buf[end:])
	return buf[:base+total]
}

func fpWin(buf []byte, sp fpSpan) []byte { return buf[sp.off : sp.off+sp.n] }

// VarFingerprint returns a canonical encoding of variable v's state.
// Q subvalues are encoded as an unordered multiset. The leading tag byte
// separates the Q and S/L regimes.
func (m *Machine) VarFingerprint(v int) string {
	if m.varCached(v) {
		sp := m.varSpan[v]
		return string(m.fpArena[sp.off : sp.off+sp.n])
	}
	buf := m.appendVarFP(make([]byte, 0, 24), v)
	m.cacheVarFP(v, buf)
	return string(buf)
}

// AppendVarFingerprint appends variable v's canonical fingerprint bytes
// to buf, the VarFingerprint counterpart of AppendProcFingerprint: a
// miss encodes directly into the caller's buffer and caches from the
// appended window, never materializing a string. (It used to build the
// string cache even on first fill, the one remaining allocation on the
// warm encode path.)
func (m *Machine) AppendVarFingerprint(buf []byte, v int) []byte {
	if m.varCached(v) {
		sp := m.varSpan[v]
		return append(buf, m.fpArena[sp.off:sp.off+sp.n]...)
	}
	start := len(buf)
	buf = m.appendVarFP(buf, v)
	m.cacheVarFP(v, buf[start:])
	return buf
}

// Fingerprint returns the canonical encoding of the whole machine state
// (all frames and all variables). Used as the model checker's visited-set
// key.
func (m *Machine) Fingerprint() string {
	procs := make([]any, len(m.frames))
	for p := range m.frames {
		procs[p] = m.ProcFingerprint(p)
	}
	vars := make([]any, len(m.varVal))
	for v := range m.varVal {
		vars[v] = m.VarFingerprint(v)
	}
	return canon.String([]any{procs, vars})
}

// AppendStateKey appends a compact binary encoding of the whole machine
// state to buf and returns the extended slice. The key concatenates the
// length-prefixed per-processor and per-variable canonical fingerprints,
// so two machines over the same system have equal keys iff their
// Fingerprint strings are equal — without materializing a new string per
// state. This is the model checker's visited-set key: callers reuse buf
// across states and the per-component fingerprints stay cached.
//
// When procAt/varAt are non-nil they relabel the key's node positions:
// position i of the key takes processor procAt[i]'s (variable varAt[i]'s)
// component. Passing an automorphism's permutation yields the key of the
// symmetric image state, which is how symmetry reduction computes orbit
// representatives without building permuted machines.
func (m *Machine) AppendStateKey(buf []byte, procAt, varAt []int) []byte {
	if procAt == nil && varAt == nil {
		return m.appendStateKeyFast(buf)
	}
	for i := range m.frames {
		p := i
		if procAt != nil {
			p = procAt[i]
		}
		buf = m.appendProcKeyed(buf, p)
	}
	for i := range m.varVal {
		v := i
		if varAt != nil {
			v = varAt[i]
		}
		buf = m.appendVarKeyed(buf, v)
	}
	return buf
}

// appendStateKeyFast is the unpermuted AppendStateKey: identical bytes,
// but runs of cached components whose prefixed windows sit back to back
// in the arena (the layout PrimeFingerprints produces) are emitted as
// one bulk copy instead of one copy per component. A batch-stepped
// child typically re-encodes its ≤1 touched frame and ≤2 variables and
// bulk-copies everything between them.
func (m *Machine) appendStateKeyFast(buf []byte) []byte {
	runStart, runEnd := int32(-1), int32(-1)
	for p := range m.frames {
		if m.procCached(p) {
			sp := m.procSpan[p]
			start := sp.off - uvarintLen(sp.n)
			if start == runEnd {
				runEnd = sp.off + sp.n
				continue
			}
			if runStart >= 0 {
				buf = append(buf, m.fpArena[runStart:runEnd]...)
			}
			runStart, runEnd = start, sp.off+sp.n
			continue
		}
		if runStart >= 0 {
			buf = append(buf, m.fpArena[runStart:runEnd]...)
			runStart, runEnd = -1, -1
		}
		// The miss path may cache into (and thereby compact) the arena,
		// so no run may be held open across it.
		buf = append(buf, 0)
		start := len(buf)
		buf = m.appendProcFP(buf, p)
		m.cacheProcFP(p, buf[start:])
		buf = fixupLenPrefix(buf, start)
	}
	for v := range m.varVal {
		if m.varCached(v) {
			sp := m.varSpan[v]
			start := sp.off - uvarintLen(sp.n)
			if start == runEnd {
				runEnd = sp.off + sp.n
				continue
			}
			if runStart >= 0 {
				buf = append(buf, m.fpArena[runStart:runEnd]...)
			}
			runStart, runEnd = start, sp.off+sp.n
			continue
		}
		if runStart >= 0 {
			buf = append(buf, m.fpArena[runStart:runEnd]...)
			runStart, runEnd = -1, -1
		}
		buf = append(buf, 0)
		start := len(buf)
		buf = m.appendVarFP(buf, v)
		m.cacheVarFP(v, buf[start:])
		buf = fixupLenPrefix(buf, start)
	}
	if runStart >= 0 {
		buf = append(buf, m.fpArena[runStart:runEnd]...)
	}
	return buf
}

// appendProcKeyed appends one uvarint-length-prefixed processor
// component. A cached window is a pure copy; a miss encodes in place
// behind a reserved 1-byte prefix that fixupLenPrefix widens in the
// (rare) ≥128-byte case, and the freshly encoded window is cached when
// the arena is owned.
func (m *Machine) appendProcKeyed(buf []byte, p int) []byte {
	if m.procCached(p) {
		sp := m.procSpan[p]
		return append(buf, m.fpArena[sp.off-uvarintLen(sp.n):sp.off+sp.n]...)
	}
	buf = append(buf, 0)
	start := len(buf)
	buf = m.appendProcFP(buf, p)
	m.cacheProcFP(p, buf[start:])
	return fixupLenPrefix(buf, start)
}

// appendVarKeyed is appendProcKeyed for variable components.
func (m *Machine) appendVarKeyed(buf []byte, v int) []byte {
	if m.varCached(v) {
		sp := m.varSpan[v]
		return append(buf, m.fpArena[sp.off-uvarintLen(sp.n):sp.off+sp.n]...)
	}
	buf = append(buf, 0)
	start := len(buf)
	buf = m.appendVarFP(buf, v)
	m.cacheVarFP(v, buf[start:])
	return fixupLenPrefix(buf, start)
}

// fixupLenPrefix patches the 1-byte uvarint length placeholder at
// start-1 to hold len(buf)-start, sliding the encoded window right when
// the length needs a wider varint. The result is byte-identical to
// canon.AppendLenPrefixed of the same window.
func fixupLenPrefix(buf []byte, start int) []byte {
	n := len(buf) - start
	if n < 0x80 {
		buf[start-1] = byte(n)
		return buf
	}
	var tmp [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(tmp[:], uint64(n))
	buf = append(buf, tmp[:w-1]...) // grow by the extra prefix width
	copy(buf[start+w-1:], buf[start:start+n])
	copy(buf[start-1:], tmp[:w])
	return buf
}

// ProcFingerprintOracle reproduces the pre-compilation processor encoding
// — locals as a count-prefixed, name-sorted (name, value) list — from the
// slot representation. It exists purely as a cross-check oracle for the
// compiled fingerprint path (the way partition.FixpointNaive anchors the
// interned similarity path): equality classes under the oracle encoding
// must match equality classes under ProcFingerprint.
func (m *Machine) ProcFingerprintOracle(p int) string {
	fr := m.frameAt(p)
	buf := make([]byte, 0, 48)
	buf = binary.AppendVarint(buf, int64(fr.PC))
	if fr.Halted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	n := 0
	for _, v := range fr.Locals {
		if v != unset {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, s := range m.program.sortedSyms {
		v := fr.Locals[s]
		if v == unset {
			continue
		}
		buf = canon.AppendLenPrefixed(buf, m.program.names[s])
		buf = appendLocalValueOracle(buf, v)
	}
	return string(buf)
}

// appendLocalValueOracle is the pre-arena local-value encoding: scalars
// direct, everything composite (including PeekResult) through the 'c'
// canonical-string fallback. appendLocalValue since gained a direct
// PeekResult path; the oracle keeps the original bytes so its encoding
// stays frozen while the fast path evolves.
func appendLocalValueOracle(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n')
	case bool:
		if x {
			return append(buf, 'b', 1)
		}
		return append(buf, 'b', 0)
	case int:
		buf = append(buf, 'i')
		return binary.AppendVarint(buf, int64(x))
	case string:
		buf = append(buf, 's')
		return canon.AppendLenPrefixed(buf, x)
	default:
		buf = append(buf, 'c')
		return canon.AppendLenPrefixed(buf, canon.String(valueForCanon(v)))
	}
}

// VarFingerprintOracle reproduces the pre-arena variable encoding — the
// Q regime as "q"+canon.String of an {init, sub-multiset} map, S/L as
// the tagged lock-byte form. It anchors the direct binary encoding in
// appendVarFP the way ProcFingerprintOracle anchors the slot walk:
// equality classes under the two encodings must coincide.
func (m *Machine) VarFingerprintOracle(v int) string {
	if m.instr == system.InstrQ {
		sub := m.varSub[v]
		ms := make(canon.Multiset, 0, len(sub))
		for _, s := range sub {
			if s != unset {
				ms = append(ms, s)
			}
		}
		return "q" + canon.String(map[string]any{"init": m.sys.VarInit[v], "sub": ms})
	}
	buf := make([]byte, 0, 24)
	buf = append(buf, 'v')
	if m.lockedAt(v) {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendLocalValueOracle(buf, m.varValAt(v))
	return string(buf)
}

// FingerprintOracle composes whole-state fingerprints from the oracle
// processor encoding — byte-identical to the pre-compilation Fingerprint.
// Cross-check tests compare its equality classes against Fingerprint's.
func (m *Machine) FingerprintOracle() string {
	procs := make([]any, len(m.frames))
	for p := range m.frames {
		procs[p] = m.ProcFingerprintOracle(p)
	}
	vars := make([]any, len(m.varVal))
	for v := range m.varVal {
		vars[v] = m.VarFingerprintOracle(v)
	}
	return canon.String([]any{procs, vars})
}

func valueForCanon(v any) any {
	if pr, ok := v.(PeekResult); ok {
		ms := make(canon.Multiset, len(pr.Values))
		copy(ms, pr.Values)
		return map[string]any{"peek_init": pr.Init, "peek_vals": ms}
	}
	return v
}

// Clone returns an independent snapshot of the machine in O(1): every
// mutable array — frames, variable values, locks, subvalues, fingerprint
// spans — is shared copy-on-write between the two machines, and the
// first mutating step on either side copies just the array group it
// touches. Clearing the ownership bits here covers both machines (a
// machine is only ever touched by one goroutine at a time).
//
// The fingerprint arena is frozen on both sides: neither machine may
// append to the shared arena, so cache fills stop until one rebases
// onto a private arena (PrimeFingerprints / rebuildArena). Still-valid
// windows keep being served read-only from the shared arena — this is
// what lets W sibling clones of one parent re-encode only the ≤1 frame
// and ≤2 variables their step touched while copying every other
// component straight out of the parent's arena.
func (m *Machine) Clone() *Machine {
	c := new(Machine)
	m.cloneInto(c)
	return c
}

// CloneInto writes a snapshot of the machine into dst, overwriting
// whatever dst held — the allocation-free Clone the model checker's
// batch expander uses to step W sibling clones out of a reusable pool.
// dst must be a different machine from m and must not be stepped
// concurrently with m's other clones (one goroutine per machine, as
// everywhere).
//
// When dst still exclusively owns proc/var arrays of matching shape —
// a pool slot whose previous occupant was not kept — CloneInto salvages
// them into the slot's recycling bin, and the child's first
// copy-on-write consumes them instead of allocating: steady-state batch
// expansion copies only the array group a step touches, into recycled
// memory, and pays no GC write barriers for groups the step leaves
// shared. The fingerprint arena itself is never recycled this way; it
// is frozen and shared exactly as in Clone.
func (m *Machine) CloneInto(dst *Machine) { m.cloneInto(dst) }

func (m *Machine) cloneInto(dst *Machine) {
	sp := dst.spares
	if dst != m && (dst.procsOwned || dst.varsOwned || dst.spansOwned ||
		(dst.ovProc >= 0 && dst.ovFrame.owned)) {
		// The previous occupant's exclusively owned arrays are dead
		// (the checker detaches kept machines, clearing these bits):
		// bank them for the next cowProcs/cowVars/cowSpans/frameCow.
		if sp == nil {
			sp = new(spareArrays)
		}
		if dst.procsOwned && !sp.hasProcs && len(dst.frames) == len(m.frames) {
			for i := range dst.frames {
				if dst.frames[i].owned {
					sp.locals = append(sp.locals, dst.frames[i].Locals)
				}
			}
			sp.frames, sp.crashed = dst.frames, dst.crashed
			sp.hasProcs = true
		}
		if dst.ovProc >= 0 && dst.ovFrame.owned {
			// The dead occupant's override frame privatized its Locals:
			// that slice is dead too — recycle it.
			sp.locals = append(sp.locals, dst.ovFrame.Locals)
		}
		if dst.varsOwned && !sp.hasVars && len(dst.varVal) == len(m.varVal) {
			sp.varVal, sp.locked = dst.varVal, dst.locked
			sp.varSub, sp.subOwned = dst.varSub, dst.subOwned
			sp.hasVars = true
		}
		if dst.spansOwned && !sp.hasSpans &&
			len(dst.procSpan) == len(m.procSpan) && len(dst.varSpan) == len(m.varSpan) {
			sp.procSpan, sp.varSpan = dst.procSpan, dst.varSpan
			sp.procValid, sp.varValid = dst.procValid, dst.varValid
			sp.hasSpans = true
		}
	}
	m.procsOwned = false
	m.varsOwned = false
	m.spansOwned = false
	m.arenaOwned = false
	if m.ovProc >= 0 {
		// Both machines now carry the same override frame by value; its
		// Locals slice is shared between them, so neither may trust a
		// stale owned bit (same rule as the cleared group bits above).
		m.ovFrame.owned = false
	}
	*dst = *m
	dst.regs = Regs{}
	// The compaction scratch is exclusively the parent's: sharing it
	// would let two machines compact into the same buffer. The bin
	// stays with the slot it was salvaged from. The slab is the
	// checker's and only kept machines it primes may carve from it — a
	// pool child must not.
	dst.fpScratch = nil
	dst.spares = sp
	dst.slab = nil
}

// Detach returns a heap copy of the machine, transferring its state and
// array ownership: the receiver's ownership bits are cleared so a later
// CloneInto cannot recycle arrays the detached copy now owns. It exists
// for pool-backed expansion: a pool slot the checker decides to keep is
// detached onto the heap and the slot is dead until the next CloneInto
// overwrites it. The receiver must not be stepped after Detach.
func (m *Machine) Detach() *Machine {
	return m.DetachTo(new(Machine))
}

// DetachTo is Detach into caller-provided storage — the model checker
// carves kept machines out of slab chunks, one allocation per dozens of
// adopted states. dst is overwritten entirely.
func (m *Machine) DetachTo(dst *Machine) *Machine {
	*dst = *m
	dst.spares = nil // the recycling bin stays with the pool slot
	m.procsOwned = false
	m.varsOwned = false
	m.spansOwned = false
	m.arenaOwned = false
	// The override frame's private Locals slice moves to the copy too:
	// without this, the next CloneInto over the slot would recycle a
	// slice the detached machine still references.
	m.ovFrame.owned = false
	return dst
}

// Selected reports whether processor p's conventional "selected" local
// holds true (false when the program has no such local or p is out of
// range). Unlike SelectedProcs it is a single slot read — cheap enough
// for per-step predicates in sampled runs.
func (m *Machine) Selected(p int) bool {
	if m.selSym < 0 || p < 0 || p >= len(m.frames) {
		return false
	}
	sel, ok := m.frameAt(p).Locals[m.selSym].(bool)
	return ok && sel
}

// SelectedProcs returns the processors whose local "selected" is true —
// the paper's selected_p flag (section 3).
func (m *Machine) SelectedProcs() []int {
	if m.selSym < 0 {
		return nil
	}
	var out []int
	for p := range m.frames {
		if sel, ok := m.frameAt(p).Locals[m.selSym].(bool); ok && sel {
			out = append(out, p)
		}
	}
	return out
}
