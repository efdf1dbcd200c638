package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
// unassigned slots hold the package-private unset sentinel. Inside a
// machine it is a window into the machine's own locals array, except
// where ViewComponent set it.
type Frame struct {
	PC     int
	Locals []any
	Halted bool
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

	// The machine owns every mutable array below: Step and the fault
	// calls write in place, and Clone and CloneInto copy them. Processor
	// p's Locals is the window locals[p·NumSyms : (p+1)·NumSyms].
	frames []Frame
	locals []any
	// S/L variables: one value each, plus a lock bit for L.
	varVal []any
	locked []bool
	// Q variables: one subvalue slot per processor (unset sentinel when
	// the processor has not posted); varSub[v] is the window
	// subs[v·NumProcs : (v+1)·NumProcs]. Both are nil under S and L. Slot
	// varSub[v][p] is part of processor p's state: only p posts to it.
	varSub [][]any
	subs   []any

	steps int

	// crashed marks processors halted by fault injection (Crash) rather
	// than by their own program. A crashed processor is observationally a
	// halted one — fingerprints and other processors cannot tell the
	// difference — but harnesses use the distinction to excuse crashed
	// processors from convergence and correctness obligations.
	crashed []bool

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
}

// isSharedKind reports whether the opcode addresses a shared variable.
func isSharedKind(k opKind) bool { return k >= opRead && k <= opPost }

// fpSpan addresses one encoded subvalue inside appendQVarFP's buffer.
type fpSpan struct {
	off int32
	n   int32
}

// window points every frame's Locals and every Q variable's slots at
// their stretch of the machine's own locals and subs arrays.
func (m *Machine) window() {
	ns, np := m.program.NumSyms(), len(m.frames)
	for p := range m.frames {
		m.frames[p].Locals = m.locals[p*ns : (p+1)*ns : (p+1)*ns]
	}
	for v := range m.varSub {
		m.varSub[v] = m.subs[v*np : (v+1)*np : (v+1)*np]
	}
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
		sys:     sys,
		instr:   instr,
		program: program,
		frames:  make([]Frame, np),
		locals:  make([]any, np*program.NumSyms()),
		varVal:  make([]any, nv),
		locked:  make([]bool, nv),
		crashed: make([]bool, np),
		selSym:  -1,
	}
	if s, ok := program.symIdx["selected"]; ok {
		m.selSym = s
	}
	for i := range m.locals {
		m.locals[i] = unset
	}
	if instr == system.InstrQ {
		m.varSub, m.subs = make([][]any, nv), make([]any, nv*np)
		for i := range m.subs {
			m.subs[i] = unset
		}
	}
	m.window()
	for p := range m.frames {
		m.frames[p].Locals[SymInit] = sys.ProcInit[p]
	}
	for v := range m.varVal {
		m.varVal[v] = sys.VarInit[v]
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

// NumProcs returns the number of processors.
func (m *Machine) NumProcs() int { return len(m.frames) }

// NumVars returns the number of variables.
func (m *Machine) NumVars() int { return len(m.varVal) }

// Steps returns the number of executed steps.
func (m *Machine) Steps() int { return m.steps }

// Halted reports whether processor p has halted.
func (m *Machine) Halted(p int) bool { return m.frames[p].Halted }

// AllHalted reports whether every processor has halted.
func (m *Machine) AllHalted() bool {
	for p := range m.frames {
		if !m.frames[p].Halted {
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
	if s, ok := m.program.Lookup(name); ok {
		return m.LocalAt(p, s)
	}
	return nil, false
}

// LocalAt is Local for a slot the machine's program resolved
// (Program.Lookup): a predicate evaluated on every state resolves its
// names once.
func (m *Machine) LocalAt(p int, s Sym) (any, bool) {
	v := m.frames[p].Locals[s]
	if v == unset {
		return nil, false
	}
	return v, true
}

// Step executes one atomic instruction of processor p (a schedule step).
// Stepping a halted processor is a legal no-op, matching the paper's
// schedules which may name any processor at any time. A step reads and
// writes only p's frame, under Q p's own subvalue slots, and the one
// variable StepVar names.
//
// Step is atomic on failure: every input (local lookups, instruction-set
// membership) is validated before the first mutation, so a Step that
// returns an error leaves the step counter and the machine state exactly
// as they were. (Shared-variable names were validated and bound at New.)
//
// The compiled path does no map operations and no name resolutions:
// locals are slot loads, shared operands index the pre-bound table, and
// jump targets are instruction indices.
func (m *Machine) Step(p int) error {
	if p < 0 || p >= len(m.frames) {
		return fmt.Errorf("%w: %d", ErrBadProcessor, p)
	}
	fr := &m.frames[p]
	if fr.Halted {
		// A halted processor's step is a counted stutter: the state is
		// unchanged.
		m.steps++
		return nil
	}
	if fr.PC >= len(m.program.code) {
		// Running off the end halts the processor — a real state change.
		m.steps++
		fr.Halted = true
		return nil
	}
	in := &m.program.code[fr.PC]
	if !m.allowedKind[in.kind] {
		return fmt.Errorf("%w: %v under %v", ErrInstrNotAllowed, in.kind, m.instr)
	}
	switch in.kind {
	case opRead:
		v := m.bound[p][fr.PC]
		m.steps++
		fr.Locals[in.sym] = m.varVal[v]
		fr.PC++
	case opWrite:
		v := m.bound[p][fr.PC]
		val := fr.Locals[in.sym]
		if val == unset {
			return fmt.Errorf("%w: %q", ErrMissingLocal, m.program.names[in.sym])
		}
		m.steps++
		m.varVal[v] = val
		fr.PC++
	case opLock:
		v := m.bound[p][fr.PC]
		m.steps++
		if m.locked[v] {
			fr.Locals[in.sym] = false
		} else {
			m.locked[v] = true
			fr.Locals[in.sym] = true
		}
		fr.PC++
	case opUnlock:
		v := m.bound[p][fr.PC]
		m.steps++
		m.locked[v] = false
		fr.PC++
	case opPeek:
		v := m.bound[p][fr.PC]
		m.steps++
		fr.Locals[in.sym] = m.peekValue(int(v))
		fr.PC++
	case opPost:
		v := m.bound[p][fr.PC]
		val := fr.Locals[in.sym]
		if val == unset {
			return fmt.Errorf("%w: %q", ErrMissingLocal, m.program.names[in.sym])
		}
		m.steps++
		m.varSub[v][p] = val
		fr.PC++
	case opCompute:
		m.steps++
		m.regs.slots = fr.Locals
		in.f(&m.regs)
		m.regs.slots = nil
		fr.PC++
	case opJumpIf:
		m.steps++
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
		fr.PC = in.tgt
	case opHalt:
		m.steps++
		fr.Halted = true
	default:
		return fmt.Errorf("machine: unknown opcode %v", in.kind)
	}
	return nil
}

// StepVar returns the variable a step of processor p from frame fr
// reads or writes, or -1 when the step touches no variable: fr is
// halted, its pc is past the program's end, or its instruction is local.
func (m *Machine) StepVar(p int, fr *Frame) int {
	if fr.Halted || fr.PC >= len(m.program.code) || !isSharedKind(m.program.code[fr.PC].kind) {
		return -1
	}
	return int(m.bound[p][fr.PC])
}

// peekValue builds the PeekResult for variable v: init state plus the
// subvalue multiset sorted canonically (the paper's unordered multiset).
// Each value's canonical string is encoded once, not once per comparison.
func (m *Machine) peekValue(v int) PeekResult {
	sub := m.varSub[v]
	ps := peekSort{keys: make([]string, 0, len(sub)), vals: make([]any, 0, len(sub))}
	for _, s := range sub {
		if s != unset {
			ps.vals = append(ps.vals, s)
			ps.keys = append(ps.keys, canon.String(s))
		}
	}
	sort.Sort(ps)
	return PeekResult{Init: m.sys.VarInit[v], Values: ps.vals}
}

// peekSort orders a peek's values by their canonical strings, keys[i]
// being vals[i]'s.
type peekSort struct {
	keys []string
	vals []any
}

func (s peekSort) Len() int           { return len(s.keys) }
func (s peekSort) Less(a, b int) bool { return s.keys[a] < s.keys[b] }
func (s peekSort) Swap(a, b int) {
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
	s.vals[a], s.vals[b] = s.vals[b], s.vals[a]
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
	if m.frames[p].Halted {
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
	if !m.frames[p].Halted {
		m.frames[p].Halted = true
		m.crashed[p] = true
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
	if m.locked[v] {
		m.locked[v] = false
	}
	return nil
}

// Locked reports whether variable v's lock bit is set.
func (m *Machine) Locked(v int) bool { return m.locked[v] }

// appendProcFP writes processor p's canonical encoding into buf. Slots
// are emitted in declaration order — fixed for a given program — so no
// name material and no sort are needed; unset slots get their own tag so
// "never assigned" cannot alias a value. Under Q the locals are followed
// by p's own subvalue slot in each variable it names, in name order.
func (m *Machine) appendProcFP(buf []byte, p int) []byte {
	fr := &m.frames[p]
	buf = binary.AppendVarint(buf, int64(fr.PC))
	if fr.Halted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, v := range fr.Locals {
		buf = appendSlot(buf, v)
	}
	if m.subs != nil {
		for _, v := range m.sys.Nbr[p] {
			buf = appendSlot(buf, m.varSub[v][p])
		}
	}
	return buf
}

// appendSlot appends a local or subvalue slot: the unset tag, or the
// value's encoding.
func appendSlot(buf []byte, v any) []byte {
	if v == unset {
		return append(buf, 'u')
	}
	return appendLocalValue(buf, v)
}

// appendFP writes component c's canonical encoding into buf.
func (m *Machine) appendFP(buf []byte, c int) []byte {
	if np := len(m.frames); c >= np {
		return m.appendVarFP(buf, c-np)
	}
	return m.appendProcFP(buf, c)
}

// AppendProcFingerprint appends processor p's canonical fingerprint bytes
// to buf and returns the extended slice; p must be a processor index, in
// [0, NumProcs()). Two processors running the same program "have the
// same state" in the paper's sense exactly when their fingerprints are
// equal. The encoding walks the local slots in declaration order —
// injectivity survives because every component is self-delimiting and
// the slot layout is fixed per program. Under Q the window also holds
// the processor's own subvalue in each variable it names, in name order:
// a post overwrites only the poster's subvalue, so who posted what
// belongs to the poster, and a window stays the same under any
// automorphism. trace's per-round witness scans compare these windows
// with bytes.Equal on reused buffers; similar processors in lockstep
// post equal values under each name.
func (m *Machine) AppendProcFingerprint(buf []byte, p int) []byte {
	return m.appendProcFP(buf, p)
}

// AppendVarFingerprint appends variable v's canonical fingerprint bytes
// to buf, the variable counterpart of AppendProcFingerprint. Q subvalues
// are encoded as an unordered multiset, what a peek sees; who posted each
// is in its poster's window. The leading tag byte separates the Q and
// S/L regimes.
func (m *Machine) AppendVarFingerprint(buf []byte, v int) []byte {
	return m.appendVarFP(buf, v)
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
	if m.locked[v] {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendLocalValue(buf, m.varVal[v])
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

// Fingerprint returns the state key (AppendStateKey) as a string: two
// machines over the same system and program have equal fingerprints
// exactly when they are in the same state.
func (m *Machine) Fingerprint() string {
	return string(m.AppendStateKey(nil, nil, nil))
}

// AppendStateKey appends a compact binary encoding of the whole machine
// state to buf and returns the extended slice. The key concatenates the
// uvarint-length-prefixed component windows in table order — every
// processor, then every variable — so two machines over the same system
// have equal keys iff they are in the same state. Callers reuse buf
// across states; every call encodes every window.
//
// When procAt/varAt are non-nil they relabel the key's node positions:
// position i of the key takes processor procAt[i]'s (variable varAt[i]'s)
// component. Passing an automorphism's permutation yields the key of the
// symmetric image state without building a permuted machine. The model
// checker's symmetry reduction permutes component-id vectors instead
// (mc.minimize), so only tests, which check the relabeled key against
// explicitly permuted machines, pass non-nil slices.
func (m *Machine) AppendStateKey(buf []byte, procAt, varAt []int) []byte {
	np := len(m.frames)
	for i := 0; i < np+len(m.varVal); i++ {
		c := i
		if i < np && procAt != nil {
			c = procAt[i]
		} else if i >= np && varAt != nil {
			c = np + varAt[i-np]
		}
		buf = m.appendKeyed(buf, c)
	}
	return buf
}

// appendKeyed appends component c with its uvarint length prefix: the
// window is encoded in place behind a reserved 1-byte prefix that
// fixupLenPrefix widens in the (rare) ≥128-byte case.
func (m *Machine) appendKeyed(buf []byte, c int) []byte {
	buf = append(buf, 0)
	start := len(buf)
	buf = m.appendFP(buf, c)
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

func valueForCanon(v any) any {
	if pr, ok := v.(PeekResult); ok {
		ms := make(canon.Multiset, len(pr.Values))
		copy(ms, pr.Values)
		return map[string]any{"peek_init": pr.Init, "peek_vals": ms}
	}
	return v
}

// Clone returns an independent copy of the machine: the copy gets its
// own frames, locals, variable values, lock bits, crash marks and Q
// subvalue slots, so a step on either machine never shows on the other.
// Clone only reads m, so several goroutines may clone one machine at
// once as long as none of them mutates it.
func (m *Machine) Clone() *Machine {
	c := new(Machine)
	m.CloneInto(c)
	return c
}

// CloneInto overwrites dst with a copy of the machine, as Clone does,
// copying into dst's own arrays: once dst has held a machine of m's
// shape, a repeat copy allocates nothing. dst may have run over any
// system and program, and must be a different machine from m. Like
// Clone it only reads m.
func (m *Machine) CloneInto(dst *Machine) {
	frames, locals, varVal, locked := dst.frames, dst.locals, dst.varVal, dst.locked
	varSub, subs, crashed := dst.varSub, dst.subs, dst.crashed
	*dst = *m
	dst.frames = append(frames[:0], m.frames...)
	dst.locals = append(locals[:0], m.locals...)
	dst.varVal = append(varVal[:0], m.varVal...)
	dst.locked = append(locked[:0], m.locked...)
	dst.crashed = append(crashed[:0], m.crashed...)
	if m.subs != nil {
		dst.varSub = append(varSub[:0], m.varSub...)
		dst.subs = append(subs[:0], m.subs...)
	}
	dst.window()
	dst.regs = Regs{}
}

// Component is the value of one state component, the value its window
// (AppendProcFingerprint, AppendVarFingerprint) encodes: a processor's
// Frame and, under Q, its own subvalue in each variable it names (Sub,
// in name order, nil under S and L); or a variable's value and lock bit,
// which Q never changes. A processor component leaves the variable
// fields zero, and a variable component leaves Frame and Sub zero.
type Component struct {
	Frame  Frame
	Sub    []any
	Val    any
	Locked bool
}

// Component returns a copy of component c — processor c when c <
// NumProcs(), variable c-NumProcs() otherwise, the state key's order —
// that shares no array the machine may write later.
func (m *Machine) Component(c int) Component {
	if np := len(m.frames); c >= np {
		return Component{Val: m.varVal[c-np], Locked: m.locked[c-np]}
	}
	x := Component{Frame: m.frames[c]}
	x.Frame.Locals = slices.Clone(x.Frame.Locals)
	if m.subs != nil {
		x.Sub = make([]any, len(m.sys.Nbr[c]))
		for j, v := range m.sys.Nbr[c] {
			x.Sub[j] = m.varSub[v][c]
		}
	}
	return x
}

// SetComponent overwrites component c with *x, a value Component
// returned for a machine running the same program over a system of the
// same shape. It copies x's Locals and subvalues into the machine's own
// arrays, so x stays unshared and the call allocates nothing. Crash
// marks are left as they are.
func (m *Machine) SetComponent(c int, x *Component) { m.setComponent(c, x, false) }

// ViewComponent is SetComponent without the copy: processor c's Locals
// become x's own array, which the machine then reads in place. It is
// for a machine that is never stepped or written, one that predicates
// only read: a step or a write through it would write x, and a Clone of
// it would copy the machine's own locals, not x's.
func (m *Machine) ViewComponent(c int, x *Component) { m.setComponent(c, x, true) }

func (m *Machine) setComponent(c int, x *Component, view bool) {
	if np := len(m.frames); c >= np {
		m.varVal[c-np], m.locked[c-np] = x.Val, x.Locked
	} else {
		fr := &m.frames[c]
		if view {
			*fr = x.Frame
		} else {
			fr.PC, fr.Halted = x.Frame.PC, x.Frame.Halted
			copy(fr.Locals, x.Frame.Locals)
		}
		for j, v := range x.Sub {
			m.varSub[m.sys.Nbr[c][j]][c] = v
		}
	}
}

// Selected reports whether processor p's conventional "selected" local
// holds true (false when the program has no such local or p is out of
// range). Unlike SelectedProcs it is a single slot read — cheap enough
// for per-step predicates in sampled runs.
func (m *Machine) Selected(p int) bool {
	if m.selSym < 0 || p < 0 || p >= len(m.frames) {
		return false
	}
	sel, ok := m.frames[p].Locals[m.selSym].(bool)
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
		if sel, ok := m.frames[p].Locals[m.selSym].(bool); ok && sel {
			out = append(out, p)
		}
	}
	return out
}
