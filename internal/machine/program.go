// Package machine executes the paper's system model: processors running a
// single shared program over a network of shared variables, one atomic
// instruction per schedule step (section 2).
//
// Programs are small instruction lists. All processors run the same
// program — the model's anonymity requirement: "processors in the same
// state execute the same instruction". A processor's state is its program
// counter plus its local variables; the machine can fingerprint any node's
// state canonically, which is how the paper's similarity claims ("same
// state at the same time infinitely often") are checked empirically.
//
// A machine has one encoding of its state: a component table holding
// every processor, then every variable, each with one canonical window
// encoder. The state key (AppendStateKey) concatenates the windows in
// table order, and Fingerprint is the same key as a string. The model
// checker interns the windows one by one, and rebuilds states from
// their values (Component, SetComponent).
//
// Programs are compiled: the Builder interns every local-variable name to
// a dense Sym slot and appends compiled ops directly, and Build resolves
// jump labels to instruction indices, so the interpreter addresses locals
// by slot and jumps by index — no string or map work on the step path.
// machine.New then pre-binds every shared-variable operand to its
// per-processor variable index (the paper's n-nbr function, evaluated
// once instead of per step).
//
// Instruction sets are enforced: S programs may only read/write, L adds
// lock/unlock, and Q replaces read/write with peek/post on multiset
// variables.
package machine

import (
	"errors"
	"fmt"

	"simsym/internal/system"
)

// Sym is a compiled local-variable slot: local names intern to dense
// indices at build time (Builder.Sym), and frames store locals in a slot
// slice addressed by Sym. Sym values are only meaningful for the program
// that interned them.
type Sym int32

// SymInit is the slot of the reserved local "init", which machine.New
// fills with the processor's initial state. Every program has it.
const SymInit Sym = 0

// unsetType is the private sentinel marking an unassigned local slot.
// Frames distinguish "never set" from "set to nil" exactly as the old
// map representation distinguished a missing key from a nil value.
type unsetType struct{}

var unset any = unsetType{}

// Regs is the register-file view Compute and JumpIf closures receive: a
// window onto one processor's local slots. By convention, closures must
// treat non-scalar values as immutable: replace them, never mutate in
// place (machine snapshots share value structure).
type Regs struct {
	slots []any
}

// Get returns the value in slot s, or nil when the slot is unset.
func (r *Regs) Get(s Sym) any {
	v := r.slots[s]
	if v == unset {
		return nil
	}
	return v
}

// Has reports whether slot s has been assigned.
func (r *Regs) Has(s Sym) bool { return r.slots[s] != unset }

// Set assigns slot s.
func (r *Regs) Set(s Sym, v any) { r.slots[s] = v }

// Int returns the int in slot s, or 0 when the slot is unset or holds a
// different type.
func (r *Regs) Int(s Sym) int {
	n, _ := r.slots[s].(int)
	return n
}

// PeekResult is what a peek stores: the variable's initial state plus the
// current multiset of subvalues. The multiset is stored canonically
// encoded so that processor states compare correctly.
type PeekResult struct {
	Init   string
	Values []any // sorted by canonical encoding at peek time
}

// opKind is a compiled instruction opcode.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	opLock
	opUnlock
	opPeek
	opPost
	opCompute
	opJumpIf
	opJump
	opHalt
)

// op is one compiled instruction: opcode plus pre-resolved operands. The
// shared-variable name survives compilation only so machine.New can bind
// it to per-processor variable indices; Step never touches it. kind and
// sym share the first word, which keeps an op at 48 bytes.
type op struct {
	kind opKind
	sym  Sym         // destination/source slot operand
	name system.Name // shared-variable operand (binding key; zero for local ops)
	tgt  int         // resolved jump target pc
	f    func(*Regs)
	cond func(*Regs) bool
}

// Program is a compiled instruction sequence plus its symbol table.
type Program struct {
	code []op
	// names is the symbol table: names[s] is the local name interned to
	// slot s, in declaration (interning) order. Slot 0 is always "init".
	names  []string
	symIdx map[string]Sym
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.code) }

// NumSyms returns the number of interned local slots.
func (p *Program) NumSyms() int { return len(p.names) }

// Lookup returns the slot of the local name, and whether the program
// has one, so a reader resolves a name once (see Machine.LocalAt).
func (p *Program) Lookup(name string) (Sym, bool) {
	s, ok := p.symIdx[name]
	return s, ok
}

// Sentinel errors for program construction.
var (
	ErrUnknownLabel = errors.New("machine: jump to unknown label")
	ErrDupLabel     = errors.New("machine: duplicate label")
	ErrEmptyProgram = errors.New("machine: empty program")
)

// Builder assembles a Program with named labels and an interned symbol
// table. Each instruction method appends one compiled op; local names
// used in instructions intern automatically, and closures address locals
// through Syms obtained from Sym before Build. Jump targets are recorded
// by label and resolved by Build.
type Builder struct {
	code   []op
	labels map[string]int
	dup    string   // first label defined twice, reported by Build
	jumps  []jumpTo // unresolved jump targets, in emission order
	names  []string
	symIdx map[string]Sym
}

// jumpTo is the label a jump at pc targets.
type jumpTo struct {
	pc    int
	label string
}

// NewBuilder returns an empty program builder with "init" pre-interned
// at slot SymInit.
func NewBuilder() *Builder {
	b := &Builder{labels: make(map[string]int), symIdx: make(map[string]Sym)}
	b.Sym("init")
	return b
}

// Sym interns a local-variable name and returns its slot. Interning is
// idempotent; slots are dense in first-use order.
func (b *Builder) Sym(name string) Sym {
	if s, ok := b.symIdx[name]; ok {
		return s
	}
	s := Sym(len(b.names))
	b.names = append(b.names, name)
	b.symIdx[name] = s
	return s
}

// Label marks the next instruction with a name (jump target). A label
// may be defined once; Build rejects a program that defines one twice.
func (b *Builder) Label(name string) *Builder {
	if _, ok := b.labels[name]; ok {
		if b.dup == "" {
			b.dup = name
		}
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

func (b *Builder) emit(o op) *Builder {
	b.code = append(b.code, o)
	return b
}

// Read appends an instruction loading the value of the shared variable
// called name into local dst. Requires instruction set S or L.
func (b *Builder) Read(name system.Name, dst string) *Builder {
	return b.emit(op{kind: opRead, name: name, sym: b.Sym(dst)})
}

// Write appends an instruction storing local src into the shared
// variable called name. Requires S or L.
func (b *Builder) Write(name system.Name, src string) *Builder {
	return b.emit(op{kind: opWrite, name: name, sym: b.Sym(src)})
}

// Lock appends an instruction attempting to set the lock bit of the
// variable called name, storing true into dst if the bit was clear
// (acquisition succeeded) and false if it was already set. Requires L.
func (b *Builder) Lock(name system.Name, dst string) *Builder {
	return b.emit(op{kind: opLock, name: name, sym: b.Sym(dst)})
}

// Unlock appends an instruction clearing the lock bit of the variable
// called name. Requires L.
func (b *Builder) Unlock(name system.Name) *Builder {
	return b.emit(op{kind: opUnlock, name: name})
}

// Peek appends an instruction loading the state of the multiset variable
// called name into dst as a PeekResult. Requires Q.
func (b *Builder) Peek(name system.Name, dst string) *Builder {
	return b.emit(op{kind: opPeek, name: name, sym: b.Sym(dst)})
}

// Post appends an instruction storing local src as this processor's
// subvalue in the multiset variable called name. Requires Q.
func (b *Builder) Post(name system.Name, src string) *Builder {
	return b.emit(op{kind: opPost, name: name, sym: b.Sym(src)})
}

// Compute appends an arbitrary local instruction. f must be
// deterministic, must not mutate values in place, and must not capture
// mutable state — it sees and edits only the processor's local slots.
// The model checker relies on this: its step memo runs f once per
// processor and distinct frame and reuses the result.
func (b *Builder) Compute(f func(r *Regs)) *Builder {
	return b.emit(op{kind: opCompute, f: f})
}

// JumpIf appends a conditional jump to the instruction labeled target,
// taken when cond evaluates true on the locals. cond must be
// deterministic and read-only, as the model checker's step memo
// assumes of Compute's f.
func (b *Builder) JumpIf(cond func(r *Regs) bool, target string) *Builder {
	b.jumps = append(b.jumps, jumpTo{pc: len(b.code), label: target})
	return b.emit(op{kind: opJumpIf, cond: cond})
}

// Jump appends an unconditional jump to the instruction labeled target.
func (b *Builder) Jump(target string) *Builder {
	b.jumps = append(b.jumps, jumpTo{pc: len(b.code), label: target})
	return b.emit(op{kind: opJump})
}

// Halt appends a Halt: the processor stops and further steps are no-ops.
func (b *Builder) Halt() *Builder {
	return b.emit(op{kind: opHalt})
}

// Build resolves jump labels and freezes the code and the symbol table
// into a Program. The program keeps the builder's op array, clipped to
// its length: ops appended afterwards land past its end, and a later
// Build resolves the same jumps to the same targets, so further Builder
// calls never change a built program.
func (b *Builder) Build() (*Program, error) {
	if len(b.code) == 0 {
		return nil, ErrEmptyProgram
	}
	if b.dup != "" {
		return nil, fmt.Errorf("%w: %q", ErrDupLabel, b.dup)
	}
	code := b.code[:len(b.code):len(b.code)]
	for _, j := range b.jumps {
		tgt, ok := b.labels[j.label]
		if !ok {
			return nil, fmt.Errorf("%w: %q at pc %d", ErrUnknownLabel, j.label, j.pc)
		}
		code[j.pc].tgt = tgt
	}
	names := append([]string(nil), b.names...)
	symIdx := make(map[string]Sym, len(names))
	for s, n := range names {
		symIdx[n] = Sym(s)
	}
	return &Program{code: code, names: names, symIdx: symIdx}, nil
}
