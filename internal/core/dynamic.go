package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"simsym/internal/obs"
	"simsym/internal/partition"
	"simsym/internal/system"
)

// crashMark prefixes the initial state of a crashed processor in every
// key the labeling sees (the dynamic engine's InitKey and Snapshot's
// ProcInit alike), so a crashed processor is never similar to a live
// one with the same program: a crash is observable in the environment,
// exactly the PR 3 fault vocabulary. The prefix starts with a NUL byte
// so no user-supplied initial state can collide with it; DSL inits are
// printable by construction.
const crashMark = "\x00!"

// Mutation is one topology edit. Op selects the edit; the other fields
// name its operands by external id. Mutations are JSON-able so churn
// traces and the simsymd hot-reload endpoint share one vocabulary.
type Mutation struct {
	Op   MutOp    `json:"op"`
	Proc string   `json:"proc,omitempty"`
	Var  string   `json:"var,omitempty"`
	Init string   `json:"init,omitempty"`
	Name string   `json:"name,omitempty"`
	Bind []string `json:"bind,omitempty"` // add_proc: one var id per name, NAMES order
}

// MutOp enumerates the topology edits DynSystem.Apply understands.
type MutOp string

const (
	OpAddProc     MutOp = "add_proc"      // Proc, Init, Bind
	OpAddVar      MutOp = "add_var"       // Var, Init
	OpRemoveProc  MutOp = "remove_proc"   // Proc (orphaned vars cascade)
	OpRemoveVar   MutOp = "remove_var"    // Var (must be unreferenced)
	OpRewire      MutOp = "rewire"        // Proc, Name, Var
	OpCrash       MutOp = "crash"         // Proc
	OpRestart     MutOp = "restart"       // Proc
	OpSetProcInit MutOp = "set_proc_init" // Proc, Init
	OpSetVarInit  MutOp = "set_var_init"  // Var, Init
)

// DynSystem is a mutable system whose similarity labeling is maintained
// incrementally: each Apply batch relabels only the classes the edit
// actually invalidates (split) or re-coarsens (merge), via
// partition.Dyn. The full-recompute Similarity on Snapshot() is the
// cross-checked oracle, exactly as the string-signature and naive
// drivers are for the static engines.
//
// Node identity is slot-based: a processor or variable keeps its slot
// for life, so labels and obs events remain comparable across events
// even as the population churns. Snapshot compacts live slots (ascending)
// into an ordinary *system.System.
type DynSystem struct {
	rule    Rule
	names   []system.Name
	nameIdx map[system.Name]int
	rec     *obs.Recorder

	// Slot tables. kind is 0 for free slots, 'P' or 'V' otherwise.
	kind    []byte
	ids     []string
	init    []string
	crashed []bool
	nbr     [][]int  // proc slot -> var slot per name index
	edges   [][]edge // var slot -> incident (proc slot, name index)
	free    []int
	byID    map[string]int

	nProcs, nVars int

	dyn *partition.Dyn
}

type edge struct{ proc, name int }

// NewDynSystem builds a dynamic engine seeded from sys (which is cloned;
// the argument is not retained) under the given rule.
func NewDynSystem(sys *system.System, rule Rule, cfg Config) (*DynSystem, error) {
	if rule != RuleQ && rule != RuleSetS {
		return nil, fmt.Errorf("%w: %d", ErrBadRule, int(rule))
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSystemShape, err)
	}
	np, nv := sys.NumProcs(), sys.NumVars()
	d := &DynSystem{
		rule:    rule,
		names:   append([]system.Name(nil), sys.Names...),
		nameIdx: make(map[system.Name]int, len(sys.Names)),
		rec:     cfg.Obs,
		kind:    make([]byte, np+nv),
		ids:     make([]string, np+nv),
		init:    make([]string, np+nv),
		crashed: make([]bool, np+nv),
		nbr:     make([][]int, np+nv),
		edges:   make([][]edge, np+nv),
		byID:    make(map[string]int, np+nv),
		nProcs:  np,
		nVars:   nv,
	}
	for k, n := range d.names {
		d.nameIdx[n] = k
	}
	for i := 0; i < np; i++ {
		d.kind[i] = 'P'
		d.ids[i] = sys.ProcIDs[i]
		d.init[i] = sys.ProcInit[i]
		d.nbr[i] = make([]int, len(d.names))
		for k, v := range sys.Nbr[i] {
			d.nbr[i][k] = np + v
		}
	}
	for v := 0; v < nv; v++ {
		s := np + v
		d.kind[s] = 'V'
		d.ids[s] = sys.VarIDs[v]
		d.init[s] = sys.VarInit[v]
	}
	for i := 0; i < np; i++ {
		for k, vs := range d.nbr[i] {
			d.edges[vs] = append(d.edges[vs], edge{i, k})
		}
	}
	for s, id := range d.ids {
		if _, dup := d.byID[id]; dup && d.kind[s] != 0 {
			return nil, fmt.Errorf("%w: duplicate node id %q", ErrSystemShape, id)
		}
		d.byID[id] = s
	}
	dyn, err := partition.NewDyn(&dynStruct{d})
	if err != nil {
		return nil, err
	}
	d.dyn = dyn
	return d, nil
}

// dynStruct adapts DynSystem's slot tables to partition.DynStructure
// with the same key and token signature semantics as the static
// adapter, so the incremental partition is comparable class-for-class
// with the Similarity oracle on Snapshot.
type dynStruct struct{ d *DynSystem }

func (st *dynStruct) Len() int         { return len(st.d.kind) }
func (st *dynStruct) Alive(i int) bool { return st.d.kind[i] != 0 }

func (st *dynStruct) InitKey(i int) string {
	d := st.d
	init := d.init[i]
	if d.kind[i] == 'P' {
		if d.crashed[i] {
			init = crashMark + init
		}
		return "P" + strconv.Itoa(len(init)) + ":" + init
	}
	return "V" + strconv.Itoa(len(init)) + ":" + init
}

func (st *dynStruct) AppendSignature(buf []uint64, i int, label func(int) int) []uint64 {
	d := st.d
	if d.kind[i] == 'P' {
		for _, vs := range d.nbr[i] {
			buf = append(buf, uint64(int64(label(vs))))
		}
		return buf
	}
	start := len(buf)
	for _, e := range d.edges[i] {
		buf = append(buf, uint64(int64(e.name)), uint64(int64(label(e.proc))))
	}
	partition.SortTokenPairs(buf[start:])
	if d.rule == RuleQ {
		return buf
	}
	out := start
	for k := start; k < len(buf); k += 2 {
		if k > start && buf[k] == buf[k-2] && buf[k+1] == buf[k-1] {
			continue
		}
		buf[out] = buf[k]
		buf[out+1] = buf[k+1]
		out += 2
	}
	return buf[:out]
}

func (st *dynStruct) Dependents(i int) []int {
	d := st.d
	if d.kind[i] == 'P' {
		return d.nbr[i]
	}
	deps := make([]int, len(d.edges[i]))
	for k, e := range d.edges[i] {
		deps[k] = e.proc
	}
	return deps
}

// OutEdges tags edges as the static adapter's OutEdges does: a processor
// reads its n-neighbor through an edge tagged by the name index, and a
// variable reads each incident processor the same way.
func (st *dynStruct) OutEdges(i int) []partition.TaggedEdge {
	d := st.d
	if d.kind[i] == 'P' {
		out := make([]partition.TaggedEdge, len(d.nbr[i]))
		for k, vs := range d.nbr[i] {
			out[k] = partition.TaggedEdge{To: vs, Tag: k}
		}
		return out
	}
	out := make([]partition.TaggedEdge, len(d.edges[i]))
	for k, e := range d.edges[i] {
		out[k] = partition.TaggedEdge{To: e.proc, Tag: e.name}
	}
	return out
}

// Counting carries the rule to the merge pass: Q environments count
// neighbors, so its quotient gets the Hopcroft driver, while S
// environments are sets and get the worklist driver, exactly as in
// SimilarityWith.
func (st *dynStruct) Counting() bool { return st.d.rule == RuleQ }

// slot returns the slot of an external id of the wanted kind.
func (d *DynSystem) slot(id string, kind byte) (int, error) {
	s, ok := d.byID[id]
	if !ok || d.kind[s] != kind {
		what := "processor"
		if kind == 'V' {
			what = "variable"
		}
		return 0, fmt.Errorf("%w: %s %q", system.ErrUnknownNode, what, id)
	}
	return s, nil
}

func (d *DynSystem) allocSlot() int {
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free = d.free[:n-1]
		return s
	}
	d.kind = append(d.kind, 0)
	d.ids = append(d.ids, "")
	d.init = append(d.init, "")
	d.crashed = append(d.crashed, false)
	d.nbr = append(d.nbr, nil)
	d.edges = append(d.edges, nil)
	return len(d.kind) - 1
}

func (d *DynSystem) dropEdge(v, p, name int) {
	es := d.edges[v]
	for k, e := range es {
		if e.proc == p && e.name == name {
			es[k] = es[len(es)-1]
			d.edges[v] = es[:len(es)-1]
			return
		}
	}
	panic("core: variable edge missing")
}

// apply performs one mutation, appending every slot whose alive-status,
// initial key, or environment changed to touched (the partition.Dyn
// contract: dead slots no longer report dependents, so their former
// neighbors must be listed here).
func (d *DynSystem) apply(m Mutation, touched []int) ([]int, error) {
	switch m.Op {
	case OpAddVar:
		if _, dup := d.byID[m.Var]; dup {
			return touched, fmt.Errorf("%w: duplicate id %q", ErrSystemShape, m.Var)
		}
		s := d.allocSlot()
		d.kind[s] = 'V'
		d.ids[s] = m.Var
		d.init[s] = m.Init
		d.edges[s] = d.edges[s][:0]
		d.byID[m.Var] = s
		d.nVars++
		return append(touched, s), nil

	case OpAddProc:
		if _, dup := d.byID[m.Proc]; dup {
			return touched, fmt.Errorf("%w: duplicate id %q", ErrSystemShape, m.Proc)
		}
		if len(m.Bind) != len(d.names) {
			return touched, fmt.Errorf("%w: proc %q binds %d names, system has %d",
				ErrSystemShape, m.Proc, len(m.Bind), len(d.names))
		}
		binds := make([]int, len(m.Bind))
		for k, vid := range m.Bind {
			vs, err := d.slot(vid, 'V')
			if err != nil {
				return touched, err
			}
			binds[k] = vs
		}
		s := d.allocSlot()
		d.kind[s] = 'P'
		d.ids[s] = m.Proc
		d.init[s] = m.Init
		d.crashed[s] = false
		d.nbr[s] = append(d.nbr[s][:0], binds...)
		d.byID[m.Proc] = s
		d.nProcs++
		touched = append(touched, s)
		for k, vs := range binds {
			d.edges[vs] = append(d.edges[vs], edge{s, k})
			touched = append(touched, vs)
		}
		return touched, nil

	case OpRemoveProc:
		s, err := d.slot(m.Proc, 'P')
		if err != nil {
			return touched, err
		}
		if d.nProcs == 1 {
			return touched, fmt.Errorf("%w: cannot remove last processor %q", system.ErrNoProcessors, m.Proc)
		}
		for k, vs := range d.nbr[s] {
			d.dropEdge(vs, s, k)
			touched = append(touched, vs)
		}
		for _, vs := range d.nbr[s] {
			if len(d.edges[vs]) == 0 && d.kind[vs] == 'V' {
				d.kind[vs] = 0
				delete(d.byID, d.ids[vs])
				d.free = append(d.free, vs)
				d.nVars--
			}
		}
		d.kind[s] = 0
		d.crashed[s] = false
		delete(d.byID, d.ids[s])
		d.free = append(d.free, s)
		d.nProcs--
		return append(touched, s), nil

	case OpRemoveVar:
		s, err := d.slot(m.Var, 'V')
		if err != nil {
			return touched, err
		}
		if len(d.edges[s]) > 0 {
			return touched, fmt.Errorf("%w: %q", system.ErrVarInUse, m.Var)
		}
		d.kind[s] = 0
		delete(d.byID, d.ids[s])
		d.free = append(d.free, s)
		d.nVars--
		return append(touched, s), nil

	case OpRewire:
		s, err := d.slot(m.Proc, 'P')
		if err != nil {
			return touched, err
		}
		vs, err := d.slot(m.Var, 'V')
		if err != nil {
			return touched, err
		}
		k, ok := d.nameIdx[system.Name(m.Name)]
		if !ok {
			return touched, fmt.Errorf("%w: %q", system.ErrUnknownName, m.Name)
		}
		old := d.nbr[s][k]
		if old == vs {
			return touched, nil
		}
		d.dropEdge(old, s, k)
		d.nbr[s][k] = vs
		d.edges[vs] = append(d.edges[vs], edge{s, k})
		return append(touched, s, old, vs), nil

	case OpCrash, OpRestart:
		s, err := d.slot(m.Proc, 'P')
		if err != nil {
			return touched, err
		}
		want := m.Op == OpCrash
		if d.crashed[s] == want {
			return touched, nil
		}
		d.crashed[s] = want
		return append(touched, s), nil

	case OpSetProcInit:
		s, err := d.slot(m.Proc, 'P')
		if err != nil {
			return touched, err
		}
		if d.init[s] == m.Init {
			return touched, nil
		}
		d.init[s] = m.Init
		return append(touched, s), nil

	case OpSetVarInit:
		s, err := d.slot(m.Var, 'V')
		if err != nil {
			return touched, err
		}
		if d.init[s] == m.Init {
			return touched, nil
		}
		d.init[s] = m.Init
		return append(touched, s), nil
	}
	return touched, fmt.Errorf("%w: unknown mutation op %q", ErrSystemShape, m.Op)
}

// Apply performs the batch as ONE churn event: all mutations mutate the
// topology, then a single incremental relabel settles the partition.
// Composite events (a ring splice is add_var+add_proc+rewire) therefore
// pay one settle, and intermediate states never need to validate — only
// the final state does. A variable left unreferenced when the batch
// ends is cascade-removed (the compact System forbids orphans), so add
// a variable and its first binder in the same batch. On error the
// topology may be partially edited but the labeling is still settled
// consistently against it.
func (d *DynSystem) Apply(muts ...Mutation) (partition.UpdateStats, error) {
	var touched []int
	var firstErr error
	ops := make([]string, 0, len(muts))
	for _, m := range muts {
		var err error
		touched, err = d.apply(m, touched)
		if err != nil {
			firstErr = err
			break
		}
		ops = append(ops, string(m.Op))
	}
	// Orphan sweep: only a var whose edge set changed can end the batch
	// unreferenced, and every such var is already in touched.
	for _, s := range touched {
		if d.kind[s] == 'V' && len(d.edges[s]) == 0 {
			d.kind[s] = 0
			delete(d.byID, d.ids[s])
			d.free = append(d.free, s)
			d.nVars--
		}
	}
	start := time.Time{}
	if d.rec.Enabled() {
		start = time.Now()
	}
	st := d.dyn.Update(touched)
	if d.rec.Enabled() {
		d.rec.Relabel("dyn", st.Touched, st.Splits, st.Merges, strings.Join(ops, "+"))
		d.rec.Count("dyn.events", 1)
		d.rec.Count("dyn.splits", int64(st.Splits))
		d.rec.Count("dyn.merges", int64(st.Merges))
		d.rec.Count("dyn.touched_classes", int64(st.TouchedClasses))
		d.rec.Count("dyn.relabeled", int64(st.Relabeled))
		// dyn.rebuilds counts events that rebuilt the partition from
		// scratch. Only the initial build does that, never an Apply, so
		// the counter stays at zero.
		if st.Rebuild {
			d.rec.Count("dyn.rebuilds", 1)
		}
		d.rec.Observe("dyn.update", time.Since(start))
	}
	return st, firstErr
}

// Convenience single-mutation wrappers; each is one churn event.

func (d *DynSystem) AddVar(id, init string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpAddVar, Var: id, Init: init})
}

func (d *DynSystem) AddProc(id, init string, bind []string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpAddProc, Proc: id, Init: init, Bind: bind})
}

func (d *DynSystem) RemoveProc(id string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpRemoveProc, Proc: id})
}

func (d *DynSystem) RemoveVar(id string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpRemoveVar, Var: id})
}

func (d *DynSystem) Rewire(procID string, name system.Name, varID string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpRewire, Proc: procID, Name: string(name), Var: varID})
}

// Crash marks the processor crashed: it stays in the topology (its
// variables keep their edges) but its initial key is marked, so it can
// never be similar to a live processor. Restart reverts it — the
// classic merge exerciser.
func (d *DynSystem) Crash(id string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpCrash, Proc: id})
}

func (d *DynSystem) Restart(id string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpRestart, Proc: id})
}

func (d *DynSystem) SetProcInit(id, init string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpSetProcInit, Proc: id, Init: init})
}

func (d *DynSystem) SetVarInit(id, init string) (partition.UpdateStats, error) {
	return d.Apply(Mutation{Op: OpSetVarInit, Var: id, Init: init})
}

// Rule returns the environment rule the engine labels under.
func (d *DynSystem) Rule() Rule { return d.rule }

// Names returns the system's name alphabet (NAMES order).
func (d *DynSystem) Names() []system.Name {
	return append([]system.Name(nil), d.names...)
}

// Bindings returns processor id's bound variable ids in NAMES order.
func (d *DynSystem) Bindings(id string) ([]string, error) {
	s, err := d.slot(id, 'P')
	if err != nil {
		return nil, err
	}
	out := make([]string, len(d.nbr[s]))
	for k, vs := range d.nbr[s] {
		out[k] = d.ids[vs]
	}
	return out, nil
}

// NumProcs returns the live processor count.
func (d *DynSystem) NumProcs() int { return d.nProcs }

// NumVars returns the live variable count.
func (d *DynSystem) NumVars() int { return d.nVars }

// NumClasses returns the current number of similarity classes.
func (d *DynSystem) NumClasses() int { return d.dyn.NumClasses() }

// LastStats returns the work profile of the most recent Apply, or of
// the initial build (Rebuild set) before the first Apply.
func (d *DynSystem) LastStats() partition.UpdateStats { return d.dyn.LastStats() }

// TotalStats returns the work profiles of every Apply since
// construction, summed. The initial build is not included: right after
// NewDynSystem the totals are zero and Rebuild is false.
func (d *DynSystem) TotalStats() partition.UpdateStats { return d.dyn.TotalStats() }

// HasProc reports whether a live processor has this id.
func (d *DynSystem) HasProc(id string) bool {
	s, ok := d.byID[id]
	return ok && d.kind[s] == 'P'
}

// HasVar reports whether a live variable has this id.
func (d *DynSystem) HasVar(id string) bool {
	s, ok := d.byID[id]
	return ok && d.kind[s] == 'V'
}

// Crashed reports whether processor id is currently crashed.
func (d *DynSystem) Crashed(id string) bool {
	s, ok := d.byID[id]
	return ok && d.kind[s] == 'P' && d.crashed[s]
}

// ProcIDs returns the live processor ids in slot order (stable across
// events for surviving processors).
func (d *DynSystem) ProcIDs() []string {
	out := make([]string, 0, d.nProcs)
	for s, k := range d.kind {
		if k == 'P' {
			out = append(out, d.ids[s])
		}
	}
	return out
}

// VarIDs returns the live variable ids in slot order.
func (d *DynSystem) VarIDs() []string {
	out := make([]string, 0, d.nVars)
	for s, k := range d.kind {
		if k == 'V' {
			out = append(out, d.ids[s])
		}
	}
	return out
}

// Snapshot compacts the live slots into an ordinary immutable System:
// processors and variables in ascending slot order. Crashed processors
// surface with crashMark prefixed to their ProcInit, which is exactly
// what makes Similarity on the snapshot the oracle for the incremental
// labels: the marker refines the initial partition the same way the
// dynamic engine's marked InitKey does.
func (d *DynSystem) Snapshot() *system.System {
	sys := &system.System{
		Names:    append([]system.Name(nil), d.names...),
		ProcIDs:  make([]string, 0, d.nProcs),
		VarIDs:   make([]string, 0, d.nVars),
		Nbr:      make([][]int, 0, d.nProcs),
		ProcInit: make([]string, 0, d.nProcs),
		VarInit:  make([]string, 0, d.nVars),
	}
	varAt := make(map[int]int, d.nVars)
	for s, k := range d.kind {
		if k == 'V' {
			varAt[s] = len(sys.VarIDs)
			sys.VarIDs = append(sys.VarIDs, d.ids[s])
			sys.VarInit = append(sys.VarInit, d.init[s])
		}
	}
	for s, k := range d.kind {
		if k != 'P' {
			continue
		}
		sys.ProcIDs = append(sys.ProcIDs, d.ids[s])
		init := d.init[s]
		if d.crashed[s] {
			init = crashMark + init
		}
		sys.ProcInit = append(sys.ProcInit, init)
		row := make([]int, len(d.nbr[s]))
		for kn, vs := range d.nbr[s] {
			row[kn] = varAt[vs]
		}
		sys.Nbr = append(sys.Nbr, row)
	}
	return sys
}

// Labeling materializes the current incremental labels over Snapshot():
// canonical class numbers in snapshot node order (processors first),
// directly comparable with Similarity(Snapshot(), rule).
func (d *DynSystem) Labeling() *Labeling {
	sys := d.Snapshot()
	lab := &Labeling{
		Sys:        sys,
		ProcLabels: make([]int, 0, d.nProcs),
		VarLabels:  make([]int, 0, d.nVars),
	}
	renum := make(map[int]int)
	canon := func(s int) int {
		c := d.dyn.Label(s)
		n, ok := renum[c]
		if !ok {
			n = len(renum)
			renum[c] = n
		}
		return n
	}
	for s, k := range d.kind {
		if k == 'P' {
			lab.ProcLabels = append(lab.ProcLabels, canon(s))
		}
	}
	for s, k := range d.kind {
		if k == 'V' {
			lab.VarLabels = append(lab.VarLabels, canon(s))
		}
	}
	return lab
}

// ProcLabel returns the canonical-free internal class id of a live
// processor (comparable between two processors at the same instant).
func (d *DynSystem) ProcLabel(id string) (int, error) {
	s, err := d.slot(id, 'P')
	if err != nil {
		return 0, err
	}
	return d.dyn.Label(s), nil
}

// ApplyDiff mutates the topology to match target (by external ids) as
// one churn event. Names must agree. Crash flags of surviving
// processors are preserved; target initial states win. Returns the
// relabel stats of the single settle.
func (d *DynSystem) ApplyDiff(target *system.System) (partition.UpdateStats, error) {
	var zero partition.UpdateStats
	if err := target.Validate(); err != nil {
		return zero, fmt.Errorf("%w: %v", ErrSystemShape, err)
	}
	if len(target.Names) != len(d.names) {
		return zero, fmt.Errorf("%w: target has %d names, engine has %d", ErrSystemShape, len(target.Names), len(d.names))
	}
	for k, n := range target.Names {
		if d.names[k] != n {
			return zero, fmt.Errorf("%w: name %d is %q, engine has %q", ErrSystemShape, k, n, d.names[k])
		}
	}
	var muts []Mutation
	tVar := make(map[string]int, len(target.VarIDs))
	for v, id := range target.VarIDs {
		tVar[id] = v
		if !d.HasVar(id) {
			muts = append(muts, Mutation{Op: OpAddVar, Var: id, Init: target.VarInit[v]})
		} else if s := d.byID[id]; d.init[s] != target.VarInit[v] {
			muts = append(muts, Mutation{Op: OpSetVarInit, Var: id, Init: target.VarInit[v]})
		}
	}
	tProc := make(map[string]int, len(target.ProcIDs))
	for p, id := range target.ProcIDs {
		tProc[id] = p
		bind := make([]string, len(target.Nbr[p]))
		for k, v := range target.Nbr[p] {
			bind[k] = target.VarIDs[v]
		}
		if !d.HasProc(id) {
			muts = append(muts, Mutation{Op: OpAddProc, Proc: id, Init: target.ProcInit[p], Bind: bind})
			continue
		}
		s := d.byID[id]
		for k, vid := range bind {
			if d.ids[d.nbr[s][k]] != vid {
				muts = append(muts, Mutation{Op: OpRewire, Proc: id, Name: string(d.names[k]), Var: vid})
			}
		}
		if d.init[s] != target.ProcInit[p] {
			muts = append(muts, Mutation{Op: OpSetProcInit, Proc: id, Init: target.ProcInit[p]})
		}
	}
	// Removals after adds/rewires so no binding ever dangles; procs
	// before vars so cascades free references first. A departing var
	// bound by a departing proc is cascade-removed by OpRemoveProc (by
	// removal time its other references are gone: surviving procs'
	// rewires land first and only target target vars), so explicit
	// OpRemoveVar is emitted only for absent vars no removal cascades.
	cascaded := make(map[string]bool)
	for s, k := range d.kind {
		if k == 'P' {
			if _, keep := tProc[d.ids[s]]; !keep {
				muts = append(muts, Mutation{Op: OpRemoveProc, Proc: d.ids[s]})
				for _, vs := range d.nbr[s] {
					cascaded[d.ids[vs]] = true
				}
			}
		}
	}
	for s, k := range d.kind {
		if k == 'V' {
			if _, keep := tVar[d.ids[s]]; !keep && !cascaded[d.ids[s]] {
				muts = append(muts, Mutation{Op: OpRemoveVar, Var: d.ids[s]})
			}
		}
	}
	st, err := d.Apply(muts...)
	if err != nil {
		return st, err
	}
	return st, nil
}

// Check audits the engine's internal invariants (slot/edge symmetry and
// the partition invariants); tests and the fuzzer call it after every
// event.
func (d *DynSystem) Check() error {
	np, nv := 0, 0
	for s, k := range d.kind {
		switch k {
		case 'P':
			np++
			if len(d.nbr[s]) != len(d.names) {
				return fmt.Errorf("core: proc slot %d binds %d names", s, len(d.nbr[s]))
			}
			for kn, vs := range d.nbr[s] {
				if d.kind[vs] != 'V' {
					return fmt.Errorf("core: proc slot %d name %d -> non-var slot %d", s, kn, vs)
				}
				found := false
				for _, e := range d.edges[vs] {
					if e.proc == s && e.name == kn {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("core: missing reverse edge %d->%d", s, vs)
				}
			}
		case 'V':
			nv++
			for _, e := range d.edges[s] {
				if d.kind[e.proc] != 'P' || d.nbr[e.proc][e.name] != s {
					return fmt.Errorf("core: stale edge on var slot %d: %+v", s, e)
				}
			}
		}
	}
	if np != d.nProcs || nv != d.nVars {
		return fmt.Errorf("core: counts drifted: %d/%d procs, %d/%d vars", np, d.nProcs, nv, d.nVars)
	}
	return d.dyn.Check()
}
