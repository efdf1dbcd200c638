package core

import (
	"fmt"
	"strings"
	"time"

	"simsym/internal/obs"
	"simsym/internal/partition"
	"simsym/internal/system"
)

// crashMark prefixes the initial state of a crashed processor in every
// key the labeling sees (graph.InitKey and Snapshot's ProcInit alike),
// so a crashed processor is never similar to a live one with the same
// program: a crash is observable in the environment,
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
	OpCrash       MutOp = "crash"         // Proc: marked in its InitKey, edges kept
	OpRestart     MutOp = "restart"       // Proc: clears the crash mark
	OpSetProcInit MutOp = "set_proc_init" // Proc, Init
	OpSetVarInit  MutOp = "set_var_init"  // Var, Init
)

// DynSystem is a mutable system whose similarity labeling is maintained
// incrementally: each Apply batch relabels only the classes the edit
// actually invalidates (split) or re-coarsens (merge), via
// partition.Dyn. The full-recompute Similarity on Snapshot() is the
// cross-checked oracle.
//
// Node identity is slot-based: a processor or variable keeps its slot
// for life, so labels and obs events remain comparable across events
// even as the population churns. Snapshot compacts live slots (ascending)
// into an ordinary *system.System.
type DynSystem struct {
	g       *graph
	names   []system.Name
	nameIdx map[system.Name]int
	rec     *obs.Recorder

	ids  []string // slot -> external id
	byID map[string]int
	free []int

	nProcs, nVars int

	dyn *partition.Dyn
}

// NewDynSystem builds a dynamic engine seeded from sys (which is not
// retained) under the given rule: sys laid out as a graph, plus the
// external ids mutations name slots by.
func NewDynSystem(sys *system.System, rule Rule, cfg Config) (*DynSystem, error) {
	g, err := newGraph(sys, rule)
	if err != nil {
		return nil, err
	}
	d := &DynSystem{
		g:       g,
		names:   append([]system.Name(nil), sys.Names...),
		nameIdx: make(map[system.Name]int, len(sys.Names)),
		rec:     cfg.Obs,
		ids:     append(append(make([]string, 0, g.Len()), sys.ProcIDs...), sys.VarIDs...),
		byID:    make(map[string]int, g.Len()),
		nProcs:  sys.NumProcs(),
		nVars:   sys.NumVars(),
	}
	for k, n := range d.names {
		d.nameIdx[n] = k
	}
	for s, id := range d.ids {
		if _, dup := d.byID[id]; dup {
			return nil, fmt.Errorf("%w: duplicate node id %q", ErrSystemShape, id)
		}
		d.byID[id] = s
	}
	if d.dyn, err = partition.NewDyn(g); err != nil {
		return nil, err
	}
	return d, nil
}

// slot returns the slot of an external id of the wanted kind.
func (d *DynSystem) slot(id string, kind byte) (int, error) {
	s, ok := d.byID[id]
	if !ok || d.g.kind[s] != kind {
		what := "processor"
		if kind == 'V' {
			what = "variable"
		}
		return 0, fmt.Errorf("%w: %s %q", system.ErrUnknownNode, what, id)
	}
	return s, nil
}

// allocSlot seats a new live node in a recycled or fresh slot.
func (d *DynSystem) allocSlot(kind byte, id, init string) int {
	g := d.g
	var s int
	if n := len(d.free); n > 0 {
		s = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		s = len(g.kind)
		g.kind = append(g.kind, 0)
		g.init = append(g.init, "")
		g.crashed = append(g.crashed, false)
		g.nbr = append(g.nbr, nil)
		g.inProc = append(g.inProc, nil)
		g.inName = append(g.inName, nil)
		d.ids = append(d.ids, "")
	}
	g.kind[s], g.init[s], d.ids[s] = kind, init, id
	d.byID[id] = s
	if kind == 'P' {
		d.nProcs++
	} else {
		d.nVars++
	}
	return s
}

// freeSlot removes the live node in slot s from the topology.
func (d *DynSystem) freeSlot(s int) {
	if d.g.kind[s] == 'P' {
		d.g.crashed[s] = false
		d.nProcs--
	} else {
		d.nVars--
	}
	d.g.kind[s] = 0
	delete(d.byID, d.ids[s])
	d.free = append(d.free, s)
}

// addEdge records that processor p binds variable v under name.
func (g *graph) addEdge(v, p, name int) {
	g.inProc[v] = append(g.inProc[v], p)
	g.inName[v] = append(g.inName[v], name)
}

// dropEdge removes that record, swapping the last edge into its place.
func (g *graph) dropEdge(v, p, name int) {
	ps, ns := g.inProc[v], g.inName[v]
	for k := range ps {
		if ps[k] == p && ns[k] == name {
			last := len(ps) - 1
			ps[k], ns[k] = ps[last], ns[last]
			g.inProc[v], g.inName[v] = ps[:last], ns[:last]
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
	g := d.g
	switch m.Op {
	case OpAddVar:
		if _, dup := d.byID[m.Var]; dup {
			return touched, fmt.Errorf("%w: duplicate id %q", ErrSystemShape, m.Var)
		}
		s := d.allocSlot('V', m.Var, m.Init)
		g.inProc[s], g.inName[s] = g.inProc[s][:0], g.inName[s][:0]
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
		s := d.allocSlot('P', m.Proc, m.Init)
		g.nbr[s] = append(g.nbr[s][:0], binds...)
		touched = append(touched, s)
		for k, vs := range binds {
			g.addEdge(vs, s, k)
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
		for k, vs := range g.nbr[s] {
			g.dropEdge(vs, s, k)
			touched = append(touched, vs)
		}
		for _, vs := range g.nbr[s] {
			if len(g.inProc[vs]) == 0 && g.kind[vs] == 'V' {
				d.freeSlot(vs)
			}
		}
		d.freeSlot(s)
		return append(touched, s), nil

	case OpRemoveVar:
		s, err := d.slot(m.Var, 'V')
		if err != nil {
			return touched, err
		}
		if len(g.inProc[s]) > 0 {
			return touched, fmt.Errorf("%w: %q", system.ErrVarInUse, m.Var)
		}
		d.freeSlot(s)
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
		old := g.nbr[s][k]
		if old == vs {
			return touched, nil
		}
		g.dropEdge(old, s, k)
		g.nbr[s][k] = vs
		g.addEdge(vs, s, k)
		return append(touched, s, old, vs), nil

	case OpCrash, OpRestart:
		s, err := d.slot(m.Proc, 'P')
		if err != nil {
			return touched, err
		}
		want := m.Op == OpCrash
		if g.crashed[s] == want {
			return touched, nil
		}
		g.crashed[s] = want
		return append(touched, s), nil

	case OpSetProcInit, OpSetVarInit:
		kind, id := byte('P'), m.Proc
		if m.Op == OpSetVarInit {
			kind, id = 'V', m.Var
		}
		s, err := d.slot(id, kind)
		if err != nil {
			return touched, err
		}
		if g.init[s] == m.Init {
			return touched, nil
		}
		g.init[s] = m.Init
		return append(touched, s), nil
	}
	return touched, fmt.Errorf("%w: unknown mutation op %q", ErrSystemShape, m.Op)
}

// Apply performs the batch as ONE churn event: all mutations mutate the
// topology, then a single incremental relabel settles the partition.
// It is the only way to mutate a DynSystem. Composite events (a ring
// splice is add_var+add_proc+rewire) therefore pay one settle, and
// intermediate states never need to validate — only the final state
// does. A variable left unreferenced when the batch ends is
// cascade-removed (the compact System forbids orphans), so add a
// variable and its first binder in the same batch. Apply stops at the
// first failing mutation and keeps the ones before it; the labeling is
// still settled consistently against the edited topology.
func (d *DynSystem) Apply(muts ...Mutation) (partition.UpdateStats, error) {
	var touched []int
	var firstErr error
	applied := len(muts)
	for k, m := range muts {
		var err error
		if touched, err = d.apply(m, touched); err != nil {
			firstErr, applied = err, k
			break
		}
	}
	// Orphan sweep: only a var whose edge set changed can end the batch
	// unreferenced, and every such var is already in touched.
	for _, s := range touched {
		if d.g.kind[s] == 'V' && len(d.g.inProc[s]) == 0 {
			d.freeSlot(s)
		}
	}
	start := time.Time{}
	if d.rec.Enabled() {
		start = time.Now()
	}
	st := d.dyn.Update(touched)
	if d.rec.Enabled() {
		ops := make([]string, applied)
		for k, m := range muts[:applied] {
			ops[k] = string(m.Op)
		}
		d.rec.Relabel("dyn", st.Touched, st.Splits, st.Merges, strings.Join(ops, "+"))
		d.rec.Count("dyn.events", 1)
		d.rec.Count("dyn.splits", int64(st.Splits))
		d.rec.Count("dyn.merges", int64(st.Merges))
		d.rec.Count("dyn.touched_classes", int64(st.TouchedClasses))
		d.rec.Count("dyn.relabeled", int64(st.Relabeled))
		d.rec.Observe("dyn.update", time.Since(start))
	}
	return st, firstErr
}

// Rule returns the environment rule the engine labels under.
func (d *DynSystem) Rule() Rule { return d.g.rule }

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
	out := make([]string, len(d.g.nbr[s]))
	for k, vs := range d.g.nbr[s] {
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
	return ok && d.g.kind[s] == 'P'
}

// HasVar reports whether a live variable has this id.
func (d *DynSystem) HasVar(id string) bool {
	s, ok := d.byID[id]
	return ok && d.g.kind[s] == 'V'
}

// Crashed reports whether processor id is currently crashed.
func (d *DynSystem) Crashed(id string) bool {
	s, ok := d.byID[id]
	return ok && d.g.kind[s] == 'P' && d.g.crashed[s]
}

// ProcIDs returns the live processor ids in slot order (stable across
// events for surviving processors).
func (d *DynSystem) ProcIDs() []string {
	out := make([]string, 0, d.nProcs)
	for s, k := range d.g.kind {
		if k == 'P' {
			out = append(out, d.ids[s])
		}
	}
	return out
}

// VarIDs returns the live variable ids in slot order.
func (d *DynSystem) VarIDs() []string {
	out := make([]string, 0, d.nVars)
	for s, k := range d.g.kind {
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
	for s, k := range d.g.kind {
		if k == 'V' {
			varAt[s] = len(sys.VarIDs)
			sys.VarIDs = append(sys.VarIDs, d.ids[s])
			sys.VarInit = append(sys.VarInit, d.g.init[s])
		}
	}
	for s, k := range d.g.kind {
		if k != 'P' {
			continue
		}
		sys.ProcIDs = append(sys.ProcIDs, d.ids[s])
		init := d.g.init[s]
		if d.g.crashed[s] {
			init = crashMark + init
		}
		sys.ProcInit = append(sys.ProcInit, init)
		row := make([]int, len(d.g.nbr[s]))
		for kn, vs := range d.g.nbr[s] {
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
	for s, k := range d.g.kind {
		if k == 'P' {
			lab.ProcLabels = append(lab.ProcLabels, canon(s))
		}
	}
	for s, k := range d.g.kind {
		if k == 'V' {
			lab.VarLabels = append(lab.VarLabels, canon(s))
		}
	}
	return lab
}

// ApplyDiff mutates the topology to match target (by external ids) as
// one churn event. Names must agree. Crash flags of surviving
// processors are preserved; target initial states win. Returns the
// relabel stats of the single settle. A rejected target leaves the
// engine untouched: every check runs before the first edit.
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
	// Apply stops at the first failing mutation, so every mutation below
	// must succeed: target ids are unique across processors and
	// variables, and none names a live node of the other kind (removals
	// run last, so that node would still hold the id when it is added).
	seen := make(map[string]bool, target.NumNodes())
	claim := func(id string, kind byte) error {
		if seen[id] {
			return fmt.Errorf("%w: duplicate node id %q", ErrSystemShape, id)
		}
		seen[id] = true
		if s, live := d.byID[id]; live && d.g.kind[s] != kind {
			return fmt.Errorf("%w: id %q names a live node of the other kind", ErrSystemShape, id)
		}
		return nil
	}
	var muts []Mutation
	tVar := make(map[string]int, len(target.VarIDs))
	for v, id := range target.VarIDs {
		if err := claim(id, 'V'); err != nil {
			return zero, err
		}
		tVar[id] = v
		if !d.HasVar(id) {
			muts = append(muts, Mutation{Op: OpAddVar, Var: id, Init: target.VarInit[v]})
		} else if s := d.byID[id]; d.g.init[s] != target.VarInit[v] {
			muts = append(muts, Mutation{Op: OpSetVarInit, Var: id, Init: target.VarInit[v]})
		}
	}
	tProc := make(map[string]int, len(target.ProcIDs))
	for p, id := range target.ProcIDs {
		if err := claim(id, 'P'); err != nil {
			return zero, err
		}
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
			if d.ids[d.g.nbr[s][k]] != vid {
				muts = append(muts, Mutation{Op: OpRewire, Proc: id, Name: string(d.names[k]), Var: vid})
			}
		}
		if d.g.init[s] != target.ProcInit[p] {
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
	for s, k := range d.g.kind {
		if k == 'P' {
			if _, keep := tProc[d.ids[s]]; !keep {
				muts = append(muts, Mutation{Op: OpRemoveProc, Proc: d.ids[s]})
				for _, vs := range d.g.nbr[s] {
					cascaded[d.ids[vs]] = true
				}
			}
		}
	}
	for s, k := range d.g.kind {
		if k == 'V' {
			if _, keep := tVar[d.ids[s]]; !keep && !cascaded[d.ids[s]] {
				muts = append(muts, Mutation{Op: OpRemoveVar, Var: d.ids[s]})
			}
		}
	}
	return d.Apply(muts...)
}

// Check audits the engine's internal invariants (slot/edge symmetry and
// the partition invariants); tests and the fuzzer call it after every
// event.
func (d *DynSystem) Check() error {
	np, nv := 0, 0
	for s, k := range d.g.kind {
		switch k {
		case 'P':
			np++
			if len(d.g.nbr[s]) != len(d.names) {
				return fmt.Errorf("core: proc slot %d binds %d names", s, len(d.g.nbr[s]))
			}
			for kn, vs := range d.g.nbr[s] {
				if d.g.kind[vs] != 'V' {
					return fmt.Errorf("core: proc slot %d name %d -> non-var slot %d", s, kn, vs)
				}
				found := false
				for k, p := range d.g.inProc[vs] {
					if p == s && d.g.inName[vs][k] == kn {
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
			if len(d.g.inProc[s]) != len(d.g.inName[s]) {
				return fmt.Errorf("core: var slot %d has %d procs, %d names", s, len(d.g.inProc[s]), len(d.g.inName[s]))
			}
			for k, p := range d.g.inProc[s] {
				if d.g.kind[p] != 'P' || d.g.nbr[p][d.g.inName[s][k]] != s {
					return fmt.Errorf("core: stale edge on var slot %d: proc %d name %d", s, p, d.g.inName[s][k])
				}
			}
		}
	}
	if np != d.nProcs || nv != d.nVars {
		return fmt.Errorf("core: counts drifted: %d/%d procs, %d/%d vars", np, d.nProcs, nv, d.nVars)
	}
	return d.dyn.Check()
}
