// Package core implements similarity labelings, the central contribution
// of Johnson & Schneider (PODC 1985).
//
// A schedule causes nodes to "behave similarly" if it makes them have the
// same state at the same time infinitely often, for any program; nodes are
// similar if some schedule causes them to behave similarly. The paper
// computes the similarity labeling Θ — the coarsest labeling in which
// same-labeled nodes are similar — by partition refinement over node
// environments (Algorithm 1, Theorems 4 and 5).
//
// The environment rule depends on the instruction set:
//
//   - RuleQ (instruction set Q, and bounded-fair L via relabeled
//     families): a variable's environment counts, for every name n and
//     every processor label α, how many n-neighbors labeled α it has —
//     peek returns subvalue multisets, so neighbor counts are
//     observable.
//   - RuleSetS (instruction set S): writes overwrite, so only the set of
//     neighbor labels is observable; a variable's environment records,
//     per name, the set of labels of its n-neighbors (section 6,
//     "Systems in S").
//
// Processor environments are the same under both rules: the label of the
// n-neighbor for each name n (condition (2) of section 4), plus the
// initial state (condition (1)).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"simsym/internal/obs"
	"simsym/internal/partition"
	"simsym/internal/system"
)

// Rule selects the environment rule used during refinement.
type Rule int

// Environment rules.
const (
	// RuleQ uses multiset (counted) variable environments, matching
	// instruction set Q.
	RuleQ Rule = iota + 1
	// RuleSetS uses set-based variable environments, matching
	// instruction set S (both fair and bounded-fair; the two differ in
	// the decision layer, not the labeling).
	RuleSetS
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case RuleQ:
		return "Q"
	case RuleSetS:
		return "setS"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Sentinel errors.
var (
	ErrBadRule      = errors.New("core: unknown environment rule")
	ErrSystemShape  = errors.New("core: invalid system")
	ErrLabelingSize = errors.New("core: labeling does not match system")
)

// Labeling is a similarity (or candidate) labeling of a system's nodes.
// Processor p has label ProcLabels[p]; variable v has label VarLabels[v].
// Labels of processors and variables never coincide semantically, but the
// integer spaces may overlap only across kinds, never within one.
type Labeling struct {
	Sys        *system.System
	ProcLabels []int
	VarLabels  []int
}

// graph is the one refinement structure behind every entry point: a
// system's bipartite graph laid out in slots, processors and variables
// alike, read under an environment rule. newGraph lays out a static
// System (processor p is slot p, variable v is slot NumProcs+v) for the
// static entry points, and DynSystem mutates one in place. It is a
// partition.DynStructure and partition.CountStructure for the
// production drivers, and a partition.Structure for the naive oracle
// and IsStable.
//
// A variable's incident edges are kept as two parallel lists, so
// Dependents hands out the stored processor list without building one.
type graph struct {
	rule    Rule
	kind    []byte   // 'P' or 'V', 0 for a free slot
	init    []string // slot -> initial state
	crashed []bool   // proc slot -> crashed (crashMark in its InitKey)
	nbr     [][]int  // proc slot -> var slot per name index
	inProc  [][]int  // var slot -> incident proc slots
	inName  [][]int  // var slot -> name index of each inProc edge
}

// newGraph validates sys and rule and lays sys out as a graph.
func newGraph(sys *system.System, rule Rule) (*graph, error) {
	if rule != RuleQ && rule != RuleSetS {
		return nil, fmt.Errorf("%w: %d", ErrBadRule, int(rule))
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSystemShape, err)
	}
	np, n := sys.NumProcs(), sys.NumNodes()
	g := &graph{
		rule:    rule,
		kind:    make([]byte, n),
		init:    append(append(make([]string, 0, n), sys.ProcInit...), sys.VarInit...),
		crashed: make([]bool, n),
		nbr:     make([][]int, n),
		inProc:  make([][]int, n),
		inName:  make([][]int, n),
	}
	m, deg := 0, make([]int, n)
	for _, row := range sys.Nbr {
		m += len(row)
		for _, v := range row {
			deg[np+v]++
		}
	}
	// Every slot's lists are windows of three edge-count-sized arrays,
	// capped so that a DynSystem append moves a list out instead of
	// overwriting the next one.
	nbrs, procs, names := make([]int, m), make([]int, 0, m), make([]int, 0, m)
	for s, off := np, 0; s < n; s++ {
		g.kind[s] = 'V'
		g.inProc[s], g.inName[s] = procs[off:off:off+deg[s]], names[off:off:off+deg[s]]
		off += deg[s]
	}
	for p, row := range sys.Nbr {
		g.kind[p] = 'P'
		g.nbr[p], nbrs = nbrs[:len(row):len(row)], nbrs[len(row):]
		for k, v := range row {
			g.nbr[p][k] = np + v
			g.inProc[np+v] = append(g.inProc[np+v], p)
			g.inName[np+v] = append(g.inName[np+v], k)
		}
	}
	return g, nil
}

func (g *graph) Len() int         { return len(g.kind) }
func (g *graph) Alive(i int) bool { return g.kind[i] != 0 }

// Counting carries the rule to the drivers: Q environments count
// neighbors and get Hopcroft, S environments are sets and get the
// worklist.
func (g *graph) Counting() bool { return g.rule == RuleQ }

func (g *graph) InitKey(i int) string {
	// Kind tag plus length-prefixed initial state: the length field runs
	// to the first ':', then exactly that many bytes follow, so an
	// initial state containing separator bytes can never shift the frame
	// and collide with another node's key.
	init := g.init[i]
	if g.kind[i] == 'V' {
		return "V" + strconv.Itoa(len(init)) + ":" + init
	}
	if g.crashed[i] {
		init = crashMark + init
	}
	return "P" + strconv.Itoa(len(init)) + ":" + init
}

// Signature is the string spelling of AppendSignature that the naive
// oracle and IsStable read.
func (g *graph) Signature(i int, label func(int) int) string {
	var b strings.Builder
	if g.kind[i] == 'P' {
		// Condition (2): the labels of the n-neighbors, in NAMES order.
		for _, vs := range g.nbr[i] {
			fmt.Fprintf(&b, "%d,", label(vs))
		}
		return b.String()
	}
	// Condition (3): per (name, processor label), neighbor counts under
	// Q; under S only which pairs occur.
	counts := make(map[[2]int]int)
	for k, p := range g.inProc[i] {
		counts[[2]int{g.inName[i][k], label(p)}]++
	}
	keys := make([][2]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "%d:%d", k[0], k[1])
		if g.rule == RuleQ {
			fmt.Fprintf(&b, "=%d", counts[k])
		}
		b.WriteByte(';')
	}
	return b.String()
}

// AppendSignature implements partition.TokenStructure: the same
// environment information as Signature, emitted as uint64 tokens into a
// caller-owned buffer. Classes never mix processors and variables
// (InitKey separates the kinds), so the two encodings need no kind tag:
//
//   - processor: the n-neighbor labels in NAMES order (condition (2));
//   - variable under Q: the sorted multiset of (name, label) pairs,
//     which encodes the per-(name, label) counts of condition (3);
//   - variable under S: the sorted set of (name, label) pairs.
//
// Two nodes of one kind produce equal token sequences iff their
// Signature strings are equal.
func (g *graph) AppendSignature(buf []uint64, i int, label func(int) int) []uint64 {
	if g.kind[i] == 'P' {
		for _, vs := range g.nbr[i] {
			buf = append(buf, uint64(int64(label(vs))))
		}
		return buf
	}
	start := len(buf)
	for k, p := range g.inProc[i] {
		buf = append(buf, uint64(int64(g.inName[i][k])), uint64(int64(label(p))))
	}
	partition.SortTokenPairs(buf[start:])
	if g.rule == RuleQ {
		return buf
	}
	// Set rule: writes overwrite, so only distinct pairs are observable.
	out := start
	for k := start; k < len(buf); k += 2 {
		if k > start && buf[k] == buf[out-2] && buf[k+1] == buf[out-1] {
			continue
		}
		buf[out], buf[out+1] = buf[k], buf[k+1]
		out += 2
	}
	return buf[:out]
}

// AppendOutEdges implements partition.CountStructure for the Q
// (counting) rule: a processor depends on its n-neighbor through an
// edge tagged by the name index, and a variable depends on each
// incident processor the same way. The multiset of tags into a class is
// exactly the paper's environment conditions (2) and (3).
func (g *graph) AppendOutEdges(buf []partition.TaggedEdge, i int) []partition.TaggedEdge {
	if g.kind[i] == 'P' {
		for k, vs := range g.nbr[i] {
			buf = append(buf, partition.TaggedEdge{To: vs, Tag: k})
		}
		return buf
	}
	for k, p := range g.inProc[i] {
		buf = append(buf, partition.TaggedEdge{To: p, Tag: g.inName[i][k]})
	}
	return buf
}

// Dependents: a processor's label feeds the environments of its
// variables, and a variable's label those of its processors. Both are
// stored lists, returned as they are.
func (g *graph) Dependents(i int) []int {
	if g.kind[i] == 'P' {
		return g.nbr[i]
	}
	return g.inProc[i]
}

func fromPartition(sys *system.System, p *partition.Partition) *Labeling {
	np := sys.NumProcs()
	lab := &Labeling{
		Sys:        sys,
		ProcLabels: make([]int, np),
		VarLabels:  make([]int, sys.NumVars()),
	}
	canon := p.Canonical()
	for i := 0; i < np; i++ {
		lab.ProcLabels[i] = canon[i]
	}
	for v := 0; v < sys.NumVars(); v++ {
		lab.VarLabels[v] = canon[np+v]
	}
	return lab
}

// Config carries the optional knobs of a similarity computation: an
// event recorder for per-round refinement observability. The zero
// Config is the default unobserved run.
type Config struct {
	// Obs receives phase, refine-round, and stat events plus the
	// core.* counters; nil records nothing.
	Obs *obs.Recorder
}

// Similarity computes the similarity labeling Θ of sys under the given
// environment rule. The counting rule (Q) uses the Hopcroft smaller-half
// driver — Theorem 5's O(n log n) algorithm; the set rule, for which the
// smaller-half trick is unsound (a tag present in a class may live only
// in the split-off part), uses the worklist driver.
func Similarity(sys *system.System, rule Rule) (*Labeling, error) {
	return SimilarityWith(sys, rule, Config{})
}

// SimilarityWith is Similarity with full Config control. When cfg.Obs
// is recording it emits a core.similarity phase wrapping one
// KindRefineRound event per refinement round (worklist) or carving
// splitter (Hopcroft), final class-count stats, and the core.* counters
// and latency histogram; with a nil recorder the instrumentation
// reduces to one branch per round.
func SimilarityWith(sys *system.System, rule Rule, cfg Config) (*Labeling, error) {
	g, err := newGraph(sys, rule)
	if err != nil {
		return nil, err
	}
	rec := cfg.Obs
	var hook partition.RoundHook
	var rounds, splits int
	var started time.Time
	if rec.Enabled() {
		driver := "worklist"
		if rule == RuleQ {
			driver = "hopcroft"
		}
		rec.PhaseStart("core.similarity")
		started = time.Now()
		hook = func(round, classes, split int) {
			rounds = round
			splits += split
			rec.RefineRound(driver, round, classes, split)
		}
	}
	var p *partition.Partition
	if rule == RuleQ {
		p, err = partition.FixpointHopcroft(g, hook)
	} else {
		p, err = partition.FixpointWorklist(g, hook)
	}
	if err != nil {
		return nil, fmt.Errorf("core: refining: %w", err)
	}
	lab := fromPartition(sys, p)
	if rec.Enabled() {
		rec.Stat("core.proc_classes", int64(lab.NumProcClasses()))
		rec.Stat("core.var_classes", int64(lab.NumVarClasses()))
		rec.Count("core.similarity_runs", 1)
		rec.Count("core.refine_rounds", int64(rounds))
		rec.Count("core.class_splits", int64(splits))
		rec.Observe("core.similarity", time.Since(started))
		rec.PhaseEnd("core.similarity", int64(rounds))
	}
	return lab, nil
}

// SimilarityWorklist computes the labeling with FixpointWorklist, a
// partition.Dyn build, under either rule. Under Q it is the DESIGN.md
// ablation against the Hopcroft driver Similarity uses.
func SimilarityWorklist(sys *system.System, rule Rule) (*Labeling, error) {
	g, err := newGraph(sys, rule)
	if err != nil {
		return nil, err
	}
	p, err := partition.FixpointWorklist(g, nil)
	if err != nil {
		return nil, fmt.Errorf("core: refining: %w", err)
	}
	return fromPartition(sys, p), nil
}

// SimilarityNaive computes the same labeling with the naive driver (the
// literal transcription of Algorithm 1). Kept as the testing oracle and
// the DESIGN.md ablation baseline.
func SimilarityNaive(sys *system.System, rule Rule) (*Labeling, error) {
	g, err := newGraph(sys, rule)
	if err != nil {
		return nil, err
	}
	p, err := partition.FixpointNaive(g)
	if err != nil {
		return nil, fmt.Errorf("core: refining: %w", err)
	}
	return fromPartition(sys, p), nil
}

// validateAgainst checks that lab matches sys's shape.
func (l *Labeling) validateAgainst(sys *system.System) error {
	if l.Sys != sys {
		// Allow distinct-but-equal systems; check shape only.
		if len(l.ProcLabels) != sys.NumProcs() || len(l.VarLabels) != sys.NumVars() {
			return ErrLabelingSize
		}
		return nil
	}
	if len(l.ProcLabels) != sys.NumProcs() || len(l.VarLabels) != sys.NumVars() {
		return ErrLabelingSize
	}
	return nil
}

// NumProcClasses returns the number of distinct processor labels.
func (l *Labeling) NumProcClasses() int {
	seen := make(map[int]bool)
	for _, x := range l.ProcLabels {
		seen[x] = true
	}
	return len(seen)
}

// NumVarClasses returns the number of distinct variable labels.
func (l *Labeling) NumVarClasses() int {
	seen := make(map[int]bool)
	for _, x := range l.VarLabels {
		seen[x] = true
	}
	return len(seen)
}

// ProcClasses returns the processor equivalence classes, each sorted, in
// order of smallest member.
func (l *Labeling) ProcClasses() [][]int {
	byLabel := make(map[int][]int)
	for p, x := range l.ProcLabels {
		byLabel[x] = append(byLabel[x], p)
	}
	classes := make([][]int, 0, len(byLabel))
	for _, m := range byLabel {
		sort.Ints(m)
		classes = append(classes, m)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a][0] < classes[b][0] })
	return classes
}

// VarClasses returns the variable equivalence classes, each sorted, in
// order of smallest member.
func (l *Labeling) VarClasses() [][]int {
	byLabel := make(map[int][]int)
	for v, x := range l.VarLabels {
		byLabel[x] = append(byLabel[x], v)
	}
	classes := make([][]int, 0, len(byLabel))
	for _, m := range byLabel {
		sort.Ints(m)
		classes = append(classes, m)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a][0] < classes[b][0] })
	return classes
}

// UniqueProcs returns the processors that are alone in their similarity
// class — the candidates a selection algorithm can elect.
func (l *Labeling) UniqueProcs() []int {
	var out []int
	for _, c := range l.ProcClasses() {
		if len(c) == 1 {
			out = append(out, c[0])
		}
	}
	return out
}

// EveryProcPaired reports whether every processor shares its label with
// some other processor. By Theorems 2 and 3, a similarity labeling with
// this property means the system has no selection algorithm.
func (l *Labeling) EveryProcPaired() bool {
	counts := make(map[int]int)
	for _, x := range l.ProcLabels {
		counts[x]++
	}
	for _, x := range l.ProcLabels {
		if counts[x] < 2 {
			return false
		}
	}
	return true
}

// SameClass reports whether processors p and q are similar under l.
func (l *Labeling) SameClass(p, q int) bool {
	return l.ProcLabels[p] == l.ProcLabels[q]
}

// String renders the labeling compactly.
func (l *Labeling) String() string {
	var b strings.Builder
	b.WriteString("procs:")
	for _, c := range l.ProcClasses() {
		names := make([]string, len(c))
		for i, p := range c {
			names[i] = l.Sys.ProcIDs[p]
		}
		fmt.Fprintf(&b, " {%s}", strings.Join(names, ","))
	}
	b.WriteString(" vars:")
	for _, c := range l.VarClasses() {
		names := make([]string, len(c))
		for i, v := range c {
			names[i] = l.Sys.VarIDs[v]
		}
		fmt.Fprintf(&b, " {%s}", strings.Join(names, ","))
	}
	return b.String()
}

// IsStable reports whether lab is stable for sys under rule: same label
// implies same environment. By Theorem 4, a stable labeling is a
// supersimilarity labeling (same label really does imply similar).
func IsStable(sys *system.System, rule Rule, lab *Labeling) (bool, error) {
	g, err := newGraph(sys, rule)
	if err != nil {
		return false, err
	}
	if err := lab.validateAgainst(sys); err != nil {
		return false, err
	}
	np := sys.NumProcs()
	// Tagged (kind, label) interning keeps processor and variable label
	// spaces disjoint by construction: every distinct pair gets its own
	// dense id, so no labeling — however many classes, whatever the
	// label values — can alias across kinds. (The former encoding
	// offset variable labels by a fixed constant, which a labeling with
	// that many classes would silently defeat.)
	dense := make(map[[2]int]int)
	label := func(i int) int {
		key := [2]int{0, 0}
		if i < np {
			key = [2]int{0, lab.ProcLabels[i]}
		} else {
			key = [2]int{1, lab.VarLabels[i-np]}
		}
		id, ok := dense[key]
		if !ok {
			id = len(dense)
			dense[key] = id
		}
		return id
	}
	// Initial-state condition (1) plus environment conditions (2)/(3),
	// held as a tuple and compared field-wise: initial states containing
	// separator bytes cannot collide with the environment encoding.
	type nodeSig struct{ init, env string }
	sigByClass := make(map[int]nodeSig)
	for i := range g.kind {
		sig := nodeSig{init: g.init[i], env: g.Signature(i, label)}
		cls := label(i)
		if prev, ok := sigByClass[cls]; ok {
			if prev != sig {
				return false, nil
			}
		} else {
			sigByClass[cls] = sig
		}
	}
	return true, nil
}

// IsSupersimilarityForL implements the Theorem 8 test: lab is a
// supersimilarity labeling for the system under instruction set L if it is
// stable under RuleQ and no two same-labeled processors give the same name
// to the same variable (same-name sharers can always break the tie with a
// lock race, so they cannot be similar in L).
func IsSupersimilarityForL(sys *system.System, lab *Labeling) (bool, error) {
	stable, err := IsStable(sys, RuleQ, lab)
	if err != nil {
		return false, err
	}
	if !stable {
		return false, nil
	}
	ok, err := NoSameNameSharers(sys, lab)
	if err != nil {
		return false, err
	}
	return ok, nil
}

// NoSameNameSharers reports whether no two same-labeled processors give
// the same name to the same variable (the side condition of Theorem 8).
func NoSameNameSharers(sys *system.System, lab *Labeling) (bool, error) {
	if err := lab.validateAgainst(sys); err != nil {
		return false, err
	}
	vn := sys.VarNeighbors()
	for v := range vn {
		seen := make(map[[2]int]bool) // (nameIdx, procLabel)
		for _, e := range vn[v] {
			key := [2]int{e.NameIdx, lab.ProcLabels[e.Proc]}
			if seen[key] {
				return false, nil
			}
			seen[key] = true
		}
	}
	return true, nil
}

// NoSharersAtAll reports whether no two same-labeled processors share any
// variable under any pair of names — the extended-locking condition of
// section 6: with atomic multi-variable locks, similar processors cannot
// be neighbors of the same variable.
func NoSharersAtAll(sys *system.System, lab *Labeling) (bool, error) {
	if err := lab.validateAgainst(sys); err != nil {
		return false, err
	}
	vn := sys.VarNeighbors()
	for v := range vn {
		seen := make(map[int]int) // procLabel -> proc
		for _, e := range vn[v] {
			if prev, ok := seen[lab.ProcLabels[e.Proc]]; ok && prev != e.Proc {
				return false, nil
			}
			seen[lab.ProcLabels[e.Proc]] = e.Proc
		}
	}
	return true, nil
}
