// Package mimic implements the paper's mimicry relation for fair systems
// in S (section 6).
//
// In a merely-fair system, a processor can be starved of information for
// arbitrarily long: if the processors outside a subsystem never execute,
// a processor inside it behaves exactly as it would in the subsystem
// alone. The paper captures this with: x mimics y if there is a subsystem
// of Σ in which (the images of) x and y are similar. Dissimilar
// processors can therefore still be unable to learn their labels — and
// selection for a fair system in S exists iff some processor mimics no
// other processor.
//
// Subsystems are induced by processor subsets (kept processors retain all
// their name-edges; variables keep only edges from kept processors), and
// in-subsystem similarity uses the set-based S environment rule.
package mimic

import (
	"errors"
	"fmt"

	"simsym/internal/core"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrTooLarge = errors.New("mimic: too many processors for subset enumeration")
)

// MaxProcs bounds the 2^|P| subset enumeration.
const MaxProcs = 16

// Relation is the computed mimicry relation.
type Relation struct {
	// Pairs[x][y] reports whether x mimics y (x ≠ y). The relation is
	// symmetric under the in-subsystem definition.
	Pairs [][]bool
	// WitnessSubset[x][y] is a processor subset inducing a subsystem in
	// which x and y are similar (nil when Pairs[x][y] is false).
	WitnessSubset [][][]int
}

// Mimics reports whether x mimics y.
func (r *Relation) Mimics(x, y int) bool { return r.Pairs[x][y] }

// MimicsNobody returns the processors that mimic no other processor —
// the ones that can safely learn their own label under fair schedules.
func (r *Relation) MimicsNobody() []int {
	var out []int
	for x := range r.Pairs {
		free := true
		for y := range r.Pairs[x] {
			if x != y && r.Pairs[x][y] {
				free = false
				break
			}
		}
		if free {
			out = append(out, x)
		}
	}
	return out
}

// Compute enumerates all processor subsets of size >= 2 and records which
// pairs become similar in some induced subsystem.
func Compute(sys *system.System) (*Relation, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("mimic: %w", err)
	}
	np := sys.NumProcs()
	if np > MaxProcs {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, np, MaxProcs)
	}
	rel := &Relation{
		Pairs:         make([][]bool, np),
		WitnessSubset: make([][][]int, np),
	}
	for x := range rel.Pairs {
		rel.Pairs[x] = make([]bool, np)
		rel.WitnessSubset[x] = make([][]int, np)
	}

	for mask := 0; mask < 1<<np; mask++ {
		var procs []int
		for p := 0; p < np; p++ {
			if mask&(1<<p) != 0 {
				procs = append(procs, p)
			}
		}
		if len(procs) < 2 {
			continue
		}
		sub, procMap, err := system.Induced(sys, procs)
		if err != nil {
			return nil, fmt.Errorf("mimic: inducing %v: %w", procs, err)
		}
		lab, err := core.Similarity(sub, core.RuleSetS)
		if err != nil {
			return nil, fmt.Errorf("mimic: labeling subsystem %v: %w", procs, err)
		}
		for i, x := range procs {
			for _, y := range procs[i+1:] {
				if rel.Pairs[x][y] {
					continue
				}
				if lab.ProcLabels[procMap[x]] == lab.ProcLabels[procMap[y]] {
					witness := append([]int(nil), procs...)
					rel.Pairs[x][y] = true
					rel.Pairs[y][x] = true
					rel.WitnessSubset[x][y] = witness
					rel.WitnessSubset[y][x] = witness
				}
			}
		}
	}
	return rel, nil
}
