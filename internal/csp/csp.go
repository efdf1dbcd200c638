// Package csp implements the paper's synchronous message-passing
// results (section 6): CSP and CSP extended with output guards.
//
// The paper's analogy — "systems in extended CSP are to asynchronous
// bidirectional message-passing systems as systems in L are to systems
// in Q" — is made literal here. A CSP network of processes joined by
// named ports maps onto a shared-memory system in which every channel is
// a variable with exactly two neighbors; a symmetric rendezvous between
// two same-state neighbors must assign roles (exactly one party's output
// matches the other's input), which is operationally the lock race on
// the shared channel variable. Under the translation:
//
//   - the extended-CSP similarity and selection theory is the L theory
//     of the channel-shaped system (Theorems 8–9, Algorithm 4);
//   - the supersimilarity transfer condition specializes to "no two
//     neighboring processes share a label" — a rendezvous between
//     similar neighbors would break the tie;
//   - plain CSP (no output guards) removes the symmetric race: a
//     sender cannot select between partners, which weakens the model
//     exactly as the paper describes (it reports no general
//     deadlock-free labeling algorithm for that case, and neither do
//     we; see PlainLimitation).
package csp

import (
	"errors"
	"fmt"

	"simsym/internal/core"
	"simsym/internal/selection"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrShape = errors.New("csp: invalid network")
)

// Net is a CSP process network: processes reference channels through
// local port names; every channel connects exactly two processes.
type Net struct {
	// Ports is the port-name alphabet, shared by all processes.
	Ports []system.Name
	// ProcIDs names the processes.
	ProcIDs []string
	// Init holds process initial states.
	Init []string
	// Chan[p][j] is the channel index process p reaches through port
	// Ports[j].
	Chan [][]int
	// NumChans is the number of channels.
	NumChans int
}

// Validate checks the CSP shape: every port bound, every channel having
// exactly two endpoints.
func (n *Net) Validate() error {
	if len(n.ProcIDs) == 0 || len(n.Ports) == 0 {
		return fmt.Errorf("%w: empty", ErrShape)
	}
	if len(n.Chan) != len(n.ProcIDs) || len(n.Init) != len(n.ProcIDs) {
		return fmt.Errorf("%w: size mismatch", ErrShape)
	}
	degree := make([]int, n.NumChans)
	for p, row := range n.Chan {
		if len(row) != len(n.Ports) {
			return fmt.Errorf("%w: process %d binds %d ports, want %d", ErrShape, p, len(row), len(n.Ports))
		}
		for _, c := range row {
			if c < 0 || c >= n.NumChans {
				return fmt.Errorf("%w: channel %d out of range", ErrShape, c)
			}
			degree[c]++
		}
	}
	for c, d := range degree {
		if d != 2 {
			return fmt.Errorf("%w: channel %d has %d endpoints, want 2", ErrShape, c, d)
		}
	}
	return nil
}

// ToSystem converts the CSP network to its channel-shaped shared-memory
// system: channels become variables (initial state "0" — channels carry
// no initial content).
func (n *Net) ToSystem() (*system.System, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	s := &system.System{
		Names:    append([]system.Name(nil), n.Ports...),
		ProcIDs:  append([]string(nil), n.ProcIDs...),
		VarIDs:   make([]string, n.NumChans),
		Nbr:      make([][]int, len(n.ProcIDs)),
		ProcInit: append([]string(nil), n.Init...),
		VarInit:  make([]string, n.NumChans),
	}
	for c := 0; c < n.NumChans; c++ {
		s.VarIDs[c] = fmt.Sprintf("ch%d", c)
		s.VarInit[c] = "0"
	}
	for p := range n.Chan {
		s.Nbr[p] = append([]int(nil), n.Chan[p]...)
	}
	return s, nil
}

// RingNet builds the CSP ring: process i talks to its successor through
// port "next" and its predecessor through port "prev".
func RingNet(n int) (*Net, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: ring size %d", ErrShape, n)
	}
	net := &Net{
		Ports:    []system.Name{"prev", "next"},
		ProcIDs:  make([]string, n),
		Init:     make([]string, n),
		Chan:     make([][]int, n),
		NumChans: n,
	}
	for i := 0; i < n; i++ {
		net.ProcIDs[i] = fmt.Sprintf("P%d", i)
		net.Init[i] = "0"
		net.Chan[i] = []int{(i - 1 + n) % n, i} // prev, next
	}
	return net, nil
}

// PairNet builds two processes joined by one channel — the CSP face of
// Figure 1. Both must call the channel by the same port name for the
// figure's same-name sharing; with a single port that is automatic.
func PairNet() *Net {
	return &Net{
		Ports:    []system.Name{"peer"},
		ProcIDs:  []string{"P", "Q"},
		Init:     []string{"0", "0"},
		Chan:     [][]int{{0}, {0}},
		NumChans: 1,
	}
}

// DecideExtended solves the selection problem for the network under
// extended CSP, via the L theory of the channel-shaped system.
func DecideExtended(n *Net) (*selection.Decision, error) {
	s, err := n.ToSystem()
	if err != nil {
		return nil, err
	}
	return selection.DecideL(s)
}

// TransferCondition reports whether the similarity labeling of the
// asynchronous (Q) view transfers to extended CSP: it must give no two
// neighboring processes the same label (the message-passing analog of
// Theorem 8's same-name condition; on channel-shaped systems every
// shared variable is a channel between exactly two processes).
func TransferCondition(n *Net) (bool, error) {
	s, err := n.ToSystem()
	if err != nil {
		return false, err
	}
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		return false, err
	}
	vn := s.VarNeighbors()
	for c := range vn {
		procs := map[int]bool{}
		for _, e := range vn[c] {
			procs[e.Proc] = true
		}
		var ends []int
		for p := range procs {
			ends = append(ends, p)
		}
		if len(ends) == 2 && lab.ProcLabels[ends[0]] == lab.ProcLabels[ends[1]] {
			return false, nil
		}
	}
	return true, nil
}

// PlainLimitation documents the paper's open point: plain CSP (input
// guards only) cannot run the symmetric rendezvous race, because a
// process committing to an output cannot select among partners; the
// paper reports no general deadlock-free label-learning algorithm for
// it, and this package deliberately provides none. The function exists
// so the limitation is part of the API surface rather than a silent
// omission; it always returns the same explanatory error.
func PlainLimitation() error {
	return errors.New("csp: plain CSP (no output guards) has no known general deadlock-free " +
		"label-learning algorithm (paper, section 6); use extended CSP")
}
