package msgpass

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"simsym/internal/canon"
)

// Flooding label learning: every processor repeatedly sends its current
// view color to its out-neighbors and folds the colors received from its
// in-neighbors into a new view. After enough rounds the view colors
// stabilize into exactly the similarity classes — the message-passing
// analog of Algorithm 2 ("distributed algorithms for finding labels can
// be easily computed for any fair system that uses asynchronous
// message-passing").
//
// Messages are tagged with their round and delivered through per-edge
// FIFO channels by a seeded adversarial-ish scheduler; because each
// processor waits for all in-neighbors' round-r messages before forming
// its round-r+1 view, the resulting colors are schedule independent —
// which the tests verify by varying seeds.

// ErrFloodIncomplete is returned when the simulation ran out of budget
// before every processor stabilized.
var ErrFloodIncomplete = errors.New("msgpass: flooding did not stabilize within budget")

type floodMsg struct {
	round int
	color string
}

// Flood runs the flooding algorithm for the given number of rounds and
// returns each processor's final color. counting selects multiset vs set
// folding, matching the Similarity mode.
func Flood(n *Network, counting bool, rounds int, seed int64) ([]string, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if rounds < 1 {
		return nil, fmt.Errorf("%w: rounds=%d", ErrEmpty, rounds)
	}
	rng := rand.New(rand.NewSource(seed))
	np := n.NumProcs()
	in := n.In()

	type edge struct{ from, to int }
	queues := make(map[edge][]floodMsg)
	color := make([]string, np)
	round := make([]int, np)
	// inbox[p] collects colors from in-neighbors for p's current round.
	inbox := make([]map[int]string, np)
	for p := 0; p < np; p++ {
		color[p] = canon.String([]any{"init", n.Init[p]})
		inbox[p] = make(map[int]string)
		for _, q := range n.Out[p] {
			e := edge{from: p, to: q}
			queues[e] = append(queues[e], floodMsg{round: 0, color: color[p]})
		}
	}

	// Event loop: deliver a random pending message, or advance a random
	// processor whose inbox is complete for its round.
	budget := np * rounds * (np + 4) * 4
	for step := 0; step < budget; step++ {
		var pendingEdges []edge
		for e, q := range queues {
			if len(q) > 0 {
				pendingEdges = append(pendingEdges, e)
			}
		}
		var ready []int
		for p := 0; p < np; p++ {
			if round[p] < rounds && len(inbox[p]) == len(in[p]) {
				ready = append(ready, p)
			}
		}
		if len(pendingEdges) == 0 && len(ready) == 0 {
			break // everyone finished
		}
		// Random choice among deliveries and advances.
		sort.Slice(pendingEdges, func(a, b int) bool {
			if pendingEdges[a].from != pendingEdges[b].from {
				return pendingEdges[a].from < pendingEdges[b].from
			}
			return pendingEdges[a].to < pendingEdges[b].to
		})
		total := len(pendingEdges) + len(ready)
		pick := rng.Intn(total)
		if pick < len(pendingEdges) {
			e := pendingEdges[pick]
			q := queues[e]
			msg := q[0]
			// FIFO delivery; accept only when the receiver is at this
			// round (it always is, because senders run at most one round
			// ahead and channels are FIFO).
			if msg.round == round[e.to] {
				queues[e] = q[1:]
				inbox[e.to][e.from] = msg.color
			} else if msg.round < round[e.to] {
				queues[e] = q[1:] // stale duplicate; drop
			}
			continue
		}
		p := ready[pick-len(pendingEdges)]
		colors := make([]string, 0, len(in[p]))
		for _, q := range in[p] {
			colors = append(colors, inbox[p][q])
		}
		color[p] = fold(color[p], colors, counting)
		round[p]++
		inbox[p] = make(map[int]string)
		if round[p] < rounds {
			for _, q := range n.Out[p] {
				e := edge{from: p, to: q}
				queues[e] = append(queues[e], floodMsg{round: round[p], color: color[p]})
			}
		}
	}
	for p := 0; p < np; p++ {
		if round[p] < rounds {
			return nil, fmt.Errorf("%w: processor %d at round %d/%d", ErrFloodIncomplete, p, round[p], rounds)
		}
	}
	return color, nil
}

func fold(own string, received []string, counting bool) string {
	sort.Strings(received)
	var b strings.Builder
	b.WriteString("v(")
	b.WriteString(own)
	b.WriteString(")[")
	prev := ""
	cnt := 0
	flush := func() {
		if cnt > 0 {
			if counting {
				fmt.Fprintf(&b, "%s*%d;", prev, cnt)
			} else {
				fmt.Fprintf(&b, "%s;", prev)
			}
		}
	}
	for _, c := range received {
		if c != prev {
			flush()
			prev = c
			cnt = 0
		}
		cnt++
	}
	flush()
	b.WriteString("]")
	return canon.String(b.String())
}
