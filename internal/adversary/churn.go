package adversary

import (
	"fmt"
	"math/rand"

	"simsym/internal/core"
	"simsym/internal/partition"
)

// ChurnOpts bounds the population of a churn stream.
type ChurnOpts struct {
	// MinProcs suppresses leaves that would shrink the population below
	// this floor (default 2; the engine itself refuses to drop the last
	// processor).
	MinProcs int
	// MaxProcs suppresses joins above this ceiling (0 = unbounded).
	MaxProcs int
}

// The event mix of every churn stream, as relative weights.
const (
	joinWeight    = 3
	leaveWeight   = 3
	crashWeight   = 1
	restartWeight = 1
	rewireWeight  = 2
)

func (o ChurnOpts) withDefaults() ChurnOpts {
	if o.MinProcs < 2 {
		o.MinProcs = 2
	}
	return o
}

// Churn is a seeded stream of topology mutation events over a dynamic
// similarity engine: processors join, leave, crash, restart, and rewire,
// extending the fault vocabulary of the scheduler layer to the topology
// itself. A joining processor clones a uniformly chosen processor's
// bindings. Every stream is a deterministic function of (seed, options,
// initial population), so churn runs replay exactly. Event generation
// is O(1) (amortized) regardless of population size: the stream keeps
// its own id pools instead of asking the engine for full listings.
type Churn struct {
	rng     *rand.Rand
	d       *core.DynSystem
	opts    ChurnOpts
	procs   []string
	procAt  map[string]int
	crashed []string
	crashAt map[string]int
	seq     int
}

// NewChurn builds a churn stream over d seeded from rng. The engine's
// current processors form the initial population.
func NewChurn(rng *rand.Rand, d *core.DynSystem, opts ChurnOpts) *Churn {
	c := &Churn{
		rng:     rng,
		d:       d,
		opts:    opts.withDefaults(),
		procs:   d.ProcIDs(),
		procAt:  make(map[string]int),
		crashAt: make(map[string]int),
	}
	for i, id := range c.procs {
		c.procAt[id] = i
	}
	return c
}

func (c *Churn) dropProc(id string) {
	i := c.procAt[id]
	last := len(c.procs) - 1
	c.procs[i] = c.procs[last]
	c.procAt[c.procs[i]] = i
	c.procs = c.procs[:last]
	delete(c.procAt, id)
	if j, ok := c.crashAt[id]; ok {
		lastC := len(c.crashed) - 1
		c.crashed[j] = c.crashed[lastC]
		c.crashAt[c.crashed[j]] = j
		c.crashed = c.crashed[:lastC]
		delete(c.crashAt, id)
	}
}

// Step generates and applies one churn event, returning its kind and
// the relabel stats. Suppressed events (leave at the population floor,
// join at the ceiling, crash with everyone crashed, ...) degrade to the
// next viable kind; Step only errors if the engine rejects a mutation,
// which indicates a bug in the stream.
func (c *Churn) Step() (kind string, st partition.UpdateStats, err error) {
	o := c.opts
	weights := [5]int{joinWeight, leaveWeight, crashWeight, restartWeight, rewireWeight}
	if len(c.procs) <= o.MinProcs {
		weights[1] = 0
	}
	if o.MaxProcs > 0 && len(c.procs) >= o.MaxProcs {
		weights[0] = 0
	}
	if len(c.crashed) == len(c.procs) {
		weights[2] = 0
	}
	if len(c.crashed) == 0 {
		weights[3] = 0
	}
	total := 0 // rewires are always viable, so total > 0
	for _, w := range weights {
		total += w
	}
	pick := c.rng.Intn(total)
	ev := 0
	for ; ev < len(weights); ev++ {
		if pick < weights[ev] {
			break
		}
		pick -= weights[ev]
	}
	switch ev {
	case 0: // join
		bind, berr := c.d.Bindings(c.procs[c.rng.Intn(len(c.procs))])
		if berr != nil {
			return "", st, berr
		}
		id := fmt.Sprintf("c%d", c.seq)
		c.seq++
		st, err = c.d.Apply(core.Mutation{Op: core.OpAddProc, Proc: id, Init: "0", Bind: bind})
		if err == nil {
			c.procAt[id] = len(c.procs)
			c.procs = append(c.procs, id)
		}
		return "join", st, err
	case 1: // leave
		id := c.procs[c.rng.Intn(len(c.procs))]
		st, err = c.d.Apply(core.Mutation{Op: core.OpRemoveProc, Proc: id})
		if err == nil {
			c.dropProc(id)
		}
		return "leave", st, err
	case 2: // crash: resample until a non-crashed processor comes up
		// (terminates: weights[2] is zeroed when everyone is down)
		var id string
		for {
			id = c.procs[c.rng.Intn(len(c.procs))]
			if _, down := c.crashAt[id]; !down {
				break
			}
		}
		st, err = c.d.Apply(core.Mutation{Op: core.OpCrash, Proc: id})
		if err == nil {
			c.crashAt[id] = len(c.crashed)
			c.crashed = append(c.crashed, id)
		}
		return "crash", st, err
	case 3: // restart
		id := c.crashed[c.rng.Intn(len(c.crashed))]
		st, err = c.d.Apply(core.Mutation{Op: core.OpRestart, Proc: id})
		if err == nil {
			j := c.crashAt[id]
			last := len(c.crashed) - 1
			c.crashed[j] = c.crashed[last]
			c.crashAt[c.crashed[j]] = j
			c.crashed = c.crashed[:last]
			delete(c.crashAt, id)
		}
		return "restart", st, err
	default: // rewire: adopt another processor's binding for one name
		p := c.procs[c.rng.Intn(len(c.procs))]
		q := c.procs[c.rng.Intn(len(c.procs))]
		names := c.d.Names()
		k := c.rng.Intn(len(names))
		bind, berr := c.d.Bindings(q)
		if berr != nil {
			return "", st, berr
		}
		st, err = c.d.Apply(core.Mutation{Op: core.OpRewire, Proc: p, Name: string(names[k]), Var: bind[k]})
		return "rewire", st, err
	}
}

// Procs returns the current population size the stream tracks.
func (c *Churn) Procs() int { return len(c.procs) }
