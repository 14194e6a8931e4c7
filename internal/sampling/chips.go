package sampling

import (
	"fmt"
	"math/rand"
)

// Chips is the node-weight distribution D of Algorithm 1, stored as integer
// chip counts backed by a Fenwick tree for O(log n) sampling and moves.
//
// Invariants maintained (and relied on by the Markov-chain analysis):
//   - every node holds at least MinChips chips;
//   - Move conserves the total chip count.
//
// Chips also supports deactivating nodes: under a sliding-window stream,
// nodes whose edges have all expired are no longer part of the current
// snapshot G_t and must not be sampled for training, but they keep their
// chips so the distribution is intact if they become active again.
type Chips struct {
	// MinChips is the floor below which a node's count cannot drop
	// (1 in the paper, lines 12 and 15 of Algorithm 1).
	MinChips int

	k      int
	counts []int
	active []bool
	total  int
	f      *Fenwick
}

// NewChips returns a distribution over n nodes with k chips each.
func NewChips(n, k int) *Chips {
	if k < 1 {
		panic(fmt.Sprintf("sampling: initial chips k must be >= 1, got %d", k))
	}
	c := &Chips{MinChips: 1, k: k, f: NewFenwick(0)}
	c.EnsureN(n)
	return c
}

// N returns the number of nodes covered.
func (c *Chips) N() int { return len(c.counts) }

// K returns the initial per-node chip count.
func (c *Chips) K() int { return c.k }

// Total returns the total number of chips.
func (c *Chips) Total() int { return c.total }

// Count returns node v's chip count.
func (c *Chips) Count(v int) int { return c.counts[v] }

// Prob returns node v's normalized probability under D.
func (c *Chips) Prob(v int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[v]) / float64(c.total)
}

// EnsureN grows the distribution so nodes [0, n) exist; nodes that arrive
// in the stream start with k chips, like the initial nodes, and active.
func (c *Chips) EnsureN(n int) {
	if n <= len(c.counts) {
		return
	}
	c.f.Grow(n)
	for v := len(c.counts); v < n; v++ {
		c.counts = append(c.counts, c.k)
		c.active = append(c.active, true)
		c.total += c.k
		c.f.Add(v, float64(c.k))
	}
}

// SetActive marks node v as (in)eligible for sampling. Inactive nodes keep
// their chips but carry zero sampling weight.
func (c *Chips) SetActive(v int, on bool) {
	if c.active[v] == on {
		return
	}
	c.active[v] = on
	if on {
		c.f.Add(v, float64(c.counts[v]))
	} else {
		c.f.Add(v, -float64(c.counts[v]))
	}
}

// Active reports whether node v is eligible for sampling.
func (c *Chips) Active(v int) bool { return c.active[v] }

// EffectiveWeight returns node v's sampling weight (0 when inactive).
func (c *Chips) EffectiveWeight(v int) float64 {
	if !c.active[v] {
		return 0
	}
	return float64(c.counts[v])
}

// TotalWeight returns the total sampling weight over active nodes.
func (c *Chips) TotalWeight() float64 { return c.f.Total() }

// Move transfers one chip from node `from` to node `to`, refusing (and
// returning false) if it would drop `from` below MinChips or if from == to.
func (c *Chips) Move(from, to int) bool {
	if from == to {
		return false
	}
	if c.counts[from] <= c.MinChips {
		return false
	}
	c.counts[from]--
	c.counts[to]++
	if c.active[from] {
		c.f.Add(from, -1)
	}
	if c.active[to] {
		c.f.Add(to, 1)
	}
	return true
}

// Sample draws a node with probability proportional to its chip count.
func (c *Chips) Sample(rng *rand.Rand) int {
	return c.f.Sample(rng)
}

// SampleFrom draws a node from the conditional distribution D|subset
// (Algorithm 1 line 19), considering only active subset members. It panics
// on an empty subset and returns ok=false when no member is active.
func (c *Chips) SampleFrom(rng *rand.Rand, subset []int) (v int, ok bool) {
	if len(subset) == 0 {
		panic("sampling: SampleFrom with empty subset")
	}
	var total float64
	for _, u := range subset {
		total += c.EffectiveWeight(u)
	}
	if total <= 0 {
		return 0, false
	}
	r := rng.Float64() * total
	for _, u := range subset {
		r -= c.EffectiveWeight(u)
		if r < 0 {
			return u, true
		}
	}
	return subset[len(subset)-1], true
}

// Counts returns a copy of all chip counts (analysis/testing helper).
func (c *Chips) Counts() []int {
	out := make([]int, len(c.counts))
	copy(out, c.counts)
	return out
}

// Restore checks chip counts from a checkpoint and returns the install that
// replaces all counts with them, re-activating every node (activity is
// re-derived from the snapshot on the next step).
func (c *Chips) Restore(counts []int) (func(), error) {
	for v, n := range counts {
		if n < c.MinChips {
			return nil, fmt.Errorf("sampling: restored count %d at node %d below floor %d", n, v, c.MinChips)
		}
	}
	return func() {
		c.counts = append(c.counts[:0], counts...)
		c.active = make([]bool, len(counts))
		c.total = 0
		c.f = NewFenwick(len(counts))
		for v, n := range counts {
			c.active[v] = true
			c.total += n
			c.f.Add(v, float64(n))
		}
	}, nil
}
