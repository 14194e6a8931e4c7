package core

import (
	"fmt"
	"math/rand"

	"streamgnn/internal/graph"
	"streamgnn/internal/sampling"
)

// KDESampler is Algorithm 2 (GraphKDESampling): it maintains a sliding
// window of w seed nodes — the dynamic sample whose kernels make up the
// graph KDE — picks a seed proportionally to its chips, performs a random
// walk that stops with probability q per hop, and returns the stopping node
// as the sample. With probability p the sample replaces the oldest seed;
// otherwise a uniformly random node does (the "teleport" of line 12, which
// keeps the seed set from collapsing into one dense region).
type KDESampler struct {
	g     *graph.Dynamic
	chips *sampling.Chips
	cfg   Config
	rng   *rand.Rand

	seeds  []int // FIFO ring: oldest at head
	oldest int

	// Walks and WalkHops count random walks and their total hop length
	// (observability: mean hops ≈ (1-q)/q).
	Walks    int
	WalkHops int
}

// NewKDESampler initializes the seed window with w uniform nodes
// (Algorithm 2 line 1), preferring connected nodes.
func NewKDESampler(g *graph.Dynamic, chips *sampling.Chips, cfg Config, rng *rand.Rand) *KDESampler {
	if g.N() == 0 {
		panic("core: KDESampler needs a non-empty graph")
	}
	s := &KDESampler{g: g, chips: chips, cfg: cfg, rng: rng}
	for i := 0; i < cfg.Seeds; i++ {
		s.seeds = append(s.seeds, s.teleportNode())
	}
	return s
}

// teleportNode draws a uniform node, retrying a few times to find one that
// is part of the current snapshot (has edges).
func (s *KDESampler) teleportNode() int {
	v := s.rng.Intn(s.g.N())
	for try := 0; try < 8 && s.g.Degree(v) == 0; try++ {
		v = s.rng.Intn(s.g.N())
	}
	return v
}

// Seeds returns a copy of the current seed window.
func (s *KDESampler) Seeds() []int {
	out := make([]int, len(s.seeds))
	copy(out, s.seeds)
	return out
}

// SeedState returns the seed window and its FIFO cursor for checkpointing.
func (s *KDESampler) SeedState() (seeds []int, oldest int) {
	return s.Seeds(), s.oldest
}

// RestoreSeedState restores a window captured with SeedState, so a resumed
// run continues the exact sampling trajectory of the saved run. On error the
// window is unchanged.
func (s *KDESampler) RestoreSeedState(seeds []int, oldest int) error {
	if len(seeds) == 0 {
		return fmt.Errorf("core: empty KDE seed window")
	}
	if oldest < 0 || oldest >= len(seeds) {
		return fmt.Errorf("core: KDE seed cursor %d out of range [0,%d)", oldest, len(seeds))
	}
	for _, v := range seeds {
		if v < 0 || v >= s.g.N() {
			return fmt.Errorf("core: KDE seed %d outside graph of %d nodes", v, s.g.N())
		}
	}
	s.seeds = append(s.seeds[:0], seeds...)
	s.oldest = oldest
	return nil
}

// SampleNode implements NodeSampler: one iteration of Algorithm 2's loop
// (lines 3-12), expected time O(1/q).
func (s *KDESampler) SampleNode() int {
	// Line 3: pick a seed proportionally to its chip weight.
	cur := s.pickSeed()
	// Lines 4-8: random walk with stop probability q per node.
	s.Walks++
	for s.rng.Float64() >= s.cfg.StopProb {
		next, ok := s.randomNeighbor(cur)
		if !ok {
			break // isolated node: the walk must stop here
		}
		cur = next
		s.WalkHops++
	}
	// Lines 9-12: slide the seed window. A node that is already a seed
	// would shrink the window's support (repeated re-insertion can collapse
	// every seed onto one node), so the window is kept duplicate-free:
	// duplicate candidates teleport, and if even the teleports collide the
	// old seed is kept.
	replacement := cur
	if s.cfg.Teleport && s.rng.Float64() >= s.cfg.SeedKeep {
		replacement = s.teleportNode()
	}
	for try := 0; try < 8 && s.contains(replacement); try++ {
		replacement = s.teleportNode()
	}
	if !s.contains(replacement) {
		s.seeds[s.oldest] = replacement
		s.oldest = (s.oldest + 1) % len(s.seeds)
	}
	return cur
}

func (s *KDESampler) contains(v int) bool {
	for _, u := range s.seeds {
		if u == v {
			return true
		}
	}
	return false
}

func (s *KDESampler) pickSeed() int {
	s.chips.EnsureN(s.g.N())
	var total float64
	for _, v := range s.seeds {
		total += s.chips.EffectiveWeight(v)
	}
	if total <= 0 {
		// No seed is part of the current snapshot; restart the window.
		for i := range s.seeds {
			s.seeds[i] = s.teleportNode()
		}
		return s.seeds[s.rng.Intn(len(s.seeds))]
	}
	r := s.rng.Float64() * total
	for _, v := range s.seeds {
		r -= s.chips.EffectiveWeight(v)
		if r < 0 {
			return v
		}
	}
	return s.seeds[len(s.seeds)-1]
}

// randomNeighbor picks a uniform neighbor over v's in- and out-edges.
func (s *KDESampler) randomNeighbor(v int) (int, bool) {
	out := s.g.OutEdges(v)
	in := s.g.InEdges(v)
	d := len(out) + len(in)
	if d == 0 {
		return 0, false
	}
	i := s.rng.Intn(d)
	if i < len(out) {
		return out[i].To, true
	}
	return in[i-len(out)].To, true
}
