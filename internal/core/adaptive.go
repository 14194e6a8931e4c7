package core

import (
	"math"
	"math/rand"

	"streamgnn/internal/sampling"
)

// NodeSampler abstracts GetSampleNode of Algorithm 1: plain chip sampling
// (chipSampler) or graph-KDE sampling (KDESampler, Algorithm 2).
type NodeSampler interface {
	// SampleNode draws the next node to train.
	SampleNode() int
}

// chipSampler draws directly from the chip distribution D.
type chipSampler struct {
	chips *sampling.Chips
	rng   *rand.Rand
}

// SampleNode implements NodeSampler.
func (s *chipSampler) SampleNode() int { return s.chips.Sample(s.rng) }

// AdaptiveLearner is Algorithm 1 (OnlineAdaptiveLearning): it maintains the
// chip distribution D, samples pairs of nodes per training step — favoring
// the update set U with probability p_u — performs each node's training
// partition, and moves chips between winner and loser according to the
// randomized rule whose stationary distribution weights states by e^{u_s}
// (Theorem IV.4).
//
// Step executes in three phases:
//
//  1. Sampling (serial): all 2·PairsPerStep pair nodes are drawn with the
//     learner's rng, then each unit is assigned a private seed from the same
//     rng, and the units' partitions are extracted fresh in unit order.
//  2. Evaluation: the units run as one disjoint-union round against the
//     parameter snapshot θ_t (Trainer.evalRound) — the paper measures
//     temporal utility *before* backpropagation, so utilities are well-defined
//     at θ_t and independent of which units share a round.
//  3. Apply (serial, fixed order): the optimizer steps once on the round's
//     gradient, and the chip moves of lines 8-16 are decided per pair with
//     the learner's rng.
type AdaptiveLearner struct {
	Chips   *sampling.Chips
	Trainer *Trainer

	cfg Config
	rng *rand.Rand
	// sampler is the chipSampler under Weighted; under KDE it is nil until
	// FillSeedWindow draws the seed window from the graph or Restore installs
	// a checkpointed one.
	sampler NodeSampler
	anchors map[int]bool

	// Incremental activity state: genuine[v] mirrors the activity predicate
	// (degree > 0 or anchor) so refreshActivity only reconsiders nodes the
	// graph marked dirty since the previous step. forcedAll notes that the
	// degenerate all-inactive fallback is in effect.
	genuine       []bool
	genuineActive int
	forcedAll     bool
	scanned       bool

	// Step scratch, reused across calls to keep the hot path allocation-free:
	// the sampled pair endpoints, their units' seeds and the step's round,
	// which holds their partitions and outcomes.
	nodes []int
	seeds []int64
	round round

	// Moves counts accepted chip moves (observability/tests).
	Moves int
	// Trained counts executed training partitions.
	Trained int
}

// NewAdaptiveLearner builds Algorithm 1 over the trainer's graph, which may
// still be empty: chips grow with the graph, and graph-KDE sampling draws its
// seed window in FillSeedWindow, the first Step at the latest. strategy
// selects plain chip sampling (Weighted) or graph-KDE sampling (KDE).
func NewAdaptiveLearner(t *Trainer, cfg Config, strategy Strategy, rng *rand.Rand) *AdaptiveLearner {
	chips := sampling.NewChips(t.G.N(), cfg.K)
	a := &AdaptiveLearner{Chips: chips, Trainer: t, cfg: cfg, rng: rng}
	switch strategy {
	case Weighted:
		a.sampler = &chipSampler{chips: chips, rng: rng}
	case KDE: // sampler waits for FillSeedWindow
	default:
		panic("core: AdaptiveLearner requires Weighted or KDE strategy")
	}
	return a
}

// FillSeedWindow draws graph-KDE sampling's seed window (Algorithm 2 line 1)
// from the graph as it is now, unless it is already filled or restored; a
// no-op under Weighted. Step calls it first; a caller whose step mutates the
// graph before training (window expiry) calls it before that, on the graph
// the step started from. Panics on an empty graph.
func (a *AdaptiveLearner) FillSeedWindow() {
	if a.sampler == nil {
		a.sampler = NewKDESampler(a.Trainer.G, a.Chips, a.cfg, a.rng)
	}
}

// KDE returns the graph-KDE sampler, or nil under Weighted and before
// FillSeedWindow or Restore has filled its seed window.
func (a *AdaptiveLearner) KDE() *KDESampler {
	ks, _ := a.sampler.(*KDESampler)
	return ks
}

// Restore checks checkpointed chip counts and a KDE seed window (each when
// non-empty) against the graph, and returns the install of both; the
// learner is unchanged until install runs.
func (a *AdaptiveLearner) Restore(counts, seeds []int, oldest int) (func(), error) {
	var ks *KDESampler
	if len(seeds) > 0 {
		ks = &KDESampler{g: a.Trainer.G, chips: a.Chips, cfg: a.cfg, rng: a.rng}
		if err := ks.RestoreSeedState(seeds, oldest); err != nil {
			return nil, err
		}
	}
	installChips := func() {}
	if len(counts) > 0 {
		var err error
		if installChips, err = a.Chips.Restore(counts); err != nil {
			return nil, err
		}
	}
	return func() {
		installChips()
		if ks != nil {
			a.sampler = ks
		}
	}, nil
}

// getSampleNode is Algorithm 1 lines 17-22: with probability p_u sample
// from D restricted to the update set, otherwise from the sampler.
func (a *AdaptiveLearner) getSampleNode(updated []int) int {
	if len(updated) > 0 && a.rng.Float64() < a.cfg.PUpdate {
		if v, ok := a.Chips.SampleFrom(a.rng, updated); ok {
			return v
		}
	}
	return a.sampler.SampleNode()
}

// refreshActivity aligns sampling eligibility with the current snapshot:
// under a sliding window, nodes whose edges have all expired are not part
// of G_t and are excluded from D until they reconnect. Query anchors stay
// eligible regardless — the workload-aware half of the paper's selective
// training: data relevant to the continuous queries is always worth
// training, even when momentarily quiet.
//
// After the first full scan the refresh is incremental: only nodes the
// graph reports as activity-dirty (degree or attribute changes, including
// window expiry) are reconsidered, so quiet steps on large graphs cost
// O(|dirty|) instead of O(n).
func (a *AdaptiveLearner) refreshActivity() {
	g := a.Trainer.G
	a.Chips.EnsureN(g.N())
	if a.anchors == nil {
		a.anchors = make(map[int]bool)
		if w := a.Trainer.Workload; w != nil {
			for _, q := range w.Queries() {
				for _, v := range q.Anchors {
					a.anchors[v] = true
				}
			}
		}
	}
	if !a.scanned {
		a.scanned = true
		a.genuine = make([]bool, g.N())
		a.genuineActive = 0
		for v := 0; v < g.N(); v++ {
			on := g.Degree(v) > 0 || a.anchors[v]
			a.genuine[v] = on
			if on {
				a.genuineActive++
			}
		}
		g.TakeActivityDirty() // drained: the scan covered everything
		a.applyActivity(nil, true)
		return
	}
	dirty := g.TakeActivityDirty()
	for len(a.genuine) < g.N() {
		// Nodes added since the last refresh are in dirty (AddNode touches);
		// grow the mirror with placeholders settled below.
		a.genuine = append(a.genuine, false)
	}
	for _, v := range dirty {
		on := g.Degree(v) > 0 || a.anchors[v]
		if on != a.genuine[v] {
			a.genuine[v] = on
			if on {
				a.genuineActive++
			} else {
				a.genuineActive--
			}
		}
	}
	a.applyActivity(dirty, false)
}

// applyActivity pushes the genuine mirror into the chip distribution,
// handling the degenerate edgeless snapshot by activating everything.
func (a *AdaptiveLearner) applyActivity(dirty []int, full bool) {
	n := len(a.genuine)
	if a.genuineActive == 0 {
		// Degenerate edgeless snapshot: fall back to sampling everywhere.
		for v := 0; v < n; v++ {
			a.Chips.SetActive(v, true)
		}
		a.forcedAll = true
		return
	}
	if full || a.forcedAll {
		// Leaving the fallback (or first scan): resync every node.
		for v := 0; v < n; v++ {
			a.Chips.SetActive(v, a.genuine[v])
		}
		a.forcedAll = false
		return
	}
	for _, v := range dirty {
		a.Chips.SetActive(v, a.genuine[v])
	}
}

// Step runs one training step (Algorithm 1 lines 2-16): PairsPerStep pairs
// are sampled, their partitions evaluated as one round, one optimizer step
// applied, and chips moved between winner and loser. updated is the set U of
// nodes with new data since the previous step.
func (a *AdaptiveLearner) Step(updated []int) {
	clock := now()
	a.FillSeedWindow()
	a.refreshActivity()
	// Phase 1: sample every pair endpoint, then deal per-unit seeds, all
	// from the learner's rng.
	n := 2 * a.cfg.PairsPerStep
	if cap(a.nodes) < n {
		a.nodes = make([]int, n)
		a.seeds = make([]int64, n)
	}
	nodes, seeds := a.nodes[:n], a.seeds[:n]
	for i := range nodes {
		nodes[i] = a.getSampleNode(updated)
	}
	for i := range seeds {
		seeds[i] = a.rng.Int63()
	}
	stats := &a.Trainer.Stats
	lap(&clock, &stats.SampleNs)
	r := &a.round
	r.reset()
	for i, v := range nodes {
		r.add(a.Trainer.G.Partition(v, a.Trainer.Model.Layers()), seeds[i])
	}
	lap(&clock, &stats.ExtractNs)
	// Phase 2: evaluate all units against the current parameters.
	a.Trainer.evalRound(r, true)
	clear(r.subs) // release the partitions; the next round extracts its own
	// Phase 3: serial chip accounting in pair order, then one optimizer step
	// on the round's summed gradient.
	clock = now()
	units := r.units
	for pair := 0; pair < a.cfg.PairsPerStep; pair++ {
		u1, u2 := units[2*pair], units[2*pair+1]
		if u1.OK {
			a.Trained++
		}
		if u2.OK {
			a.Trained++
		}
		if !u1.OK || !u2.OK {
			continue // no utility signal to compare
		}
		// Lines 8-10: winner has the higher utility; ties favor v2.
		w, l := u2.Node, u1.Node
		uw, ul := u2.Utility, u1.Utility
		if u1.Utility > u2.Utility {
			w, l = u1.Node, u2.Node
			uw, ul = u1.Utility, u2.Utility
		}
		// Lines 11-16.
		kn := float64(a.Chips.Total())
		if a.rng.Float64() < 0.5 {
			if a.Chips.Move(l, w) {
				a.Moves++
			}
		} else if a.rng.Float64() < math.Exp(-(uw-ul)/kn) {
			if a.Chips.Move(w, l) {
				a.Moves++
			}
		}
	}
	lap(&clock, &stats.SampleNs)
	if r.trained {
		a.Trainer.step()
	}
}

// Probabilities returns the current normalized node-weight distribution D.
func (a *AdaptiveLearner) Probabilities() []float64 {
	counts := a.Chips.Counts()
	out := make([]float64, len(counts))
	total := float64(a.Chips.Total())
	for i, c := range counts {
		out[i] = float64(c) / total
	}
	return out
}
