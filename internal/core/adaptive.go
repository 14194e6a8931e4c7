package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
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
//     rng, and the units' partitions are extracted in unit order (so the
//     partition cache warms in the same order on every run).
//  2. Evaluation: the units run as one disjoint-union round against the
//     parameter snapshot θ_t (Trainer.evalRound) — the paper measures
//     temporal utility *before* backpropagation, so utilities are well-defined
//     at θ_t and independent of which units share a round. Under
//     DependencySchedule each conflict group is a round of its own with its
//     own gradient sink, and the groups run on the worker pool.
//  3. Apply (serial, fixed order): group sinks are merged in group order, the
//     optimizer steps once on the summed gradient, and the chip moves of
//     lines 8-16 are decided per pair with the learner's rng.
//
// Nothing observable depends on Workers: a seeded run is bit-identical for
// every worker count.
type AdaptiveLearner struct {
	// ParallelUnits counts units evaluated on worker goroutines: conflict
	// groups fanned out under DependencySchedule with Workers > 1, 0 otherwise
	// (observability for streamgnn.Stats). Like every counter in this block it
	// is written with sync/atomic — Telemetry() readers run concurrently with
	// Step — and leads the struct so the int64s stay 8-aligned on 386.
	ParallelUnits int64
	// Dependency-schedule counters (observability for streamgnn.Stats and
	// telemetry): steps scheduled, conflict groups formed, units scheduled,
	// and steps whose units all collapsed into a single group (the serial
	// degenerate case on hub-heavy graphs).
	SchedSteps     int64
	SchedGroups    int64
	SchedUnits     int64
	SchedCollapsed int64

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
	// the step's units, their partitions, and all — the unit indices 0..n-1,
	// the one chunk of an unscheduled step.
	units []Unit
	nodes []int
	seeds []int64
	subs  []*graph.Subgraph
	all   []int

	// rounds[c] is chunk c's evaluation scratch and sinks[c] its gradient
	// sink: one chunk per step, or one per conflict group under
	// cfg.DependencySchedule, whose builder's buffers are conflict. The
	// grouping, and the group order the sinks are merged in, depend only on
	// the sampled units and the graph, so the optimizer input is independent
	// of worker count and timing.
	rounds   []*round
	sinks    []*autodiff.GradSink
	conflict conflictScratch

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
	chips.MinChips = cfg.MinChips
	a := &AdaptiveLearner{Chips: chips, Trainer: t, cfg: cfg, rng: rng, rounds: []*round{new(round)}}
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
// are sampled, their partitions evaluated as one round (one per conflict
// group under cfg.DependencySchedule), one optimizer step applied, and chips
// moved between winner and loser. updated is the set U of nodes with new data
// since the previous step.
func (a *AdaptiveLearner) Step(updated []int) {
	clock := now()
	a.FillSeedWindow()
	a.refreshActivity()
	// Phase 1: sample every pair endpoint, then deal per-unit seeds, all
	// from the learner's rng so the stream is worker-count independent.
	n := 2 * a.cfg.PairsPerStep
	if cap(a.units) < n {
		a.units = make([]Unit, n)
		a.nodes = make([]int, n)
		a.seeds = make([]int64, n)
		a.subs = make([]*graph.Subgraph, n)
		a.all = make([]int, n)
		for i := range a.all {
			a.all[i] = i
		}
	}
	units, nodes, seeds, subs := a.units[:n], a.nodes[:n], a.seeds[:n], a.subs[:n]
	for i := range nodes {
		nodes[i] = a.getSampleNode(updated)
	}
	for i := range seeds {
		seeds[i] = a.rng.Int63()
	}
	stats := &a.Trainer.Stats
	lap(&clock, &stats.SampleNs)
	for i, v := range nodes {
		subs[i] = a.Trainer.G.Partition(v, a.Trainer.Model.Layers())
	}
	lap(&clock, &stats.ExtractNs)
	// Phase 2: evaluate all units against the current parameters.
	var trained bool
	if a.cfg.DependencySchedule {
		trained = a.runScheduled()
	} else {
		trained = a.runChunk(0, a.all[:n], nil)
	}
	clear(subs) // the partition cache owns the partitions
	// Phase 3: serial chip accounting in pair order, then one optimizer step
	// on the round's summed gradient.
	clock = now()
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
	if trained {
		a.Trainer.step()
	}
}

// runChunk evaluates the units idx (ascending unit indices) as round c:
// forward, loss and backward over their disjoint union, gradients into sink
// (nil: the parameters' own). It reports whether any unit had material.
func (a *AdaptiveLearner) runChunk(c int, idx []int, sink *autodiff.GradSink) bool {
	r := a.rounds[c]
	r.reset()
	for _, i := range idx {
		r.add(a.subs[i], a.seeds[i])
	}
	a.Trainer.evalRound(r, sink, true)
	for k, i := range idx {
		a.units[i] = r.units[k]
	}
	return r.trained
}

// runScheduled is phase 2 under the dependency schedule: partition the
// step's units into conflict groups (units whose L-hop receptive fields
// intersect, closed transitively) and run each group as a round of its own,
// gradients into the group's private sink, whole groups concurrently on the
// worker pool. The sinks are then merged in group order.
//
// Determinism: the conflict build reads only the sampled units and the
// graph; a group's round writes only its own scratch, sink, units and tape;
// and the merge order is the group order. Nothing observable depends on
// worker count or goroutine timing, so seeded runs are bit-identical for
// every Workers value — and since a round's cost is per-op dispatch its union
// already amortises, there is little left for the workers to win.
func (a *AdaptiveLearner) runScheduled() bool {
	n := len(a.units)
	offsets, order, numGroups := a.conflict.build(a.subs[:n], a.Trainer.G.N())
	for len(a.rounds) < numGroups {
		a.rounds = append(a.rounds, new(round))
	}
	for len(a.sinks) < numGroups {
		a.sinks = append(a.sinks, autodiff.NewGradSink())
	}
	runGroup := func(g int) {
		a.sinks[g].Reset()
		a.runChunk(g, order[offsets[g]:offsets[g+1]], a.sinks[g])
	}
	if workers := min(a.cfg.Workers, numGroups); workers <= 1 {
		for g := 0; g < numGroups; g++ {
			runGroup(g)
		}
	} else {
		var cursor int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					g := int(atomic.AddInt64(&cursor, 1))
					if g >= numGroups {
						return
					}
					runGroup(g)
				}
			}()
		}
		wg.Wait()
		atomic.AddInt64(&a.ParallelUnits, int64(n))
	}
	trained := false
	params := a.Trainer.Opt.Params()
	for g := 0; g < numGroups; g++ {
		if a.rounds[g].trained {
			a.sinks[g].MergeInto(params)
			trained = true
		}
	}
	atomic.AddInt64(&a.SchedSteps, 1)
	atomic.AddInt64(&a.SchedGroups, int64(numGroups))
	atomic.AddInt64(&a.SchedUnits, int64(n))
	if numGroups == 1 && n > 1 {
		atomic.AddInt64(&a.SchedCollapsed, 1)
	}
	return trained
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
