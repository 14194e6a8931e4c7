package core

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/query"
	"streamgnn/internal/rng"
	"streamgnn/internal/tensor"
)

// Trainer executes units of training work: either one node's partition
// (Section III-C) or a full-graph pass (the Full/Uniform baseline). Each
// unit combines the two training parts of Section III-B — self-supervised
// targets from the graph's node/edge labels and supervised targets from the
// analytics workload's revealed query results — and returns the *temporal
// utility* of the unit: the training loss measured before backpropagation
// (the sample-hardness utility of Section IV-A).
type Trainer struct {
	// Stats counts training material consumed (observability). It leads the
	// struct so its int64 counters sit at 8-byte offsets even under 32-bit
	// layout rules: sync/atomic's 64-bit operations fault on 386/arm when the
	// word is not 8-byte aligned, and only the start of an allocation is
	// guaranteed to be.
	Stats TrainerStats

	Model    dgnn.Model
	Workload *query.Workload
	// Heads are the prediction heads the loss trains: Workload.Heads() unless
	// the caller trains a copy of them (the engine's learner does).
	Heads *query.Heads
	Opt   autodiff.Optimizer
	G     *graph.Dynamic

	SelfWeight float64
	SupWeight  float64
	// ReplaySize is the minibatch of revealed (embedding, truth) pairs
	// added to every partition's supervised loss. Replay trains only the
	// prediction heads (the cached embeddings are constants), curing the
	// catastrophic interference of single-target online head updates at a
	// cost independent of graph size.
	ReplaySize int
	// Negatives resolves the link negatives a round draws to their rows of
	// the step's inference embeddings; the caller sets it for each training
	// step of a link workload. nil draws none.
	Negatives EmbeddingRows

	rng *rand.Rand
	// own is the round of TrainFull.
	own round
	// tape records every training forward of Model; finish releases it for
	// the next. A recycled tape brings back its node shells and scratch slices
	// (see autodiff.Tape), so a warm round allocates little beyond its op
	// outputs' headers.
	tape *autodiff.Tape
	// twin evaluates the second half of a round of two or more pairs beside
	// the first (evalHalves); the first such round builds it (twinLearner).
	// twinParams lists its parameters as Opt.Params() lists the trainer's.
	twin       learner
	twinParams []*autodiff.Node
}

// learner is what one half of a round runs on: a model, its heads and a tape.
type learner struct {
	model dgnn.Model
	heads *query.Heads
	tape  *autodiff.Tape
}

// TrainerStats counts the training targets consumed so far and accounts for
// the rounds that consumed them. Fields are updated atomically: Telemetry()
// readers run concurrently with the learner.
type TrainerStats struct {
	SelfNodeTargets int64
	SelfEdgeTargets int64
	SupNodeTargets  int64
	SupPairTargets  int64
	ReplayTargets   int64

	// Rounds counts union evaluations, Units the partitions in them,
	// UnionRows the stacked rows their forwards ran on and WantRows the rows
	// their losses read; a full-graph pass is a round of one unit.
	Rounds, Units, UnionRows, WantRows int64
	// Where a round's time goes, in nanoseconds summed over rounds: node
	// sampling and chip moves, partition extraction plus the union build,
	// the forward, material and loss, the backward, the optimizer step.
	SampleNs, ExtractNs, ForwardNs, LossNs, BackwardNs, OptimizerNs int64
}

// NewTrainer wires a trainer; opt must manage both model and head params.
func NewTrainer(g *graph.Dynamic, m dgnn.Model, w *query.Workload, opt autodiff.Optimizer, cfg Config, rng *rand.Rand) *Trainer {
	return &Trainer{
		Model:      m,
		Workload:   w,
		Heads:      w.Heads(),
		Opt:        opt,
		G:          g,
		SelfWeight: cfg.SelfWeight,
		SupWeight:  cfg.SupWeight,
		ReplaySize: cfg.ReplaySize,
		rng:        rng,
		tape:       autodiff.NewTape(),
	}
}

// twinLearner returns the twin, building it on first use: a trainer whose
// rounds never split (one pair a round, TrainFull) holds no second model.
func (t *Trainer) twinLearner() *learner {
	if t.twin.model == nil {
		t.twin = learner{dgnn.NewLearner(t.Model, t.G.FeatDim()), t.Heads.Clone(), autodiff.NewTape()}
		t.twinParams = append(t.twin.model.Params(), t.twin.heads.Params()...)
	}
	return &t.twin
}

// Unit is one training partition's outcome in a round: whether it had any
// training material and, if so, its temporal utility — the loss at the round's
// parameters, before backpropagation (Section IV-A).
type Unit struct {
	Node    int
	Utility float64
	OK      bool
}

// round is a step's training units — the partitions subs, their rng seeds
// and, after evalRound, their outcomes — plus the scratch one evaluation of
// them reuses: each half's union and material, the negatives and the units'
// rng. Every slice grows to a high-water mark, so a warm round allocates
// little beyond its tapes' op outputs.
type round struct {
	subs  []*graph.Subgraph
	seeds []int64
	units []Unit
	// trained reports whether any unit of the last evaluation had material.
	trained bool

	// halves[0] holds the units the trainer's own learner evaluates,
	// halves[1] those its twin does; TrainFull uses the first alone.
	halves [2]half
	// negIDs and negRows are the link negatives of both halves, resolved
	// together.
	negIDs  []int
	negRows []float64
	// src seeds rnd afresh for each unit (O(1): the standard lagged-Fibonacci
	// source pays a ~600-word initialization per seed), so which units share
	// a round cannot perturb a unit's sampled replay batches and negatives.
	src rng.SplitMix64
	rnd *rand.Rand
}

// half is the scratch of one half of a round: its units' disjoint union,
// their stacked material and the rows that material reads (the forward's
// View.Out, ascending).
type half struct {
	union graph.Union
	mat   material
	want  []int
}

// reset empties the round's units, keeping its scratch.
func (r *round) reset() {
	clear(r.subs) // release the partitions; a round extracts its own
	r.subs, r.seeds, r.units = r.subs[:0], r.seeds[:0], r.units[:0]
}

// add appends the partition sub, whose unit draws from an rng seeded with seed.
func (r *round) add(sub *graph.Subgraph, seed int64) {
	r.subs = append(r.subs, sub)
	r.seeds = append(r.seeds, seed)
	r.units = append(r.units, Unit{Node: sub.Nodes[sub.Center]})
}

// now reads the wall clock, for the round accounting alone.
func now() time.Time {
	return time.Now() //streamlint:ordered-ok round-accounting telemetry; the timestamp never feeds computation
}

// lap adds the time since *last to the counter *dst and restarts the clock;
// a nil clock (the twin's half of a round) times nothing.
func lap(last *time.Time, dst *int64) {
	if last == nil {
		return
	}
	t := now()
	atomic.AddInt64(dst, int64(t.Sub(*last)))
	*last = t
}

// forward runs l's model over view on l's tape, on the round's clock, for
// the rows h's material reads (nil, with no forward, if none): the view's
// Out. The material keeps naming the view's rows: the loss's gathers find
// them among the rows the forward returns.
func (t *Trainer) forward(l *learner, view dgnn.View, h *half, clock *time.Time) *autodiff.Node {
	view.NoCommit = true // recurrent state advances only at inference time
	h.want = h.want[:0]
	for k := range h.mat {
		h.want = append(append(h.want, h.mat[k].src...), h.mat[k].dst...)
	}
	slices.Sort(h.want)
	h.want = slices.Compact(h.want)
	view.Out = h.want
	atomic.AddInt64(&t.Stats.WantRows, int64(len(view.Out)))
	if len(view.Out) == 0 {
		return nil
	}
	lap(clock, &t.Stats.ExtractNs)
	emb := l.model.Forward(l.tape, view)
	lap(clock, &t.Stats.ForwardNs)
	atomic.AddInt64(&t.Stats.UnionRows, int64(view.N))
	return emb
}

// evalRound is the one way training partitions are evaluated: per half of
// the round, ONE forward over its units' disjoint union, one stacked loss
// whose terms reduce per unit (buildLoss) and — when apply is set — one
// backward from the sum of the units' losses into the parameters' gradients.
// Algorithm 1 evaluates every partition of a round at the same θ_t and steps
// once on the summed gradient, so nothing orders the units; the union saves
// the per-op cost of a tape per unit for products of ten rows, and a round of
// two or more pairs runs its second half beside the first, on the twin
// (firstHalf, evalHalves).
//
// r.units[i] receives unit i's outcome. Forward rows, and so utilities, are
// bit-equal to evaluating each unit alone; parameter gradients are the same
// terms summed inside one product per half over its stacked rows, the second
// half's added into the first's (DESIGN.md §18). The material comes first, so
// the forward computes the rows it reads (forward); the negatives every unit
// drew are resolved with one call of t.Negatives. Each unit draws from its
// own rng seeded with r.seeds[i]. Evaluation writes no model or graph state
// (NoCommit forward).
func (t *Trainer) evalRound(r *round, apply bool) {
	t.evalHalves(r, firstHalf(len(r.subs)), apply)
}

// firstHalf returns how many of a round's n units its first half holds: the
// units of its first ⌈P/2⌉ pairs, P = n/2, or all n when n is at most one
// pair. A round of one pair keeps a single half: splitting it buys no second
// core's worth of work and costs the twin's pass (DESIGN.md §18).
func firstHalf(n int) int {
	if n <= 2 {
		return n
	}
	return 2 * ((n + 2) / 4)
}

// evalHalves evaluates r's first cut units on the trainer's learner and the
// rest, if any, on its twin, on a goroutine that ends before evalHalves
// returns. The twin starts from the learner's values; its gradient, summed
// from +0 over its own rows, is added into the learner's at the join, so the
// bits do not depend on how the halves are scheduled. The round's part timers
// run on the caller's clock alone, the wait at the join in the backward's.
func (t *Trainer) evalHalves(r *round, cut int, apply bool) {
	clock := now()
	// Half h holds units ends[h] to ends[h+1]; the second runs if it holds any.
	ends := [3]int{0, cut, len(r.subs)}
	halves := r.halves[:min(2, 1+len(r.subs)-cut)]
	for h := range halves {
		halves[h].union.Build(r.subs[ends[h]:ends[h+1]])
	}
	lap(&clock, &t.Stats.ExtractNs)
	if r.rnd == nil {
		r.rnd = rand.New(&r.src)
	}
	r.negIDs = r.negIDs[:0]
	for h := range halves {
		hf := &halves[h]
		hf.mat.reset()
		for i := ends[h]; i < ends[h+1]; i++ {
			r.src.Seed(r.seeds[i])
			t.partitionMaterial(&hf.mat, r.subs[i], hf.union.Offsets[i-ends[h]], r.rnd)
			r.units[i].OK = hf.mat.closeUnit()
		}
		r.negIDs = append(r.negIDs, hf.mat[termLinkNeg].ids...)
	}
	if len(r.negIDs) > 0 {
		r.negRows = t.Negatives.AppendRows(r.negRows[:0], r.negIDs)
		width, at := len(r.negRows)/len(r.negIDs), 0
		for h := range halves {
			neg := &halves[h].mat[termLinkNeg]
			end := at + width*len(neg.ids)
			neg.rows, at = r.negRows[at:end:end], end
		}
	}
	lap(&clock, &t.Stats.LossNs)
	run := func(l *learner, h int, clock *time.Time) bool {
		hf := &halves[h]
		emb := t.forward(l, dgnn.UnionView(&hf.union), hf, clock)
		return t.finish(l, emb, &hf.mat, r.units[ends[h]:ends[h+1]], apply, clock)
	}
	first := learner{t.Model, t.Heads, t.tape}
	if len(halves) == 1 {
		r.trained = run(&first, 0, &clock)
	} else {
		twin := t.twinLearner()
		autodiff.CopyValues(t.twinParams, t.Opt.Params())
		second := make(chan bool)
		go func() { second <- run(twin, 1, nil) }()
		r.trained = run(&first, 0, &clock)
		r.trained = <-second || r.trained
		if apply {
			autodiff.AddGrads(t.Opt.Params(), t.twinParams)
		}
		lap(&clock, &t.Stats.BackwardNs)
	}
	atomic.AddInt64(&t.Stats.Rounds, 1)
	atomic.AddInt64(&t.Stats.Units, int64(len(r.units)))
}

// finish builds l's stacked loss of m over emb, planned so that its row-local
// head ops write in place, reads each unit's utility off it, backpropagates
// when apply is set, and releases l's tape.
func (t *Trainer) finish(l *learner, emb *autodiff.Node, m *material, units []Unit, apply bool, clock *time.Time) bool {
	tp := l.tape
	tp.Plan()
	total := t.buildLoss(tp, l.heads, emb, m)
	trained := total != nil
	if trained {
		total = tp.Run(total, nil)
		for i := range units {
			if units[i].OK {
				units[i].Utility = total.Value.Data[i]
			}
		}
	}
	lap(clock, &t.Stats.LossNs)
	if trained && apply {
		tp.Backward(tp.Sum(total))
	}
	tp.Release()
	lap(clock, &t.Stats.BackwardNs)
	return trained
}

// step applies the accumulated gradient with one optimizer step.
func (t *Trainer) step() {
	start := now()
	t.Opt.Step()
	lap(&start, &t.Stats.OptimizerNs)
}

// TrainFull performs one full-graph training pass (the baseline) and
// returns its loss before backpropagation: the same stacked loss with the
// whole snapshot as its one segment.
func (t *Trainer) TrainFull() (loss float64, trained bool) {
	clock := now()
	h := &t.own.halves[0]
	h.mat.reset()
	t.fullMaterial(&h.mat)
	unit := [1]Unit{{OK: h.mat.closeUnit()}}
	lap(&clock, &t.Stats.LossNs)
	l := learner{t.Model, t.Heads, t.tape}
	emb := t.forward(&l, dgnn.FullView(t.G), h, &clock)
	trained = t.finish(&l, emb, &h.mat, unit[:], true, &clock)
	atomic.AddInt64(&t.Stats.Rounds, 1)
	atomic.AddInt64(&t.Stats.Units, 1)
	if trained {
		t.step()
	}
	return unit[0].Utility, unit[0].OK
}

// The loss terms of a training unit, in the order they are summed into its
// utility.
const (
	termSelfNode   = iota // node label at the center, SelfNode head
	termSelfEdge          // labels of the center's edges, SelfEdge head
	termSupNode           // revealed query targets, Event head
	termSupPair           // labeled link pairs and the center's live edges, Link head
	termLinkNeg           // the center against global negative samples, Link head
	termReplay            // replayed (embedding, truth) reveals, Event head
	termLinkReplay        // replayed pair examples, Link head
	numTerms
)

// term is one loss term's material for a whole round, unit after unit. src
// (and dst, for pair terms) are embedding rows of the round's forward; rows
// are constant head-input rows, flattened (the negatives' detached embeddings,
// replayed examples). ids are the nodes whose inference rows rows receives once
// the round's material is drawn (the negatives; see evalRound). Unit u's
// targets end at ends[u].
type term struct {
	src, dst []int
	ids      []int
	rows     []float64
	targets  []float64
	ends     []int
}

func (tm *term) node(row int, target float64) {
	tm.src = append(tm.src, row)
	tm.targets = append(tm.targets, target)
}

func (tm *term) pair(src, dst int, target float64) {
	tm.dst = append(tm.dst, dst)
	tm.node(src, target)
}

// constant wraps the term's constant rows as a head input.
func (tm *term) constant() *autodiff.Node {
	return autodiff.Constant(tensor.FromSlice(len(tm.targets), len(tm.rows)/len(tm.targets), tm.rows))
}

// material is the training signal of a round: one stacked term per kind.
type material [numTerms]term

func (m *material) reset() {
	for k := range m {
		tm := &m[k]
		tm.src, tm.dst, tm.ids, tm.rows, tm.targets, tm.ends = tm.src[:0], tm.dst[:0], tm.ids[:0], tm.rows[:0], tm.targets[:0], tm.ends[:0]
	}
}

// closeUnit ends the current unit's segment in every term and reports whether
// any of them holds a target of it.
func (m *material) closeUnit() (ok bool) {
	for k := range m {
		tm := &m[k]
		prev := 0
		if len(tm.ends) > 0 {
			prev = tm.ends[len(tm.ends)-1]
		}
		ok = ok || len(tm.targets) > prev
		tm.ends = append(tm.ends, len(tm.targets))
	}
	return ok
}

// partitionMaterial appends the training targets of the partition sub, whose
// rows start at row off of the round's forward, per Section III-C:
// self-supervision from the center v itself and its incident labeled edges (the
// partition's own share of the self-supervised work), supervised query
// targets from every anchor inside G_v (the queries whose relevant data
// overlaps the partition), and the replay minibatches. rng is the unit's
// source for negative sampling and replay, drawn in that order.
func (t *Trainer) partitionMaterial(m *material, sub *graph.Subgraph, off int, rng *rand.Rand) {
	center := sub.Center
	v := sub.Nodes[center]
	if y, ok := t.G.Label(v); ok {
		m[termSelfNode].node(off+center, y)
	}
	// The labeled edges inside sub that touch the center, in sub's row order.
	for li, u := range sub.Nodes {
		for _, e := range t.G.OutEdges(u) {
			switch {
			case !e.HasLabel():
			case li == center:
				if lj := sub.LocalID(e.To); lj >= 0 {
					m[termSelfEdge].pair(off+li, off+lj, e.Label)
				}
			case e.To == v:
				m[termSelfEdge].pair(off+li, off+center, e.Label)
			}
		}
	}
	sup := t.Workload.Supervision(sub, rng)
	for i, row := range sup.NodeRows {
		m[termSupNode].node(off+row, sup.NodeTargets[i])
	}
	pairs := &m[termSupPair]
	for i := range sup.PairSrc {
		pairs.pair(off+sup.PairSrc[i], off+sup.PairDst[i], sup.PairLabels[i])
	}
	lt := t.Workload.LinkTask()
	if lt != nil && sub.N() > 2 {
		// Structural self-supervision for link workloads (Section III-B:
		// "predicting chosen nodes/links in the network"): the center's
		// current edges are positives, each neighbor once, up to 8. Negatives
		// pair the center with *global* random nodes (their embeddings taken,
		// detached, from the last inference): partitions are community-local,
		// so in-partition negatives would cancel the community signal that
		// link ranking needs. They are drawn here and their rows resolved
		// once per round (evalRound).
		first := len(pairs.dst)
		for _, e := range t.G.OutEdges(v) {
			li := sub.LocalID(e.To)
			if li < 0 || li == center || slices.Contains(pairs.dst[first:], off+li) {
				continue
			}
			pairs.pair(off+center, off+li, 1)
			if len(pairs.dst)-first >= 8 {
				break
			}
		}
		count := len(pairs.dst) - first
		if t.Negatives != nil && count > 0 {
			if n := t.Negatives.N(); n > 1 {
				neg := &m[termLinkNeg]
				for k := 0; k < 2*count; k++ {
					nv := rng.Intn(n)
					if nv == v {
						continue
					}
					neg.ids = append(neg.ids, nv)
					neg.node(off+center, 0)
				}
			}
		}
	}
	// Replay trains only the heads, on constants: see ReplaySize.
	if t.ReplaySize > 0 {
		re := &m[termReplay]
		re.rows, re.targets = t.Workload.AppendReplay(rng, t.ReplaySize, re.rows, re.targets)
		if lt != nil {
			lr := &m[termLinkReplay]
			lr.rows, lr.targets = lt.AppendReplay(rng, t.ReplaySize, lr.rows, lr.targets)
		}
	}
}

// fullMaterial appends the whole snapshot's training targets as one unit:
// every node and edge label, every revealed target and labeled pair.
func (t *Trainer) fullMaterial(m *material) {
	g := t.G
	for v := 0; v < g.N(); v++ {
		if y, ok := g.Label(v); ok {
			m[termSelfNode].node(v, y)
		}
		for _, e := range g.OutEdges(v) {
			if e.HasLabel() {
				m[termSelfEdge].pair(v, e.To, e.Label)
			}
		}
	}
	sup := t.Workload.SupervisionFull(g.N())
	for i, row := range sup.NodeRows {
		m[termSupNode].node(row, sup.NodeTargets[i])
	}
	for i := range sup.PairSrc {
		m[termSupPair].pair(sup.PairSrc[i], sup.PairDst[i], sup.PairLabels[i])
	}
}

// buildLoss assembles the weighted training loss of the round over emb with
// heads: per
// term kind the units' rows are one head application and one segmented loss,
// a column of per-unit means; the weighted columns add up, in term order, to
// the column of the units' losses. A unit without a target in some term reads
// +0 there, which changes no sum, so entry u is bit for bit the loss unit u's
// terms alone add up to — its temporal utility. It returns nil when the round
// has no target at all.
func (t *Trainer) buildLoss(tp *autodiff.Tape, heads *query.Heads, emb *autodiff.Node, m *material) *autodiff.Node {
	var total *autodiff.Node
	for k := range m {
		tm := &m[k]
		if len(tm.targets) == 0 {
			continue
		}
		n := int64(len(tm.targets))
		head, weight := heads.Event, t.SupWeight
		var in *autodiff.Node
		switch k {
		case termSelfNode:
			head, weight = heads.SelfNode, t.SelfWeight
			in = tp.GatherRows(emb, tm.src)
			atomic.AddInt64(&t.Stats.SelfNodeTargets, n)
		case termSelfEdge:
			head, weight = heads.SelfEdge, t.SelfWeight
			in = query.PairInput(tp, emb, tm.src, tm.dst)
			atomic.AddInt64(&t.Stats.SelfEdgeTargets, n)
		case termSupNode:
			in = tp.GatherRows(emb, tm.src)
			atomic.AddInt64(&t.Stats.SupNodeTargets, n)
		case termSupPair:
			head = heads.Link
			in = query.PairInput(tp, emb, tm.src, tm.dst)
			atomic.AddInt64(&t.Stats.SupPairTargets, n)
		case termLinkNeg:
			head, weight = heads.Link, t.SelfWeight
			c, neg := tp.GatherRows(emb, tm.src), tm.constant()
			in = tp.ConcatCols(tp.ConcatCols(c, neg), tp.Mul(c, neg))
			atomic.AddInt64(&t.Stats.SelfEdgeTargets, n)
		case termReplay, termLinkReplay:
			if k == termLinkReplay {
				head = heads.Link
			}
			in = tm.constant()
			atomic.AddInt64(&t.Stats.ReplayTargets, n)
		}
		pred := head.Apply(tp, in)
		var col *autodiff.Node
		if head == heads.Link {
			col = tp.BCESeg(pred, colVec(tm.targets), tm.ends)
		} else {
			col = tp.MSESeg(pred, colVec(tm.targets), tm.ends)
		}
		if weight != 1 {
			col = tp.Scale(col, weight)
		}
		if total == nil {
			total = col
		} else {
			total = tp.Add(total, col)
		}
	}
	return total
}

// colVec wraps vals as a column, sharing their storage.
func colVec(vals []float64) *tensor.Matrix {
	return tensor.FromSlice(len(vals), 1, vals)
}
