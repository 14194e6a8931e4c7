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

	rng *rand.Rand
	// own is the round of TrainPartition, EvalPartition and TrainFull.
	own round
	// tape records every training forward; finish releases it for the next.
	// A recycled tape brings back its node shells and scratch slices (see
	// autodiff.Tape), so a warm round allocates little beyond its op outputs'
	// headers.
	tape *autodiff.Tape
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
// them reuses: the union's arrays, the stacked material and the units' rng.
// Every slice grows to a high-water mark, so a warm round allocates little
// beyond its tape's op outputs.
type round struct {
	subs  []*graph.Subgraph
	seeds []int64
	units []Unit
	// trained reports whether any unit of the last evaluation had material.
	trained bool

	union graph.Union
	mat   material
	// want is the ascending rows the material reads, the forward's View.Want.
	want []int
	// src seeds rnd afresh for each unit (O(1): the standard lagged-Fibonacci
	// source pays a ~600-word initialization per seed), so which units share
	// a round cannot perturb a unit's sampled replay batches and negatives.
	src rng.SplitMix64
	rnd *rand.Rand
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

// lap adds the time since *last to the counter *dst and restarts the clock.
func lap(last *time.Time, dst *int64) {
	t := now()
	atomic.AddInt64(dst, int64(t.Sub(*last)))
	*last = t
}

// forward runs the model over view on the trainer's tape, on the round's
// clock, for the rows r's material reads (nil, with no forward, if none): it
// passes them as View.Want and, if the model returns those rows alone,
// renumbers the material's rows to their positions among them.
func (t *Trainer) forward(view dgnn.View, r *round, clock *time.Time) *autodiff.Node {
	view.NoCommit = true // recurrent state advances only at inference time
	view.Want = r.rowsRead()
	atomic.AddInt64(&t.Stats.WantRows, int64(len(view.Want)))
	if len(view.Want) == 0 {
		return nil
	}
	tp := t.tape
	view.OwnFeat(tp)
	lap(clock, &t.Stats.ExtractNs)
	emb := t.Model.Forward(tp, view)
	lap(clock, &t.Stats.ForwardNs)
	atomic.AddInt64(&t.Stats.UnionRows, int64(view.N))
	if emb.Value.Rows < view.N {
		r.mat.renumber(view.Want)
	}
	return emb
}

// rowsRead returns r.want, the ascending rows the material's terms read.
func (r *round) rowsRead() []int {
	want := r.want[:0]
	for k := range r.mat {
		want = append(append(want, r.mat[k].src...), r.mat[k].dst...)
	}
	slices.Sort(want)
	r.want = slices.Compact(want)
	return r.want
}

// renumber replaces every row the material reads with its position in want,
// the ascending rows it reads.
func (m *material) renumber(want []int) {
	for k := range m {
		for _, rows := range [...][]int{m[k].src, m[k].dst} {
			for i, row := range rows {
				rows[i], _ = slices.BinarySearch(want, row)
			}
		}
	}
}

// evalRound is the one way training partitions are evaluated: ONE forward
// over their disjoint union, one stacked loss whose terms reduce per unit
// (buildLoss) and — when apply is set — one backward from the sum of the
// units' losses into the parameters' gradients. Algorithm 1 evaluates every
// partition of a round at the same θ_t and steps once on the summed gradient,
// so nothing orders the units; the union saves the per-op cost of a tape per
// unit for products of ten rows.
//
// r.units[i] receives unit i's outcome. Forward rows, and so utilities, are
// bit-equal to evaluating each unit alone; parameter gradients are the same
// terms summed inside one product over the stacked rows (DESIGN.md §18). The
// material comes first, so the forward computes the rows it reads (forward).
// Each unit draws from its own rng seeded with r.seeds[i]. Evaluation writes
// no model or graph state (NoCommit forward).
func (t *Trainer) evalRound(r *round, apply bool) {
	clock := now()
	r.union.Build(r.subs)
	lap(&clock, &t.Stats.ExtractNs)
	r.mat.reset()
	if r.rnd == nil {
		r.rnd = rand.New(&r.src)
	}
	for i, sub := range r.subs {
		r.src.Seed(r.seeds[i])
		t.partitionMaterial(&r.mat, sub, r.union.Offsets[i], r.rnd)
		r.units[i].OK = r.mat.closeUnit()
	}
	lap(&clock, &t.Stats.LossNs)
	emb := t.forward(dgnn.UnionView(&r.union), r, &clock)
	r.trained = t.finish(emb, &r.mat, r.units, apply, &clock)
}

// finish builds the stacked loss of m over emb, reads each unit's utility off
// it, backpropagates when apply is set, and releases the tape.
func (t *Trainer) finish(emb *autodiff.Node, m *material, units []Unit, apply bool, clock *time.Time) bool {
	tp := t.tape
	total := t.buildLoss(tp, emb, m)
	trained := total != nil
	if trained {
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
	atomic.AddInt64(&t.Stats.Rounds, 1)
	atomic.AddInt64(&t.Stats.Units, int64(len(units)))
	return trained
}

// step applies the accumulated gradient with one optimizer step.
func (t *Trainer) step() {
	start := now()
	t.Opt.Step()
	lap(&start, &t.Stats.OptimizerNs)
}

// roundOfOne evaluates node v's partition as a round of one unit, seeded from
// the trainer's own rng.
func (t *Trainer) roundOfOne(v int, apply bool) Unit {
	r := &t.own
	r.reset()
	r.add(t.G.Partition(v, t.Model.Layers()), t.rng.Int63())
	t.evalRound(r, apply)
	return r.units[0]
}

// TrainPartition performs node v's training partition and returns its
// temporal utility and whether any training material was available.
func (t *Trainer) TrainPartition(v int) (utility float64, trained bool) {
	u := t.roundOfOne(v, true)
	if u.OK {
		t.step()
	}
	return u.Utility, u.OK
}

// EvalPartition measures node v's partition loss without updating anything
// (used by what-if analyses and tests).
func (t *Trainer) EvalPartition(v int) (utility float64, ok bool) {
	u := t.roundOfOne(v, false)
	return u.Utility, u.OK
}

// TrainFull performs one full-graph training pass (the baseline) and
// returns its loss before backpropagation: the same stacked loss with the
// whole snapshot as its one segment.
func (t *Trainer) TrainFull() (loss float64, trained bool) {
	clock := now()
	m := &t.own.mat
	m.reset()
	t.fullMaterial(m)
	unit := [1]Unit{{OK: m.closeUnit()}}
	lap(&clock, &t.Stats.LossNs)
	emb := t.forward(dgnn.FullView(t.G), &t.own, &clock)
	if t.finish(emb, m, unit[:], true, &clock) {
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
// replayed examples). Unit u's targets end at ends[u].
type term struct {
	src, dst []int
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
		tm.src, tm.dst, tm.rows, tm.targets, tm.ends = tm.src[:0], tm.dst[:0], tm.rows[:0], tm.targets[:0], tm.ends[:0]
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
	src, dst, labels := sub.LabeledEdges()
	for i := range src {
		if src[i] == center || dst[i] == center {
			m[termSelfEdge].pair(off+src[i], off+dst[i], labels[i])
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
		// link ranking needs.
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
		if n := lt.NumEmbedded(); n > 1 && count > 0 {
			neg := &m[termLinkNeg]
			for k := 0; k < 2*count; k++ {
				nv := rng.Intn(n)
				if nv == v {
					continue
				}
				if row, ok := lt.EmbeddingRow(nv); ok {
					neg.rows = append(neg.rows, row...)
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

// buildLoss assembles the weighted training loss of the round over emb: per
// term kind the units' rows are one head application and one segmented loss,
// a column of per-unit means; the weighted columns add up, in term order, to
// the column of the units' losses. A unit without a target in some term reads
// +0 there, which changes no sum, so entry u is bit for bit the loss unit u's
// terms alone add up to — its temporal utility. It returns nil when the round
// has no target at all.
func (t *Trainer) buildLoss(tp *autodiff.Tape, emb *autodiff.Node, m *material) *autodiff.Node {
	heads := t.Heads
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
