package core

import (
	"math/rand"
	"sync"
	"sync/atomic"

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
	Opt      autodiff.Optimizer
	G        *graph.Dynamic

	SelfWeight float64
	SupWeight  float64
	// ReplaySize is the minibatch of revealed (embedding, truth) pairs
	// added to every partition's supervised loss. Replay trains only the
	// prediction heads (the cached embeddings are constants), curing the
	// catastrophic interference of single-target online head updates at a
	// cost independent of graph size.
	ReplaySize int
	// BallSupervision widens supervised targets to the whole partition.
	BallSupervision bool

	rng *rand.Rand
}

// TrainerStats counts the training targets consumed so far. Fields are
// updated atomically (loss construction runs on worker goroutines under
// parallel pair execution); sums are order-independent, so the counters stay
// deterministic regardless of worker count.
type TrainerStats struct {
	SelfNodeTargets int64
	SelfEdgeTargets int64
	SupNodeTargets  int64
	SupPairTargets  int64
	ReplayTargets   int64
}

// tapePool recycles training tapes across units and steps. A recycled tape
// brings back its node shells and scratch slices (see autodiff.Tape), so a
// warm training unit allocates little beyond its op closures. Safe for
// concurrent Get/Put from worker goroutines; each tape is used by one
// goroutine at a time.
var tapePool = sync.Pool{New: func() any { return autodiff.NewTape() }}

// putTape releases the tape's buffers and returns it to the pool.
func putTape(tp *autodiff.Tape) {
	tp.Release()
	tapePool.Put(tp)
}

// NewTrainer wires a trainer; opt must manage both model and head params.
func NewTrainer(g *graph.Dynamic, m dgnn.Model, w *query.Workload, opt autodiff.Optimizer, cfg Config, rng *rand.Rand) *Trainer {
	return &Trainer{
		Model:           m,
		Workload:        w,
		Opt:             opt,
		G:               g,
		SelfWeight:      cfg.SelfWeight,
		SupWeight:       cfg.SupWeight,
		ReplaySize:      cfg.ReplaySize,
		BallSupervision: cfg.BallSupervision,
		rng:             rng,
	}
}

// Unit is one evaluated-but-not-applied training partition: the forward
// pass and loss of node v's partition, with the temporal utility (the loss
// before backpropagation — Section IV-A) already measured. Units are the
// unit of parallelism: evaluation is read-only with respect to model
// parameters, recurrent state, and optimizer state, so many units can be
// built concurrently against the same parameter snapshot; AccumulateUnit (or
// GradUnitTo, into private sinks) then backpropagates them and one
// optimizer step applies the step's summed gradient.
type Unit struct {
	Node    int
	Utility float64
	OK      bool

	tape *autodiff.Tape
	loss *autodiff.Node
}

// EvalUnit builds node v's training unit using a private splitmix64 rng
// seeded with seed (O(1) seeding — the standard lagged-Fibonacci source pays
// a ~600-word initialization per seed, which profiles as several percent of
// a training step), so evaluation order (and worker count) cannot perturb
// the sampled replay batches and negatives. Safe to call from worker
// goroutines.
func (t *Trainer) EvalUnit(v int, seed int64) Unit {
	return t.evalUnit(v, rand.New(rng.New(seed)))
}

func (t *Trainer) evalUnit(v int, rng *rand.Rand) Unit {
	sub := t.G.Partition(v, t.Model.Layers())
	view := dgnn.SubView(sub)
	view.NoCommit = true // recurrent state advances only at inference time
	tp := tapePool.Get().(*autodiff.Tape)
	tp.Owned(view.Feat) // fresh per view; recycled with the tape
	emb := t.Model.Forward(tp, view)
	loss := t.buildLoss(tp, emb, t.partitionMaterial(v, sub, rng), rng)
	if loss == nil {
		putTape(tp)
		return Unit{Node: v}
	}
	return Unit{Node: v, Utility: loss.Value.Data[0], OK: true, tape: tp, loss: loss}
}

// AccumulateUnit backpropagates an evaluated unit into the shared parameter
// gradients without stepping the optimizer, then recycles the unit's tape.
// Must be called serially in a deterministic order; follow a batch of
// accumulations with a single Opt.Step() to apply the summed gradient. It
// reports whether the unit contributed a gradient.
func (t *Trainer) AccumulateUnit(u Unit) bool {
	if !u.OK {
		return false
	}
	u.tape.Backward(u.loss)
	putTape(u.tape)
	return true
}

// GradUnitTo backpropagates an evaluated unit into sink's private gradient
// buffers instead of the shared parameter gradients, then recycles the unit's
// tape. Unlike AccumulateUnit it touches no shared model or
// optimizer state, so units may run concurrently as long as each goroutine
// uses its own sinks (the tape and tensor pools are concurrency-safe).
// Merge the sinks serially in a fixed order (GradSink.MergeInto) and step the
// optimizer to apply the result. It reports whether the unit contributed a
// gradient.
func (t *Trainer) GradUnitTo(u Unit, sink *autodiff.GradSink) bool {
	if !u.OK {
		return false
	}
	u.tape.BackwardTo(u.loss, sink)
	putTape(u.tape)
	return true
}

// DiscardUnit recycles an evaluated unit without applying it.
func (t *Trainer) DiscardUnit(u Unit) {
	if u.tape != nil {
		putTape(u.tape)
	}
}

// TrainPartition performs node v's training partition and returns its
// temporal utility and whether any training material was available.
func (t *Trainer) TrainPartition(v int) (utility float64, trained bool) {
	u := t.evalUnit(v, t.rng)
	if !u.OK {
		return 0, false
	}
	t.AccumulateUnit(u)
	t.Opt.Step()
	return u.Utility, true
}

// TrainFull performs one full-graph training pass (the baseline) and
// returns its loss before backpropagation.
func (t *Trainer) TrainFull() (loss float64, trained bool) {
	view := dgnn.FullView(t.G)
	view.NoCommit = true
	tp := tapePool.Get().(*autodiff.Tape)
	tp.Owned(view.Feat)
	emb := t.Model.Forward(tp, view)
	l := t.buildLoss(tp, emb, fullMaterial(t.G, t.Workload), t.rng)
	if l == nil {
		putTape(tp)
		return 0, false
	}
	loss = l.Value.Data[0]
	tp.Backward(l)
	t.Opt.Step()
	putTape(tp)
	return loss, true
}

// EvalPartition measures node v's partition loss without updating anything
// (used by what-if analyses and tests).
func (t *Trainer) EvalPartition(v int) (utility float64, ok bool) {
	u := t.evalUnit(v, t.rng)
	if !u.OK {
		return 0, false
	}
	t.DiscardUnit(u)
	return u.Utility, true
}

// material is the training signal available in one unit of work.
type material struct {
	selfNodeRows    []int
	selfNodeTargets []float64
	selfEdgeSrc     []int
	selfEdgeDst     []int
	selfEdgeTargets []float64
	sup             query.Supervision
	replay          bool
	// linkNegRows are detached embedding rows of global negative-sample
	// nodes, paired with the partition center for link self-supervision.
	linkNegRows [][]float64
	center      int
}

// partitionMaterial gathers node v's training targets per Section III-C:
// self-supervision from v itself and its incident labeled edges (the
// partition's own share of the self-supervised work), and supervised query
// targets from every anchor inside G_v (the queries whose relevant data
// overlaps the partition). rng is the unit's private source for negative
// sampling (never the trainer's shared one when units run concurrently).
func (t *Trainer) partitionMaterial(v int, sub *graph.Subgraph, rng *rand.Rand) material {
	m := material{replay: true, center: sub.Center}
	center := sub.Center
	if y, ok := t.G.Label(v); ok {
		m.selfNodeRows = append(m.selfNodeRows, center)
		m.selfNodeTargets = append(m.selfNodeTargets, y)
	}
	src, dst, labels := sub.LabeledEdges()
	for i := range src {
		if src[i] == center || dst[i] == center {
			m.selfEdgeSrc = append(m.selfEdgeSrc, src[i])
			m.selfEdgeDst = append(m.selfEdgeDst, dst[i])
			m.selfEdgeTargets = append(m.selfEdgeTargets, labels[i])
		}
	}
	if t.Workload != nil {
		sup := t.Workload.Supervision(sub, rng)
		if t.BallSupervision {
			m.sup = sup
		} else {
			// Keep only targets whose embeddings the truncated subgraph
			// computes exactly: node targets at the center (whose L-hop
			// receptive field the partition contains in full) and pair
			// targets incident to it. Targets anchored deeper in the ball
			// are computed from truncated neighborhoods.
			for i, row := range sup.NodeRows {
				if row == center {
					m.sup.NodeRows = append(m.sup.NodeRows, row)
					m.sup.NodeTargets = append(m.sup.NodeTargets, sup.NodeTargets[i])
				}
			}
			for i := range sup.PairSrc {
				if sup.PairSrc[i] == center || sup.PairDst[i] == center {
					m.sup.PairSrc = append(m.sup.PairSrc, sup.PairSrc[i])
					m.sup.PairDst = append(m.sup.PairDst, sup.PairDst[i])
					m.sup.PairLabels = append(m.sup.PairLabels, sup.PairLabels[i])
				}
			}
		}
	}
	if lt := linkTaskOf(t.Workload); lt != nil && rng != nil && sub.N() > 2 {
		// Structural self-supervision for link workloads (Section III-B:
		// "predicting chosen nodes/links in the network"): the center's
		// current edges are positives. Negatives pair the center with
		// *global* random nodes (their embeddings taken, detached, from the
		// last inference): partitions are community-local, so in-partition
		// negatives would cancel the community signal that link ranking
		// needs.
		nbrs := map[int]bool{center: true}
		count := 0
		for _, e := range t.G.OutEdges(v) {
			if li := sub.LocalID(e.To); li >= 0 && !nbrs[li] {
				nbrs[li] = true
				m.sup.PairSrc = append(m.sup.PairSrc, center)
				m.sup.PairDst = append(m.sup.PairDst, li)
				m.sup.PairLabels = append(m.sup.PairLabels, 1)
				count++
				if count >= 8 {
					break
				}
			}
		}
		if n := lt.NumEmbedded(); n > 1 && count > 0 {
			for k := 0; k < 2*count; k++ {
				nv := rng.Intn(n)
				if nv == v {
					continue
				}
				if row, ok := lt.EmbeddingRow(nv); ok {
					m.linkNegRows = append(m.linkNegRows, row)
				}
			}
		}
	}
	return m
}

func fullMaterial(g *graph.Dynamic, w *query.Workload) material {
	m := material{center: -1}
	for v := 0; v < g.N(); v++ {
		if y, ok := g.Label(v); ok {
			m.selfNodeRows = append(m.selfNodeRows, v)
			m.selfNodeTargets = append(m.selfNodeTargets, y)
		}
		for _, e := range g.OutEdges(v) {
			if e.HasLabel() {
				m.selfEdgeSrc = append(m.selfEdgeSrc, v)
				m.selfEdgeDst = append(m.selfEdgeDst, e.To)
				m.selfEdgeTargets = append(m.selfEdgeTargets, e.Label)
			}
		}
	}
	if w != nil {
		m.sup = w.SupervisionFull(g.N())
	}
	return m
}

// buildLoss assembles the weighted training loss over emb for the given
// material; it returns nil when no targets are available. rng draws the
// replay minibatches; stats counters are updated atomically so concurrent
// unit evaluation stays race-free.
func (t *Trainer) buildLoss(tp *autodiff.Tape, emb *autodiff.Node, m material, rng *rand.Rand) *autodiff.Node {
	heads := t.Workload.Heads()
	var total *autodiff.Node
	// cv builds a tape-owned target column so its buffer is recycled with
	// the tape instead of leaking from the buffer pool every unit.
	cv := func(vals []float64) *tensor.Matrix { return tp.Owned(colVec(vals)) }
	add := func(term *autodiff.Node, weight float64) {
		if weight != 1 {
			term = tp.Scale(term, weight)
		}
		if total == nil {
			total = term
		} else {
			total = tp.Add(total, term)
		}
	}
	if len(m.selfNodeRows) > 0 {
		pred := heads.SelfNode.Apply(tp, tp.GatherRows(emb, m.selfNodeRows))
		add(tp.MSE(pred, cv(m.selfNodeTargets)), t.SelfWeight)
		atomic.AddInt64(&t.Stats.SelfNodeTargets, int64(len(m.selfNodeRows)))
	}
	if len(m.selfEdgeSrc) > 0 {
		pred := heads.SelfEdge.Apply(tp, query.PairInput(tp, emb, m.selfEdgeSrc, m.selfEdgeDst))
		add(tp.MSE(pred, cv(m.selfEdgeTargets)), t.SelfWeight)
		atomic.AddInt64(&t.Stats.SelfEdgeTargets, int64(len(m.selfEdgeSrc)))
	}
	if len(m.sup.NodeRows) > 0 {
		pred := heads.Event.Apply(tp, tp.GatherRows(emb, m.sup.NodeRows))
		add(tp.MSE(pred, cv(m.sup.NodeTargets)), t.SupWeight)
		atomic.AddInt64(&t.Stats.SupNodeTargets, int64(len(m.sup.NodeRows)))
	}
	if len(m.sup.PairSrc) > 0 {
		logits := heads.Link.Apply(tp, query.PairInput(tp, emb, m.sup.PairSrc, m.sup.PairDst))
		add(tp.BCEWithLogits(logits, cv(m.sup.PairLabels)), t.SupWeight)
		atomic.AddInt64(&t.Stats.SupPairTargets, int64(len(m.sup.PairSrc)))
	}
	if len(m.linkNegRows) > 0 && m.center >= 0 {
		k := len(m.linkNegRows)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = m.center
		}
		centerRep := tp.GatherRows(emb, idx)
		negs := tp.Owned(tensor.New(k, len(m.linkNegRows[0])))
		for i, row := range m.linkNegRows {
			copy(negs.Row(i), row)
		}
		nc := autodiff.Constant(negs)
		in := tp.ConcatCols(tp.ConcatCols(centerRep, nc), tp.Mul(centerRep, nc))
		logits := heads.Link.Apply(tp, in)
		add(tp.BCEWithLogits(logits, tp.Owned(tensor.New(k, 1))), t.SelfWeight)
		atomic.AddInt64(&t.Stats.SelfEdgeTargets, int64(k))
	}
	if m.replay && t.Workload != nil && t.ReplaySize > 0 && rng != nil {
		if re, truths := t.Workload.ReplayBatch(rng, t.ReplaySize); re != nil {
			pred := heads.Event.Apply(tp, autodiff.Constant(tp.Owned(re)))
			add(tp.MSE(pred, cv(truths)), t.SupWeight)
			atomic.AddInt64(&t.Stats.ReplayTargets, int64(len(truths)))
		}
		if lt := t.Workload.LinkTask(); lt != nil {
			if re, labels := lt.ReplayBatch(rng, t.ReplaySize); re != nil {
				logits := heads.Link.Apply(tp, autodiff.Constant(tp.Owned(re)))
				add(tp.BCEWithLogits(logits, cv(labels)), t.SupWeight)
				atomic.AddInt64(&t.Stats.ReplayTargets, int64(len(labels)))
			}
		}
	}
	return total
}

func linkTaskOf(w *query.Workload) *query.LinkPredTask {
	if w == nil {
		return nil
	}
	return w.LinkTask()
}

func colVec(vals []float64) *tensor.Matrix {
	m := tensor.New(len(vals), 1)
	copy(m.Data, vals)
	return m
}
