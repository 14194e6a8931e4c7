// Package query implements the continuous analytics workload of the paper's
// Section II: continuous predictive queries that, at every step t, predict a
// function of the data in snapshot t+δ. Predictions are made from DGNN
// embeddings through per-task MLP heads (Figure 2); when step t+δ arrives
// the ground truth is revealed, producing both evaluation outcomes and the
// delayed supervision targets that drive the supervised part of training
// (Section III-B).
package query

import (
	"math/rand"
	"sort"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// Heads bundles the MLP prediction heads stacked on DGNN embeddings: one for
// event-monitoring queries, one for link prediction, and two for the
// self-supervised node/edge-label tasks.
type Heads struct {
	Event    *nn.MLP // hidden -> 1: monitored value at an anchor
	Link     *nn.MLP // 3*hidden -> 1: logit that an edge appears
	SelfNode *nn.MLP // hidden -> 1: node label
	SelfEdge *nn.MLP // 3*hidden -> 1: edge label
}

// NewHeads returns heads for the given embedding dimension.
func NewHeads(rng *rand.Rand, hidden int) *Heads {
	return &Heads{
		Event:    nn.NewMLP(rng, hidden, hidden, 1),
		Link:     nn.NewMLP(rng, 3*hidden, hidden, 1),
		SelfNode: nn.NewMLP(rng, hidden, hidden, 1),
		SelfEdge: nn.NewMLP(rng, 3*hidden, hidden, 1),
	}
}

// Params returns all head parameters.
func (h *Heads) Params() []*autodiff.Node {
	return nn.CollectParams(h.Event, h.Link, h.SelfNode, h.SelfEdge)
}

// PairInput builds the [emb_u | emb_v | emb_u∘emb_v] input rows for pair
// heads; the Hadamard channel makes co-membership linearly separable, which
// matters for ranking candidate links.
func PairInput(tp *autodiff.Tape, emb *autodiff.Node, src, dst []int) *autodiff.Node {
	u := tp.GatherRows(emb, src)
	v := tp.GatherRows(emb, dst)
	return tp.ConcatCols(tp.ConcatCols(u, v), tp.Mul(u, v))
}

// EventQuery is one continuous predictive query: at every step t it predicts
// the monitored value at each anchor node for step t+Delta, and fires an
// event when the value exceeds Threshold.
type EventQuery struct {
	Name      string
	Anchors   []int
	Delta     int
	Threshold float64
	// Labeler returns the ground-truth monitored value at anchor for step
	// (revealed once the stream reaches that step), and whether truth is
	// available.
	Labeler func(g *graph.Dynamic, anchor, step int) (float64, bool)
}

// Outcome is one resolved prediction, used for metric computation.
type Outcome struct {
	Query  string
	Anchor int
	Step   int // the predicted-for step
	Score  float64
	Truth  float64
	Event  bool // Truth > query threshold
}

// Target is a revealed supervision target at a node.
type Target struct {
	Value float64
	Step  int
}

type pendingPred struct {
	q      *EventQuery
	anchor int
	score  float64
	emb    []float64 // anchor's embedding at prediction time
}

// ReplayExample is one revealed supervision pair: the embedding the
// prediction was made from and the truth that later arrived. The buffer
// holds only the freshest reveals (it is cleared at each reveal step), so
// every training unit can refit the event head on a minibatch of the most
// recent query results (constant inputs — only the head trains through
// replay). This removes the catastrophic interference of single-target
// online updates without feeding back pre-drift targets. An example is never
// changed once made, so the buffer and its checkpoint share them.
type ReplayExample struct {
	Emb   []float64
	Truth float64
}

// Alert is a fired monitoring notification: at some step the system
// predicted that a query's monitored value will exceed its threshold at
// ForStep (the "notify me when it is predicted that ..." semantics of the
// paper's Example 1).
type Alert struct {
	Query   string
	Anchor  int
	ForStep int
	Score   float64
}

// Workload is the set of continuous queries the engine answers and trains
// against. It tracks in-flight predictions, resolves them when their step
// arrives, accumulates evaluation outcomes, and exposes revealed targets as
// supervision for node-partition training.
type Workload struct {
	//streamlint:ckpt-exempt head parameters are serialized through Params() by the engine checkpoint
	heads   *Heads
	queries []*EventQuery
	link    *LinkPredTask

	pending  map[int][]pendingPred
	revealed map[int]Target
	outcomes []Outcome
	alerts   []Alert

	replay    []ReplayExample
	replayPos int
}

// replayCap bounds the supervised replay ring (a few steps of reveals).
const replayCap = 192

// NewWorkload returns an empty workload using the given heads.
func NewWorkload(heads *Heads) *Workload {
	return &Workload{
		heads:    heads,
		pending:  make(map[int][]pendingPred),
		revealed: make(map[int]Target),
	}
}

// Heads returns the workload's prediction heads.
func (w *Workload) Heads() *Heads { return w.heads }

// AddQuery registers a continuous predictive query.
func (w *Workload) AddQuery(q *EventQuery) { w.queries = append(w.queries, q) }

// Queries returns the registered event queries.
func (w *Workload) Queries() []*EventQuery { return w.queries }

// SetLinkTask attaches a continuous link-prediction task.
func (w *Workload) SetLinkTask(t *LinkPredTask) { w.link = t }

// LinkTask returns the attached link-prediction task, or nil.
func (w *Workload) LinkTask() *LinkPredTask { return w.link }

// Predict issues every query's prediction at step t from a frozen view of the
// full-graph embedding rows (value-only; no gradients). Predictions for step
// t+δ are parked until Reveal(t+δ).
func (w *Workload) Predict(emb *tensor.RowView, step int) {
	// Collect every (query, anchor) slot, then score all anchors through one
	// pass of the event head — the path AnswerBatch serves ad-hoc queries
	// with, so per-step prediction and serving share one code path (and
	// bit-identical scores).
	type slot struct {
		q      *EventQuery
		anchor int
	}
	var slots []slot
	var anchors []int
	for _, q := range w.queries {
		for _, a := range q.Anchors {
			if a >= emb.Rows() {
				continue // anchor node not in the graph yet
			}
			slots = append(slots, slot{q: q, anchor: a})
			anchors = append(anchors, a)
		}
	}
	scores := EventScores(w.heads, emb, anchors)
	for i, s := range slots {
		score := scores[i]
		due := step + s.q.Delta
		row := append([]float64(nil), emb.Row(s.anchor)...)
		w.pending[due] = append(w.pending[due], pendingPred{q: s.q, anchor: s.anchor, score: score, emb: row})
		if score > s.q.Threshold {
			w.alerts = append(w.alerts, Alert{Query: s.q.Name, Anchor: s.anchor, ForStep: due, Score: score})
		}
	}
	if w.link != nil {
		w.link.observeEmbeddings(emb, step)
	}
}

// Reveal resolves the predictions that were made for `step`, now that the
// snapshot has arrived: it computes truths, records outcomes, and refreshes
// the revealed supervision targets. It returns the link task's scoring of the
// revealed pairs, which only the evaluation metrics read, for the caller to
// run before the link head next changes; nil when there is nothing to score.
func (w *Workload) Reveal(g *graph.Dynamic, step int) (scoring func()) {
	if len(w.pending[step]) > 0 {
		// Fresh reveals replace the replay buffer wholesale: under drift,
		// pre-regime-change targets would actively mistrain the heads.
		w.replay = w.replay[:0]
		w.replayPos = 0
	}
	for _, p := range w.pending[step] {
		truth, ok := p.q.Labeler(g, p.anchor, step)
		if !ok {
			continue
		}
		w.outcomes = append(w.outcomes, Outcome{
			Query:  p.q.Name,
			Anchor: p.anchor,
			Step:   step,
			Score:  p.score,
			Truth:  truth,
			Event:  truth > p.q.Threshold,
		})
		w.revealed[p.anchor] = Target{Value: truth, Step: step}
		ex := ReplayExample{Emb: p.emb, Truth: truth}
		if len(w.replay) < replayCap {
			w.replay = append(w.replay, ex)
		} else {
			w.replay[w.replayPos] = ex
			w.replayPos = (w.replayPos + 1) % replayCap
		}
	}
	delete(w.pending, step)
	if w.link != nil {
		return w.link.reveal(g, step, w.heads)
	}
	return nil
}

// Outcomes returns all resolved predictions so far.
func (w *Workload) Outcomes() []Outcome { return w.outcomes }

// AppendReplay samples up to n revealed (embedding, truth) pairs from the
// replay ring, appending each embedding to rows and each truth to truths — a
// training round stacks its units' batches this way. Nothing is appended (and
// nothing drawn from rng) when no reveals have happened yet.
func (w *Workload) AppendReplay(rng *rand.Rand, n int, rows, truths []float64) ([]float64, []float64) {
	if n > len(w.replay) {
		n = len(w.replay)
	}
	for i := 0; i < n; i++ {
		ex := w.replay[rng.Intn(len(w.replay))]
		rows = append(rows, ex.Emb...)
		truths = append(truths, ex.Truth)
	}
	return rows, truths
}

// TakeAlerts drains and returns the alerts fired since the last call.
func (w *Workload) TakeAlerts() []Alert {
	a := w.alerts
	w.alerts = nil
	return a
}

// Supervision is the training material available inside one node partition:
// revealed event targets at anchor nodes, and labeled link pairs.
type Supervision struct {
	NodeRows    []int // local indices into the subgraph
	NodeTargets []float64
	PairSrc     []int
	PairDst     []int
	PairLabels  []float64
}

// SupervisionFull collects every revealed target and labeled pair for a
// full-graph training pass over n nodes (indices are global node ids).
func (w *Workload) SupervisionFull(n int) Supervision {
	var sup Supervision
	ids := make([]int, 0, len(w.revealed))
	for v := range w.revealed {
		if v < n {
			ids = append(ids, v)
		}
	}
	sort.Ints(ids) // deterministic loss composition across runs
	for _, v := range ids {
		sup.NodeRows = append(sup.NodeRows, v)
		sup.NodeTargets = append(sup.NodeTargets, w.revealed[v].Value)
	}
	if w.link != nil {
		for _, p := range w.link.recentPairs {
			if p.U < n && p.V < n {
				sup.PairSrc = append(sup.PairSrc, p.U)
				sup.PairDst = append(sup.PairDst, p.V)
				sup.PairLabels = append(sup.PairLabels, p.Label)
			}
		}
	}
	return sup
}

// Supervision collects the workload's supervised targets that fall inside
// the given subgraph (a node's training partition). rng draws the balancing
// in-partition negatives: the training unit's private rng.
func (w *Workload) Supervision(sub *graph.Subgraph, rng *rand.Rand) Supervision {
	var sup Supervision
	for li, v := range sub.Nodes {
		if t, ok := w.revealed[v]; ok {
			sup.NodeRows = append(sup.NodeRows, li)
			sup.NodeTargets = append(sup.NodeTargets, t.Value)
		}
	}
	if w.link == nil {
		return sup
	}
	// recentPairs ascends by U, as sub.Nodes does: each node's run of pairs,
	// found by binary search after the last run, comes in the pairs' order.
	pairs, i := w.link.recentPairs, 0
	for lu, u := range sub.Nodes {
		i += sort.Search(len(pairs)-i, func(k int) bool { return pairs[i+k].U >= u })
		for ; i < len(pairs) && pairs[i].U == u; i++ {
			p, lv := pairs[i], sub.LocalID(pairs[i].V)
			if lv < 0 {
				continue
			}
			sup.PairSrc = append(sup.PairSrc, lu)
			sup.PairDst = append(sup.PairDst, lv)
			sup.PairLabels = append(sup.PairLabels, p.Label)
			if p.Label == 1 && sub.N() > 2 {
				// Globally sampled negatives almost never have both
				// endpoints inside a small partition, so balance each
				// positive with negatives drawn inside the subgraph.
				for k := 0; k < w.link.NegPerPos; k++ {
					nv := rng.Intn(sub.N())
					if nv == lu || nv == lv {
						continue
					}
					sup.PairSrc = append(sup.PairSrc, lu)
					sup.PairDst = append(sup.PairDst, nv)
					sup.PairLabels = append(sup.PairLabels, 0)
				}
			}
		}
	}
	return sup
}
