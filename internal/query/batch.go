package query

import (
	"fmt"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// This file is the batched query-serving path: N predictive queries are
// answered against one embedding matrix with one head application per task
// kind — a single stacked GatherRows + MLP forward instead of N scalar
// applies — and, for density queries, one shared KDE seed-window density
// vector per batch. Because every kernel in the stack (GatherRows,
// ConcatCols, Mul, MatMul, AddBias, ReLU) computes each output row with the
// same floating-point order as its 1-row counterpart, batched scores are
// bit-identical to the serial per-query scores for any batch size; the
// per-step Workload.Predict and LinkPredTask.reveal paths reuse these same
// functions, so ad-hoc serving and continuous prediction share one code path.

// Request kinds accepted by AnswerBatch.
const (
	// KindEvent scores the event head at one anchor node's embedding: the
	// predicted monitored value Delta steps ahead, as in Workload.Predict.
	KindEvent = "event"
	// KindLink scores the link head on one (src, dst) node pair: the logit
	// that the edge appears next step.
	KindLink = "link"
	// KindDensity reads the graph-KDE seed-window sampling density at one
	// node. The density vector is evaluated once per batch and shared by
	// every density request in it.
	KindDensity = "density"
)

// Request is one predictive query in a served batch. Exactly the fields of
// its kind are consulted: Anchor for event queries, Src/Dst for link
// queries, Node for density queries.
type Request struct {
	Kind   string `json:"kind"`
	Anchor int    `json:"anchor,omitempty"`
	Src    int    `json:"src,omitempty"`
	Dst    int    `json:"dst,omitempty"`
	Node   int    `json:"node,omitempty"`
}

// Answer is the result for one Request; answers are returned in request
// order. OK is false when the request could not be served (node outside the
// embedding matrix, unknown kind, no density vector for a density request),
// with Err naming the reason.
type Answer struct {
	Score float64 `json:"score"`
	OK    bool    `json:"ok"`
	Err   string  `json:"error,omitempty"`
}

// scoreTapes holds the inference tapes head scoring runs on: serving
// goroutines each borrow one per micro-batch, and a warm tape scores without
// allocating node shells or leaving intermediates to the collector.
var scoreTapes = autodiff.NewTapePool()

// headColumn applies an MLP head to a stacked input matrix (value-only) and
// returns its single output column. in stays the caller's.
func headColumn(head *nn.MLP, in *tensor.Matrix) []float64 {
	tp := scoreTapes.Get()
	out := head.Apply(tp, autodiff.Constant(in)).Value
	scores := make([]float64, out.Rows)
	for i := range scores {
		scores[i] = out.At(i, 0)
	}
	tp.Release()
	scoreTapes.Put(tp)
	return scores
}

// EventScores scores the event head at every anchor through one stacked
// forward. Each score is bit-identical to a 1-row gather + apply of the same
// anchor. Anchors must be valid rows of emb.
func EventScores(h *Heads, emb *tensor.RowView, anchors []int) []float64 {
	if len(anchors) == 0 {
		return nil
	}
	in := emb.Gather(anchors)
	scores := headColumn(h.Event, in)
	tensor.Recycle(in)
	return scores
}

// PairInputRows builds the stacked [emb_u | emb_v | emb_u∘emb_v] pair-input
// matrix for the link head — the value-level counterpart of PairInput, fused
// into one pass: each output row is written once instead of gathered and
// re-copied through two ConcatCols. The values (and therefore the link-head
// scores) are bit-identical to the tape path's.
func PairInputRows(emb *tensor.RowView, src, dst []int) *tensor.Matrix {
	d := emb.Cols()
	out := tensor.New(len(src), 3*d)
	for i := range src {
		u, v, row := emb.Row(src[i]), emb.Row(dst[i]), out.Row(i)
		copy(row[:d], u)
		copy(row[d:2*d], v)
		had := row[2*d:]
		for k := range u {
			had[k] = u[k] * v[k]
		}
	}
	return out
}

// LinkScores scores the link head on every (src, dst) pair through one
// stacked pair-input forward. src and dst must have equal length and index
// valid rows of emb.
func LinkScores(h *Heads, emb *tensor.RowView, src, dst []int) []float64 {
	if len(src) == 0 {
		return nil
	}
	in := PairInputRows(emb, src, dst)
	scores := headColumn(h.Link, in)
	tensor.Recycle(in)
	return scores
}

// AnswerBatch answers a batch of predictive queries against one frozen view
// of the embedding rows: all event requests share a single event-head
// application, all link requests a single link-head application over one
// stacked pair-input matrix, and all density requests index the
// caller-supplied seed-window density vector (evaluated once per batch; nil
// when density serving is unavailable). Answers are returned in request order
// and are bit-identical to answering each request alone.
func AnswerBatch(h *Heads, emb *tensor.RowView, reqs []Request, density []float64) []Answer {
	answers := make([]Answer, len(reqs))
	var evIdx, anchors []int
	var lnIdx, src, dst []int
	for i, r := range reqs {
		switch r.Kind {
		case KindEvent:
			if r.Anchor < 0 || r.Anchor >= emb.Rows() {
				answers[i] = Answer{Err: "anchor outside the embedding matrix"}
				continue
			}
			evIdx = append(evIdx, i)
			anchors = append(anchors, r.Anchor)
		case KindLink:
			if r.Src < 0 || r.Src >= emb.Rows() || r.Dst < 0 || r.Dst >= emb.Rows() {
				answers[i] = Answer{Err: "pair endpoint outside the embedding matrix"}
				continue
			}
			lnIdx = append(lnIdx, i)
			src = append(src, r.Src)
			dst = append(dst, r.Dst)
		case KindDensity:
			if density == nil {
				answers[i] = Answer{Err: "no seed-window density available"}
				continue
			}
			if r.Node < 0 || r.Node >= len(density) {
				answers[i] = Answer{Err: "node outside the density vector"}
				continue
			}
			answers[i] = Answer{Score: density[r.Node], OK: true}
		default:
			answers[i] = Answer{Err: fmt.Sprintf("unknown query kind %q", r.Kind)}
		}
	}
	for k, s := range EventScores(h, emb, anchors) {
		answers[evIdx[k]] = Answer{Score: s, OK: true}
	}
	for k, s := range LinkScores(h, emb, src, dst) {
		answers[lnIdx[k]] = Answer{Score: s, OK: true}
	}
	return answers
}

// Clone returns a deep value copy of the heads: fresh parameter matrices
// detached from any optimizer or tape. Serving snapshots clone the heads so
// concurrent readers never observe a training step's in-place parameter
// updates.
func (h *Heads) Clone() *Heads {
	return &Heads{
		Event:    h.Event.Clone(),
		Link:     h.Link.Clone(),
		SelfNode: h.SelfNode.Clone(),
		SelfEdge: h.SelfEdge.Clone(),
	}
}
