package query

import (
	"fmt"

	"streamgnn/internal/tensor"
)

// This file is the query-serving path: N predictive queries are answered
// against one frozen view of the embedding rows, the event and the link
// requests each through one row-by-row pass of their head (nn.MLP.Score),
// which builds a row's head input straight from the view and keeps no stacked
// matrix. Score runs each row through the kernels the head's tape forward
// runs, so every score is bit-identical to that forward's over the stacked
// rows, and to the request answered alone, for any batch size. The per-step
// Workload.Predict and LinkPredTask.reveal score through these same functions,
// so ad-hoc serving and continuous prediction share one code path.

// Request kinds accepted by AnswerBatch.
const (
	// KindEvent scores the event head at one anchor node's embedding: the
	// predicted monitored value Delta steps ahead, as in Workload.Predict.
	KindEvent = "event"
	// KindLink scores the link head on one (src, dst) node pair: the logit
	// that the edge appears next step.
	KindLink = "link"
)

// Request is one predictive query in a served batch. Exactly the fields of
// its kind are consulted: Anchor for event queries, Src/Dst for link
// queries. No kind reads Node: the cluster's answer frame carries it across
// unread, and the benchmark ledger puts a request id in it.
type Request struct {
	Kind   string `json:"kind"`
	Anchor int    `json:"anchor,omitempty"`
	Src    int    `json:"src,omitempty"`
	Dst    int    `json:"dst,omitempty"`
	Node   int    `json:"node,omitempty"`
}

// Answer is the result for one Request; answers are returned in request
// order. OK is false when the request could not be served (node outside the
// embedding matrix, unknown kind), with Err naming the reason.
type Answer struct {
	Score float64 `json:"score"`
	OK    bool    `json:"ok"`
	Err   string  `json:"error,omitempty"`
}

// EventScores scores the event head at every anchor, one row at a time.
// Anchors must be valid rows of emb.
func EventScores(h *Heads, emb *tensor.RowView, anchors []int) []float64 {
	return h.Event.Score(len(anchors), 0, func(i int, row []float64) bool { copy(row, emb.Row(anchors[i])); return false })
}

// pairRow writes the pair heads' input for the endpoint embeddings u and v,
// [u | v | u∘v], into row: the value of PairInput's row for the pair.
func pairRow(row, u, v []float64) {
	d := len(u)
	copy(row[:d], u)
	copy(row[d:2*d], v)
	had := row[2*d:]
	for k := range u {
		had[k] = u[k] * v[k]
	}
}

// LinkScores scores the link head on every (src, dst) pair, one row at a
// time. src and dst must have equal length and index valid rows of emb. A
// pair whose source is the pair before's reuses that source's share of the
// head's first layer (nn.MLP.Score), as reveal's runs of one source's
// candidates do; the bits are those of scoring each pair whole.
func LinkScores(h *Heads, emb *tensor.RowView, src, dst []int) []float64 {
	return h.Link.Score(len(src), emb.Cols(), func(i int, row []float64) bool {
		pairRow(row, emb.Row(src[i]), emb.Row(dst[i]))
		return i > 0 && src[i] == src[i-1]
	})
}

// AnswerBatch answers a batch of predictive queries against one frozen view
// of the embedding rows: all event requests share one pass of the event head
// and all link requests one pass of the link head. Answers are returned in
// request order and are bit-identical to answering each request alone.
func AnswerBatch(h *Heads, emb *tensor.RowView, reqs []Request) []Answer {
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
