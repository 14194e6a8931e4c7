package core

import (
	"slices"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

// EmbeddingRows is where a training round reads its link negatives: rows of
// one step's inference embeddings, detached. N is the node count the draws
// range over; AppendRows appends the row of each of ids (each below N), in
// their order, to dst.
type EmbeddingRows interface {
	N() int
	AppendRows(dst []float64, ids []int) []float64
}

// ViewRows reads the rows of published embeddings: those a step's prediction
// read, once its forward has run.
type ViewRows struct{ View *tensor.RowView }

// N implements EmbeddingRows.
func (s ViewRows) N() int { return s.View.Rows() }

// AppendRows implements EmbeddingRows.
func (s ViewRows) AppendRows(dst []float64, ids []int) []float64 {
	for _, v := range ids {
		dst = append(dst, s.View.Row(v)...)
	}
	return dst
}

// ForwardRows computes the rows of a step's full forward it is asked for
// itself, so a learner need not wait for that forward: one planned NoCommit
// forward of the live model over the whole graph per call, read on the rows
// asked for. A NoCommit forward reads recurrent state from the BeginStep
// snapshot and writes none, so from the engine's second step on — once a
// snapshot exists — its rows are bit-equal to those the step's committed
// full forward computes, and it may run beside it. Its tape is its own: one
// goroutine calls it.
type ForwardRows struct {
	live  dgnn.Model
	model dgnn.Model // the step's (BeginStep)
	g     *graph.Dynamic
	tape  *autodiff.Tape
	out   []int // the view's Out: ids ascending, once each
}

// NewForwardRows returns the row source of m's full forwards over g.
func NewForwardRows(m dgnn.Model, g *graph.Dynamic) *ForwardRows {
	return &ForwardRows{live: m, model: m, g: g, tape: autodiff.NewInferenceTape()}
}

// BeginStep starts a step's calls, after the live model's BeginStep: they
// run dgnn.StepForward's model, so EvolveGCN evolves its weights at the
// step's first call only. The live model's parameters must not change until
// the step's last call.
func (s *ForwardRows) BeginStep() { s.model = dgnn.StepForward(s.live) }

// N implements EmbeddingRows.
func (s *ForwardRows) N() int { return s.g.N() }

// AppendRows implements EmbeddingRows.
func (s *ForwardRows) AppendRows(dst []float64, ids []int) []float64 {
	s.out = append(s.out[:0], ids...)
	slices.Sort(s.out)
	s.out = slices.Compact(s.out)
	v := dgnn.FullView(s.g)
	v.NoCommit, v.Out = true, s.out
	emb := s.model.Forward(s.tape, v).Value
	for _, id := range ids {
		i, _ := slices.BinarySearch(s.out, id)
		dst = append(dst, emb.Row(i)...)
	}
	s.tape.Release()
	return dst
}
