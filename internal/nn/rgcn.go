package nn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
)

// RGCNConv is a relational graph convolution (Schlichtkrull et al.): one
// learned transform per edge type plus an explicit self transform,
//
//	h = x·W_self + Σ_r Â_r·x·W_r + b,
//
// the natural layer for the heterogeneous streams of the paper's Example 1,
// where lab events, prescriptions and diagnoses should not share one weight
// matrix.
type RGCNConv struct {
	Self *autodiff.Node
	Rel  []*autodiff.Node
	B    *autodiff.Node
}

// NewRGCNConv returns an RGCN convolution over `relations` edge types.
func NewRGCNConv(rng *rand.Rand, in, out, relations int) *RGCNConv {
	c := &RGCNConv{
		Self: autodiff.Param(tensor.Glorot(rng, in, out)),
		B:    autodiff.Param(tensor.New(1, out)),
	}
	for r := 0; r < relations; r++ {
		c.Rel = append(c.Rel, autodiff.Param(tensor.Glorot(rng, in, out)))
	}
	return c
}

// Apply computes the relational convolution; typed must hold one adjacency
// per relation (extra relations see a zero adjacency contribution if typed
// is shorter — the stream may not have surfaced every type yet). Whether a
// relation takes part is decided on its whole adjacency, so one whose rows
// read happen to be empty still adds its +0 rows.
func (c *RGCNConv) Apply(tp *autodiff.Tape, typed []*tensor.CSR, x *autodiff.Node) *autodiff.Node {
	sum := tp.MatMul(x, c.Self)
	for r, w := range c.Rel {
		if r >= len(typed) || typed[r].NNZ() == 0 {
			continue
		}
		sum = tp.Add(sum, tp.SpMM(typed[r], tp.MatMul(x, w)))
	}
	return tp.AddBias(sum, c.B)
}

// Params implements Module.
func (c *RGCNConv) Params() []*autodiff.Node {
	out := []*autodiff.Node{c.Self}
	out = append(out, c.Rel...)
	return append(out, c.B)
}
