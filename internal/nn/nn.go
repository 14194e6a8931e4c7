// Package nn provides the neural building blocks shared by the seven dynamic
// graph neural network baselines: linear layers, graph convolutions
// (GCN-normalized and diffusion), graph-gated GRU/LSTM cells, dense GRU/LSTM
// cells, and MLPs. Every module exposes its parameters for an optimizer.
package nn

import (
	"math/rand"
	"slices"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
)

// Module is anything owning trainable parameters.
type Module interface {
	Params() []*autodiff.Node
}

// CollectParams concatenates the parameters of several modules.
func CollectParams(ms ...Module) []*autodiff.Node {
	var out []*autodiff.Node
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W, B    *autodiff.Node
	in, out int
}

// NewLinear returns a Glorot-initialized linear layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		W:   autodiff.Param(tensor.Glorot(rng, in, out)),
		B:   autodiff.Param(tensor.New(1, out)),
		in:  in,
		out: out,
	}
}

// Apply computes x·W + b.
func (l *Linear) Apply(tp *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	return tp.AddBias(tp.MatMul(x, l.W), l.B)
}

// Params implements Module.
func (l *Linear) Params() []*autodiff.Node { return []*autodiff.Node{l.W, l.B} }

// Clone returns a deep value copy of the layer with fresh parameter nodes,
// detached from any optimizer state or tape.
func (l *Linear) Clone() *Linear {
	return &Linear{
		W:   autodiff.Param(l.W.Value.Clone()),
		B:   autodiff.Param(l.B.Value.Clone()),
		in:  l.in,
		out: l.out,
	}
}

// GCNConv is a graph convolution h = Â·x·W + b with Â the symmetric
// GCN-normalized adjacency (Kipf & Welling).
type GCNConv struct {
	lin *Linear
}

// NewGCNConv returns a GCN convolution from in to out channels.
func NewGCNConv(rng *rand.Rand, in, out int) *GCNConv {
	return &GCNConv{lin: NewLinear(rng, in, out)}
}

// Apply computes Â·x·W + b.
func (c *GCNConv) Apply(tp *autodiff.Tape, adj *tensor.CSR, x *autodiff.Node) *autodiff.Node {
	return tp.AddBias(tp.SpMM(adj, tp.MatMul(x, c.lin.W)), c.lin.B)
}

// Params implements Module.
func (c *GCNConv) Params() []*autodiff.Node { return c.lin.Params() }

// DiffusionConv is DCRNN's bidirectional diffusion convolution
// h = Σ_{k=0..K} (P_f^k·x)·Wf_k + (P_r^k·x)·Wr_k + b, where P_f and P_r are
// the forward and reverse random-walk transition matrices.
type DiffusionConv struct {
	K      int
	Wf, Wr []*autodiff.Node
	B      *autodiff.Node
}

// NewDiffusionConv returns a K-step bidirectional diffusion convolution.
func NewDiffusionConv(rng *rand.Rand, in, out, k int) *DiffusionConv {
	c := &DiffusionConv{K: k, B: autodiff.Param(tensor.New(1, out))}
	for i := 0; i <= k; i++ {
		c.Wf = append(c.Wf, autodiff.Param(tensor.Glorot(rng, in, out)))
		c.Wr = append(c.Wr, autodiff.Param(tensor.Glorot(rng, in, out)))
	}
	return c
}

// Diffused holds a diffusion convolution's propagated inputs P_f^k·x and
// P_r^k·x for k = 1..K. They depend on the input alone, not on any conv's
// weights, so convs reading the same input (a GRU's update and reset gates)
// can share one propagation.
type Diffused struct {
	X *autodiff.Node
	// hops[2(k-1)] is P_f^k·x and hops[2(k-1)+1] is P_r^k·x, on the active
	// rows p.Active: every other row of them is zero.
	hops []*autodiff.Node
	p    *tensor.Diffusion
}

// Diffuse propagates x through k steps of the forward and reverse transition
// matrices over the active rows: the first hop reads the n-row x, later hops
// the hop before them in the same direction. On a planning tape each hop runs
// on the rows the products above it read, and a hop's SpMM leaves out the rows
// of the hop below that are +0 whatever the data (autodiff.Tape.Run).
func Diffuse(tp *autodiff.Tape, p *tensor.Diffusion, x *autodiff.Node, k int) Diffused {
	d := Diffused{X: x, hops: make([]*autodiff.Node, 0, 2*k), p: p}
	in, aa := [2]*tensor.CSR{p.FwdIn, p.RevIn}, [2]*tensor.CSR{p.FwdAA, p.RevAA}
	for i := 0; i < k; i++ {
		for dir := range in {
			src, adj := x, in[dir]
			if i > 0 {
				src, adj = d.hops[2*(i-1)+dir], aa[dir]
			}
			d.hops = append(d.hops, tp.SpMM(adj, src))
		}
	}
	return d
}

// ApplyDiffused computes the convolution over an input already propagated
// K steps by Diffuse: the weighted sum, in ascending k, forward before
// reverse. The hop-0 terms cover every row; the hop terms are added on the
// active rows alone and scattered back, since an inactive row's hop inputs are
// zero and its sum is the hop-0 value bit for bit (DESIGN.md §8). Every op
// after the first product reads its running sum last, so when planned the
// conv draws one buffer for the rows and one for their active ones: each
// MatMulAcc adds into its sum, the scatter writes into the hop-0 sum and the
// bias is added where the scatter left it.
func (c *DiffusionConv) ApplyDiffused(tp *autodiff.Tape, d Diffused) *autodiff.Node {
	base := tp.MatMulAcc(tp.MatMul(d.X, c.Wf[0]), d.X, c.Wr[0])
	compact := d.p.ActiveRows() < d.p.Rows()
	sum := base
	if compact {
		sum = tp.GatherRows(base, d.p.Active)
	}
	for k := 1; k <= c.K; k++ {
		sum = tp.MatMulAcc(sum, d.hops[2*(k-1)], c.Wf[k])
		sum = tp.MatMulAcc(sum, d.hops[2*(k-1)+1], c.Wr[k])
	}
	if compact {
		sum = tp.ScatterRows(base, sum, d.p.Active)
	}
	return tp.AddBias(sum, c.B)
}

// Params implements Module.
func (c *DiffusionConv) Params() []*autodiff.Node {
	out := append([]*autodiff.Node{}, c.Wf...)
	out = append(out, c.Wr...)
	return append(out, c.B)
}

// MLP is a multilayer perceptron with ReLU activations between layers
// (the per-query prediction head of the paper's architecture, Figure 2).
type MLP struct {
	layers []*Linear
}

// NewMLP returns an MLP with the given layer widths, e.g. (rng, 16, 8, 1).
func NewMLP(rng *rand.Rand, dims ...int) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, NewLinear(rng, dims[i], dims[i+1]))
	}
	return m
}

// Apply runs the MLP; the final layer has no activation (logits/regression).
func (m *MLP) Apply(tp *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	h := x
	for i, l := range m.layers {
		h = l.Apply(tp, h)
		if i+1 < len(m.layers) {
			h = tp.ReLU(h)
		}
	}
	return h
}

// Score evaluates the MLP on n input rows one row at a time and returns each
// row's first output; fill writes row i's input into row and reports whether
// its first shared inputs are those of row i−1 (shared 0: none is carried).
// Each layer runs the kernels Apply's ops run, on one row: the product
// (tensor.MatMulTo), the bias and, between layers, the ReLU. From the second
// row of a run that repeats a nonzero prefix on, the first layer starts from
// the prefix's share instead of summing it again: the link head's rows of one
// source share their source's third. It multiplies [1 | the other inputs] by
// [the prefix's sums; W's other rows], MatMulTo's chains in the same order —
// 1·s is s, and s, summed from +0, is never −0. An all-±0 prefix takes the
// plain product, since MatMulTo would skip it where the whole row's product
// does not. So every score is bit-identical to Apply's on the stacked rows,
// and the scratch is a few rows, not a matrix.
func (m *MLP) Score(n, shared int, fill func(i int, row []float64) bool) []float64 {
	if n == 0 {
		return nil
	}
	rows := []*tensor.Matrix{tensor.New(1, m.layers[0].in)} // the input, then each layer's output
	for _, l := range m.layers {
		rows = append(rows, tensor.New(1, l.out))
	}
	w := m.layers[0].W.Value
	x, prefix := rows[0].Data, tensor.FromSlice(1, shared, rows[0].Data[:shared])
	var carried, rest *tensor.Matrix // [the prefix's sums; W's rows from shared] and [1 | x from shared]
	if shared > 0 {
		carried, rest = tensor.New(1+w.Rows-shared, w.Cols), tensor.New(1, 1+w.Rows-shared)
		copy(carried.Data[w.Cols:], w.Data[shared*w.Cols:])
		rest.Data[0] = 1
	}
	sums := false // carried's first row holds the sums of x's prefix
	scores := make([]float64, n)
	for i := range scores {
		switch {
		case !fill(i, x) || i == 0:
			sums = false
		case !sums && slices.ContainsFunc(prefix.Data, func(v float64) bool { return v != 0 }):
			tensor.MatMulTo(carried.RowRange(0, 1), prefix, w.RowRange(0, shared))
			sums = true
		}
		for k, l := range m.layers {
			y := rows[k+1]
			if k == 0 && sums {
				copy(rest.Data[1:], x[shared:])
				tensor.MatMulTo(y, rest, carried)
			} else {
				tensor.MatMulTo(y, rows[k], l.W.Value)
			}
			tensor.AddRowVectorTo(y, y, l.B.Value)
			if k+1 < len(m.layers) {
				tensor.ReLUTo(y, y)
			}
		}
		scores[i] = rows[len(m.layers)].Data[0]
	}
	for _, r := range append(rows, carried, rest) {
		tensor.Recycle(r)
	}
	return scores
}

// Params implements Module.
func (m *MLP) Params() []*autodiff.Node {
	var out []*autodiff.Node
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Clone returns a deep value copy of the MLP: same widths, independent
// parameter matrices. Cloned heads let serving snapshots score concurrently
// while training keeps updating the originals in place.
func (m *MLP) Clone() *MLP {
	c := &MLP{layers: make([]*Linear, len(m.layers))}
	for i, l := range m.layers {
		c.layers[i] = l.Clone()
	}
	return c
}
