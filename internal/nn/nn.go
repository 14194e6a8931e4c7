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

// In returns the input dimension.
func (l *Linear) In() int { return l.in }

// Out returns the output dimension.
func (l *Linear) Out() int { return l.out }

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

// Out returns the output dimension.
func (c *GCNConv) Out() int { return c.lin.out }

// DiffusionConv is DCRNN's bidirectional diffusion convolution
// h = Σ_{k=0..K} (P_f^k·x)·Wf_k + (P_r^k·x)·Wr_k + b, where P_f and P_r are
// the forward and reverse random-walk transition matrices.
type DiffusionConv struct {
	K      int
	Wf, Wr []*autodiff.Node
	B      *autodiff.Node
	out    int
}

// NewDiffusionConv returns a K-step bidirectional diffusion convolution.
func NewDiffusionConv(rng *rand.Rand, in, out, k int) *DiffusionConv {
	c := &DiffusionConv{K: k, B: autodiff.Param(tensor.New(1, out)), out: out}
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
	// hops[2(k-1)] is P_f^k·x and hops[2(k-1)+1] is P_r^k·x, rows p.Active
	// only: every other row of them is zero.
	hops []*autodiff.Node
	p    *tensor.Diffusion
}

// Diffuse propagates x through k steps of the forward and reverse transition
// matrices, on the active rows: the first hop reads the n-row x, later hops
// the |A|-row hop before them.
func Diffuse(tp *autodiff.Tape, p *tensor.Diffusion, x *autodiff.Node, k int) Diffused {
	d := Diffused{X: x, hops: make([]*autodiff.Node, 0, 2*k), p: p}
	xf, xr := x, x
	fwd, rev := p.FwdIn, p.RevIn
	for i := 0; i < k; i++ {
		xf = tp.SpMM(fwd, xf)
		xr = tp.SpMM(rev, xr)
		d.hops = append(d.hops, xf, xr)
		fwd, rev = p.FwdAA, p.RevAA
	}
	return d
}

// Apply computes the diffusion convolution with the given forward and
// reverse transition matrices, every row taken as active.
func (c *DiffusionConv) Apply(tp *autodiff.Tape, fwd, rev *tensor.CSR, x *autodiff.Node) *autodiff.Node {
	p := &tensor.Diffusion{FwdIn: fwd, RevIn: rev, FwdAA: fwd, RevAA: rev}
	return c.ApplyDiffused(tp, Diffuse(tp, p, x, c.K), nil)
}

// ApplyDiffused computes the convolution over an input already propagated
// K steps by Diffuse, on the ascending rows want, or on every row when want is
// nil: the weighted sum, in ascending k, forward before reverse. The hop-0
// terms cover the wanted rows; the hop terms are added on the wanted rows that
// are active alone and scattered back, since an inactive row's hop inputs are
// zero and its sum is the hop-0 value bit for bit (DESIGN.md §8). Each product
// gathers the wanted rows for itself, which keeps its gradient share a term of
// its own (DESIGN.md §18). Every op after the first product reads its running
// sum last, so on a warm tape the conv draws one buffer for the wanted rows
// and one for their active ones: each MatMulAcc adds into its sum, the
// scatter writes into the hop-0 sum and the bias is added where the scatter
// left it.
func (c *DiffusionConv) ApplyDiffused(tp *autodiff.Tape, d Diffused, want []int) *autodiff.Node {
	rowsOf := func(x *autodiff.Node, rows []int) *autodiff.Node {
		if rows == nil {
			return x
		}
		return tp.GatherRows(x, rows)
	}
	base := tp.MatMulAcc(tp.MatMul(rowsOf(d.X, want), c.Wf[0]), rowsOf(d.X, want), c.Wr[0])
	at, hop := d.p.Active, []int(nil)
	compact := d.p.ActiveRows() < d.p.Rows()
	if want != nil {
		at, hop = d.wanted(want)
		compact = len(at) < len(want)
	}
	sum := base
	if compact {
		sum = tp.GatherRows(base, at)
	}
	for k := 1; k <= c.K; k++ {
		sum = tp.MatMulAcc(sum, rowsOf(d.hops[2*(k-1)], hop), c.Wf[k])
		sum = tp.MatMulAcc(sum, rowsOf(d.hops[2*(k-1)+1], hop), c.Wr[k])
	}
	if compact {
		sum = tp.ScatterRows(base, sum, at)
	}
	return tp.AddBias(sum, c.B)
}

// wanted returns the positions in want (ascending rows) of its active rows
// and where those rows sit in the hop matrices, nil when that is every hop row
// in order.
func (d Diffused) wanted(want []int) (at, hop []int) {
	p := d.p
	all := p.ActiveRows() == p.Rows()
	at, hop = make([]int, 0, len(want)), make([]int, 0, len(want))
	for i, r := range want {
		j, ok := r, all
		if !all {
			j, ok = slices.BinarySearch(p.Active, r)
		}
		if ok {
			at, hop = append(at, i), append(hop, j)
		}
	}
	if len(hop) == p.ActiveRows() {
		hop = nil
	}
	return at, hop
}

// Params implements Module.
func (c *DiffusionConv) Params() []*autodiff.Node {
	out := append([]*autodiff.Node{}, c.Wf...)
	out = append(out, c.Wr...)
	return append(out, c.B)
}

// Out returns the output dimension.
func (c *DiffusionConv) Out() int { return c.out }

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

// Params implements Module.
func (m *MLP) Params() []*autodiff.Node {
	var out []*autodiff.Node
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Out returns the output dimension.
func (m *MLP) Out() int { return m.layers[len(m.layers)-1].out }

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
