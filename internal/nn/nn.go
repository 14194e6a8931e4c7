// Package nn provides the neural building blocks shared by the seven dynamic
// graph neural network baselines: linear layers, graph convolutions
// (GCN-normalized and diffusion), graph-gated GRU/LSTM cells, dense GRU/LSTM
// cells, and MLPs. Every module exposes its parameters for an optimizer.
package nn

import (
	"fmt"
	"math/rand"

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
	// hops[2(k-1)] is P_f^k·x and hops[2(k-1)+1] is P_r^k·x, on the rows
	// rows[k-1] lists, or on the rows p.Active when rows is nil: every other
	// row of them is zero or read by nothing.
	hops []*autodiff.Node
	rows [][2][]int
	p    *tensor.Diffusion
}

// Diffuse propagates x through k steps of the forward and reverse transition
// matrices: the first hop reads the n-row x, later hops the hop before them
// in the same direction. With rows nil every hop covers the active rows.
// Otherwise rows[k-1] lists the rows hop k is computed on, forward then
// reverse — ascending active rows, among them every row the hop above reads
// through that direction's transition rows, unless it is +0 at hop k — and
// each hop is an SpMM over its rows' block of the matrix, columns renumbered
// to the rows of the hop below and entries naming a row it leaves out left
// out too (tensor.CSR.Block). Either way every row a hop holds sums the same
// nonzero terms in the same order, bit for bit, and each column of an SpMM's
// transpose accumulates over the same rows in the same order, less rows whose
// gradient is ±0 — those outside every listed row's reach.
func Diffuse(tp *autodiff.Tape, p *tensor.Diffusion, x *autodiff.Node, k int, rows [][2][]int) Diffused {
	d := Diffused{X: x, hops: make([]*autodiff.Node, 0, 2*k), rows: rows, p: p}
	in, aa := [2]*tensor.CSR{p.FwdIn, p.RevIn}, [2]*tensor.CSR{p.FwdAA, p.RevAA}
	for i := 0; i < k; i++ {
		for dir := range in {
			src, adj := x, in[dir]
			if i > 0 {
				src, adj = d.hops[2*(i-1)+dir], aa[dir]
			}
			if rows != nil {
				var cols []int // the hop below's rows; nil is x's n rows
				if i > 0 {
					cols = rows[i-1][dir]
				}
				adj = in[dir].Block(positions(p, rows[i][dir]), cols)
			}
			d.hops = append(d.hops, tp.SpMM(adj, src))
		}
	}
	return d
}

// positions returns the rows of p's active block that rows (ascending active
// rows) are.
func positions(p *tensor.Diffusion, rows []int) []int {
	at := make([]int, len(rows))
	for i, r := range rows {
		j, ok := p.Position(r)
		if !ok {
			panic(fmt.Sprintf("nn: row %d of a hop is not active", r))
		}
		at[i] = j
	}
	return at
}

// Apply computes the diffusion convolution with the given forward and
// reverse transition matrices, every row taken as active.
func (c *DiffusionConv) Apply(tp *autodiff.Tape, fwd, rev *tensor.CSR, x *autodiff.Node) *autodiff.Node {
	p := &tensor.Diffusion{FwdIn: fwd, RevIn: rev, FwdAA: fwd, RevAA: rev}
	return c.ApplyDiffused(tp, Diffuse(tp, p, x, c.K, nil), nil)
}

// ApplyDiffused computes the convolution over an input already propagated
// K steps by Diffuse, on the ascending rows want, or on every row when want is
// nil: the weighted sum, in ascending k, forward before reverse. The hop-0
// terms cover the wanted rows; the hop terms are added on the wanted rows
// that are active alone and scattered back, since an inactive row's hop
// inputs are zero and its sum is the hop-0 value bit for bit (DESIGN.md §8).
// A product reads its hop where it is when the hop holds exactly its rows —
// every active row, or the last hop listed for those rows — and otherwise
// gathers them for itself, as it gathers its wanted rows of x: that keeps its
// gradient share a term of its own (DESIGN.md §18). Every op after the first
// product reads its running sum last, so on a warm tape the conv draws one
// buffer for the wanted rows and one for their active ones: each MatMulAcc
// adds into its sum, the scatter writes into the hop-0 sum and the bias is
// added where the scatter left it.
func (c *DiffusionConv) ApplyDiffused(tp *autodiff.Tape, d Diffused, want []int) *autodiff.Node {
	rowsOf := func(x *autodiff.Node, rows []int) *autodiff.Node {
		if rows == nil {
			return x
		}
		return tp.GatherRows(x, rows)
	}
	base := tp.MatMulAcc(tp.MatMul(rowsOf(d.X, want), c.Wf[0]), rowsOf(d.X, want), c.Wr[0])
	at, act := d.p.Active, []int(nil)
	compact := d.p.ActiveRows() < d.p.Rows()
	if want != nil {
		at, act = d.active(want)
		compact = len(at) < len(want)
	}
	sum := base
	if compact {
		sum = tp.GatherRows(base, at)
	}
	for k := 1; k <= c.K; k++ {
		sum = tp.MatMulAcc(sum, rowsOf(d.hops[2*(k-1)], d.hopRows(k, 0, act)), c.Wf[k])
		sum = tp.MatMulAcc(sum, rowsOf(d.hops[2*(k-1)+1], d.hopRows(k, 1, act)), c.Wr[k])
	}
	if compact {
		sum = tp.ScatterRows(base, sum, at)
	}
	return tp.AddBias(sum, c.B)
}

// active returns the positions in want (ascending rows) of its active rows,
// and those rows.
func (d Diffused) active(want []int) (at, rows []int) {
	at, rows = make([]int, 0, len(want)), make([]int, 0, len(want))
	for i, r := range want {
		if _, ok := d.p.Position(r); ok {
			at, rows = append(at, i), append(rows, r)
		}
	}
	return at, rows
}

// hopRows returns where the ascending active rows rows sit in hop k of
// direction dir — rows nil is every active row, which listed hops are not
// read on — and nil when the product reads the hop where it is. Of listed
// hops that is the last alone, read on the rows it was listed for: a lower
// hop also holds the rows the hop above reads, and a product's rows fill it
// only where the data closes them, which would change the tape's program from
// round to round and lose the writes in place a warm tape learned.
func (d Diffused) hopRows(k, dir int, rows []int) []int {
	if d.rows == nil {
		if rows == nil || len(rows) == d.p.ActiveRows() {
			return nil
		}
		return positions(d.p, rows)
	}
	have := d.rows[k-1][dir]
	at, j := make([]int, len(rows)), 0
	for i, r := range rows {
		for j < len(have) && have[j] < r {
			j++
		}
		if j == len(have) || have[j] != r {
			panic(fmt.Sprintf("nn: row %d is read from hop %d, which does not hold it", r, k))
		}
		at[i] = j
	}
	if k == len(d.rows) && len(at) == len(have) {
		return nil
	}
	return at
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
// row's first output; fill writes row i's input into row. Each layer runs the
// kernels Apply's ops run, on one row: the product (tensor.MatMulTo), the bias
// and, between layers, the ReLU. So every score is bit-identical to Apply's
// on the stacked rows, and the scratch is one row per layer, not a matrix.
func (m *MLP) Score(n int, fill func(i int, row []float64)) []float64 {
	if n == 0 {
		return nil
	}
	rows := []*tensor.Matrix{tensor.New(1, m.layers[0].in)} // the input, then each layer's output
	for _, l := range m.layers {
		rows = append(rows, tensor.New(1, l.out))
	}
	scores := make([]float64, n)
	for i := range scores {
		fill(i, rows[0].Data)
		for k, l := range m.layers {
			y := tensor.AddRowVectorTo(rows[k+1], tensor.MatMulTo(rows[k+1], rows[k], l.W.Value), l.B.Value)
			if k+1 < len(m.layers) {
				tensor.ReLUTo(y, y)
			}
		}
		scores[i] = rows[len(m.layers)].Data[0]
	}
	for _, r := range rows {
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
