package nn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
)

// GRUCell is a dense gated recurrent unit over row-batched inputs:
//
//	z = σ([x|h]·Wz + bz)   r = σ([x|h]·Wr + br)
//	c = tanh([x|r∘h]·Wc + bc)   h' = z∘h + (1−z)∘c
type GRUCell struct {
	wz, wr, wc *Linear
}

// NewGRUCell returns a GRU cell with the given input and hidden sizes.
func NewGRUCell(rng *rand.Rand, in, hidden int) *GRUCell {
	return &GRUCell{
		wz: NewLinear(rng, in+hidden, hidden),
		wr: NewLinear(rng, in+hidden, hidden),
		wc: NewLinear(rng, in+hidden, hidden),
	}
}

// Apply advances the cell one step.
func (c *GRUCell) Apply(tp *autodiff.Tape, x, h *autodiff.Node) *autodiff.Node {
	xh := tp.ConcatCols(x, h)
	z := tp.Sigmoid(c.wz.Apply(tp, xh))
	r := tp.Sigmoid(c.wr.Apply(tp, xh))
	cand := tp.Tanh(c.wc.Apply(tp, tp.ConcatCols(x, tp.Mul(r, h))))
	return tp.Add(tp.Mul(z, h), tp.Mul(tp.OneMinus(z), cand))
}

// Params implements Module.
func (c *GRUCell) Params() []*autodiff.Node {
	return CollectParams(c.wz, c.wr, c.wc)
}

// LSTMCell is a dense long short-term memory cell over row-batched inputs.
type LSTMCell struct {
	wi, wf, wo, wg *Linear
}

// NewLSTMCell returns an LSTM cell with the given input and hidden sizes.
func NewLSTMCell(rng *rand.Rand, in, hidden int) *LSTMCell {
	return &LSTMCell{
		wi: NewLinear(rng, in+hidden, hidden),
		wf: NewLinear(rng, in+hidden, hidden),
		wo: NewLinear(rng, in+hidden, hidden),
		wg: NewLinear(rng, in+hidden, hidden),
	}
}

// Apply advances the cell one step, returning the new hidden and cell state.
func (c *LSTMCell) Apply(tp *autodiff.Tape, x, h, cell *autodiff.Node) (hNew, cellNew *autodiff.Node) {
	xh := tp.ConcatCols(x, h)
	i := tp.Sigmoid(c.wi.Apply(tp, xh))
	f := tp.Sigmoid(c.wf.Apply(tp, xh))
	o := tp.Sigmoid(c.wo.Apply(tp, xh))
	g := tp.Tanh(c.wg.Apply(tp, xh))
	cellNew = tp.Add(tp.Mul(f, cell), tp.Mul(i, g))
	hNew = tp.Mul(o, tp.Tanh(cellNew))
	return hNew, cellNew
}

// Params implements Module.
func (c *LSTMCell) Params() []*autodiff.Node {
	return CollectParams(c.wi, c.wf, c.wo, c.wg)
}

// GraphConvFn applies some graph convolution to x; it abstracts over GCN and
// diffusion convolutions so the gated cells below can host either.
type GraphConvFn func(tp *autodiff.Tape, x *autodiff.Node) *autodiff.Node

// ConvGRUCell is a GRU whose gate transforms are graph convolutions (the
// recurrence of TGCN and DCRNN).
type ConvGRUCell struct {
	convZ, convR, convC Module
}

// NewConvGRUCell builds a graph-gated GRU from three conv constructors;
// newConv produces a conv mapping in+hidden -> hidden channels.
func NewConvGRUCell(newConv func() Module) *ConvGRUCell {
	return &ConvGRUCell{convZ: newConv(), convR: newConv(), convC: newConv()}
}

// Rows selects the rows a cell computes: the leading N, on rows in demand
// order (graph.Region), or, when Want is non-nil, the ascending rows it lists
// instead (the rows a training round's loss reads, dgnn.View.Want), which
// only DCRNN's convolution takes.
type Rows struct {
	N    int
	Want []int
}

// RowConv applies gate module m's graph convolution to x and returns the
// selected rows of the result. The caller binds the adjacency inside it; a
// convolution that reads one hop takes the adjacency's rows×x.Rows head.
type RowConv func(m Module, x *autodiff.Node, rows Rows) *autodiff.Node

// allRows adapts a convolution that always returns every row.
func allRows(conv func(m Module, x *autodiff.Node) *autodiff.Node) RowConv {
	return func(m Module, x *autodiff.Node, _ Rows) *autodiff.Node { return conv(m, x) }
}

// Apply advances the cell over every row: conv is invoked with each gate's
// conv module and the gate input.
func (c *ConvGRUCell) Apply(tp *autodiff.Tape, conv func(m Module, x *autodiff.Node) *autodiff.Node, x, h *autodiff.Node) *autodiff.Node {
	n := h.Value.Rows
	return c.ApplyRows(tp, allRows(conv), x, h, Rows{N: n}, n)
}

// ApplyRows advances the cell for the rows n0 selects — its leading rows, on
// rows in demand order (graph.Region), or a list of them: the new state of
// those rows reads the update gate and the candidate on them, whose
// convolutions read their inputs — and so the reset gate — on the n1 rows
// within a hop, whose convolution reads x and h wherever they are given. A
// list needs n1 to be every row. With n0 and n1 all rows no Head is recorded
// and this is the plain cell. [x|h], its head and [x|r∘h] are views over x,
// h and r∘h, which the convolutions' products and SpMMs read where they are;
// their backward gives a part its block only where it needs one, never to a
// constant h. On a warm tape every gate activation writes over its
// convolution's output. On a warm inference tape every term of the update
// also writes over an operand it reads last — h's buffer, through h's last
// head, included, once no view of h is read any more — where a recording
// tape keeps the ones a product's backward rule reads, and the parts of a
// concatenation whose weight rule reads it.
func (c *ConvGRUCell) ApplyRows(tp *autodiff.Tape, conv RowConv, x, h *autodiff.Node, n0 Rows, n1 int) *autodiff.Node {
	xh := tp.ConcatCols(x, h)
	z := tp.Sigmoid(conv(c.convZ, tp.Head(xh, n1), n0))
	r := tp.Sigmoid(conv(c.convR, xh, Rows{N: n1}))
	rh := tp.Mul(r, tp.Head(h, n1))
	cand := tp.Tanh(conv(c.convC, tp.ConcatCols(tp.Head(x, n1), rh), n0))
	var h0 *autodiff.Node
	if n0.Want != nil {
		h0 = tp.GatherRows(h, n0.Want)
	} else {
		h0 = tp.Head(h, n0.N)
	}
	return tp.Add(tp.Mul(z, h0), tp.Mul(tp.OneMinus(z), cand))
}

// Params implements Module.
func (c *ConvGRUCell) Params() []*autodiff.Node {
	return CollectParams(c.convZ, c.convR, c.convC)
}

// ConvLSTMCell is an LSTM whose gate transforms are graph convolutions
// (the recurrence of GCLSTM).
type ConvLSTMCell struct {
	convI, convF, convO, convG Module
}

// NewConvLSTMCell builds a graph-gated LSTM from four conv constructors.
func NewConvLSTMCell(newConv func() Module) *ConvLSTMCell {
	return &ConvLSTMCell{convI: newConv(), convF: newConv(), convO: newConv(), convG: newConv()}
}

// Apply advances the cell over every row, returning new hidden and cell state.
func (c *ConvLSTMCell) Apply(tp *autodiff.Tape, conv func(m Module, x *autodiff.Node) *autodiff.Node, x, h, cell *autodiff.Node) (hNew, cellNew *autodiff.Node) {
	return c.ApplyRows(tp, allRows(conv), x, h, cell)
}

// ApplyRows advances the cell for the rows cell is given on — the leading
// rows, in demand order, of the ones x and h cover: every gate convolves
// [x|h], a view over x and h that the four products read where they are, and
// is read on those rows alone. On a warm tape every gate activation writes
// over its convolution's output. On a warm inference tape every product
// also writes over the gate it reads, which a recording tape keeps for the
// product's backward rule; tanh(cellNew) gets a buffer of its own where the
// model keeps cellNew as state.
func (c *ConvLSTMCell) ApplyRows(tp *autodiff.Tape, conv RowConv, x, h, cell *autodiff.Node) (hNew, cellNew *autodiff.Node) {
	n0 := Rows{N: cell.Value.Rows}
	xh := tp.ConcatCols(x, h)
	i := tp.Sigmoid(conv(c.convI, xh, n0))
	f := tp.Sigmoid(conv(c.convF, xh, n0))
	o := tp.Sigmoid(conv(c.convO, xh, n0))
	g := tp.Tanh(conv(c.convG, xh, n0))
	cellNew = tp.Add(tp.Mul(f, cell), tp.Mul(i, g))
	hNew = tp.Mul(o, tp.Tanh(cellNew))
	return hNew, cellNew
}

// Params implements Module.
func (c *ConvLSTMCell) Params() []*autodiff.Node {
	return CollectParams(c.convI, c.convF, c.convO, c.convG)
}
