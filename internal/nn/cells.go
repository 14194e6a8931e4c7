package nn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
)

// GRUCell is a dense gated recurrent unit over row-batched inputs, a
// ConvGRUCell whose gate transforms are linear layers:
//
//	z = σ([x|h]·Wz + bz)   r = σ([x|h]·Wr + br)
//	c = tanh([x|r∘h]·Wc + bc)   h' = z∘h + (1−z)∘c
type GRUCell struct{ ConvGRUCell }

// NewGRUCell returns a GRU cell with the given input and hidden sizes.
func NewGRUCell(rng *rand.Rand, in, hidden int) *GRUCell {
	return &GRUCell{*NewConvGRUCell(func() Module { return NewLinear(rng, in+hidden, hidden) })}
}

// Apply advances the cell one step.
func (c *GRUCell) Apply(tp *autodiff.Tape, x, h *autodiff.Node) *autodiff.Node {
	return c.ConvGRUCell.Apply(tp, linear(tp), x, h)
}

// LSTMCell is a dense long short-term memory cell over row-batched inputs, a
// ConvLSTMCell whose gate transforms are linear layers.
type LSTMCell struct{ ConvLSTMCell }

// NewLSTMCell returns an LSTM cell with the given input and hidden sizes.
func NewLSTMCell(rng *rand.Rand, in, hidden int) *LSTMCell {
	return &LSTMCell{*NewConvLSTMCell(func() Module { return NewLinear(rng, in+hidden, hidden) })}
}

// Apply advances the cell one step, returning the new hidden and cell state.
func (c *LSTMCell) Apply(tp *autodiff.Tape, x, h, cell *autodiff.Node) (hNew, cellNew *autodiff.Node) {
	return c.ConvLSTMCell.Apply(tp, linear(tp), x, h, cell)
}

// linear is a dense cell's gate transform: its gate's linear layer.
func linear(tp *autodiff.Tape) func(m Module, x *autodiff.Node) *autodiff.Node {
	return func(m Module, x *autodiff.Node) *autodiff.Node { return m.(*Linear).Apply(tp, x) }
}

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

// Apply advances the cell: conv is invoked with each gate's conv module and
// the gate input. [x|h] and [x|r∘h] are views over x, h and r∘h, which the
// convolutions read where they are; their backward gives a part its block
// only where it needs one. Planned, every gate activation writes over its
// convolution's output, and on an inference tape every term of the update
// over an operand it reads last, where a recording tape keeps the ones a
// backward rule reads.
func (c *ConvGRUCell) Apply(tp *autodiff.Tape, conv func(m Module, x *autodiff.Node) *autodiff.Node, x, h *autodiff.Node) *autodiff.Node {
	xh := tp.ConcatCols(x, h)
	z := tp.Sigmoid(conv(c.convZ, xh))
	r := tp.Sigmoid(conv(c.convR, xh))
	cand := tp.Tanh(conv(c.convC, tp.ConcatCols(x, tp.Mul(r, h))))
	return tp.Add(tp.Mul(z, h), tp.Mul(tp.OneMinus(z), cand))
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

// Apply advances the cell, returning new hidden and cell state: every gate
// convolves [x|h], a view over x and h that the four products read where they
// are. Planned, every gate activation writes over its convolution's output,
// and on an inference tape every product also writes over the gate it reads,
// which a recording tape keeps for the product's backward rule; tanh(cellNew)
// gets a buffer of its own where the model keeps cellNew as state.
func (c *ConvLSTMCell) Apply(tp *autodiff.Tape, conv func(m Module, x *autodiff.Node) *autodiff.Node, x, h, cell *autodiff.Node) (hNew, cellNew *autodiff.Node) {
	xh := tp.ConcatCols(x, h)
	i := tp.Sigmoid(conv(c.convI, xh))
	f := tp.Sigmoid(conv(c.convF, xh))
	o := tp.Sigmoid(conv(c.convO, xh))
	g := tp.Tanh(conv(c.convG, xh))
	cellNew = tp.Add(tp.Mul(f, cell), tp.Mul(i, g))
	hNew = tp.Mul(o, tp.Tanh(cellNew))
	return hNew, cellNew
}

// Params implements Module.
func (c *ConvLSTMCell) Params() []*autodiff.Node {
	return CollectParams(c.convI, c.convF, c.convO, c.convG)
}
