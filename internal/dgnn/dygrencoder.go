package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
)

// DyGrEncoderModel is DyGrEncoder (Taheri & Berger-Wolf): a two-layer GCN
// encoder producing per-snapshot node embeddings, an LSTM carrying each
// node's embedding sequence through time, and a linear decoder.
type DyGrEncoderModel struct {
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	enc1, enc2 *nn.GCNConv
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	lstm *nn.LSTMCell
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	dec *nn.Linear
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	hState *nodeState
	cState *nodeState
	//streamlint:ckpt-exempt the state fields above again, which DumpState serializes
	nodeStates
}

// NewDyGrEncoder returns a DyGrEncoder with the given dimensions.
func NewDyGrEncoder(rng *rand.Rand, featDim, hidden int) *DyGrEncoderModel {
	m := &DyGrEncoderModel{
		enc1:   nn.NewGCNConv(rng, featDim, hidden),
		enc2:   nn.NewGCNConv(rng, hidden, hidden),
		lstm:   nn.NewLSTMCell(rng, hidden, hidden),
		dec:    nn.NewLinear(rng, hidden, hidden),
		hidden: hidden,
		hState: newNodeState(hidden),
		cState: newNodeState(hidden),
	}
	m.nodeStates = nodeStates{m.hState, m.cState}
	return m
}

// Name implements Model.
func (m *DyGrEncoderModel) Name() string { return "DyGrEncoder" }

// Layers implements Model.
func (m *DyGrEncoderModel) Layers() int { return 2 }

// Hidden implements Model.
func (m *DyGrEncoderModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *DyGrEncoderModel) Params() []*autodiff.Node {
	return nn.CollectParams(m.enc1, m.enc2, m.lstm, m.dec)
}

// WrapOptimizer implements Model.
func (m *DyGrEncoderModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// Forward implements Model.
func (m *DyGrEncoderModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	tp.Plan()
	x := tp.ReLU(m.enc1.Apply(tp, v.Norm, v.feat(tp)))
	x = tp.ReLU(m.enc2.Apply(tp, v.Norm, x))
	h, c := m.hState.input(tp, v), m.cState.input(tp, v)
	hNew, cNew := m.lstm.Apply(tp, x, h, c)
	m.hState.commit(tp, v, hNew)
	m.cState.commit(tp, v, cNew)
	return v.run(tp, tp.Tanh(m.dec.Apply(tp, hNew)))
}
