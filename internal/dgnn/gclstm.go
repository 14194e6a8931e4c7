package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
)

// GCLSTMModel is GC-LSTM (Chen et al.): an LSTM whose gate transforms are
// graph convolutions, preceded by a GCN encoder layer (Layers() == 2).
type GCLSTMModel struct {
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	enc *nn.GCNConv
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	cell *nn.ConvLSTMCell
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	hState *nodeState
	cState *nodeState
	//streamlint:ckpt-exempt the state fields above again, which DumpState serializes
	nodeStates
}

// NewGCLSTM returns a GC-LSTM with the given dimensions.
func NewGCLSTM(rng *rand.Rand, featDim, hidden int) *GCLSTMModel {
	m := &GCLSTMModel{
		enc: nn.NewGCNConv(rng, featDim, hidden),
		cell: nn.NewConvLSTMCell(func() nn.Module {
			return nn.NewGCNConv(rng, hidden+hidden, hidden)
		}),
		hidden: hidden,
		hState: newNodeState(hidden),
		cState: newNodeState(hidden),
	}
	m.nodeStates = nodeStates{m.hState, m.cState}
	return m
}

// Name implements Model.
func (m *GCLSTMModel) Name() string { return "GCLSTM" }

// Layers implements Model.
func (m *GCLSTMModel) Layers() int { return 2 }

// Hidden implements Model.
func (m *GCLSTMModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *GCLSTMModel) Params() []*autodiff.Node { return nn.CollectParams(m.enc, m.cell) }

// WrapOptimizer implements Model.
func (m *GCLSTMModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// Forward implements Model.
func (m *GCLSTMModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	tp.Plan()
	x := tp.ReLU(m.enc.Apply(tp, v.Norm, v.feat(tp)))
	h, c := m.hState.input(tp, v), m.cState.input(tp, v)
	conv := func(mod nn.Module, in *autodiff.Node) *autodiff.Node { return mod.(*nn.GCNConv).Apply(tp, v.Norm, in) }
	hNew, cNew := m.cell.Apply(tp, conv, x, h, c)
	m.hState.commit(tp, v, hNew)
	m.cState.commit(tp, v, cNew)
	return v.run(tp, hNew)
}
