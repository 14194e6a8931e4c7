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
}

// NewGCLSTM returns a GC-LSTM with the given dimensions.
func NewGCLSTM(rng *rand.Rand, featDim, hidden int) *GCLSTMModel {
	return &GCLSTMModel{
		enc: nn.NewGCNConv(rng, featDim, hidden),
		cell: nn.NewConvLSTMCell(hidden, func() nn.Module {
			return nn.NewGCNConv(rng, hidden+hidden, hidden)
		}),
		hidden: hidden,
		hState: newNodeState(hidden),
		cState: newNodeState(hidden),
	}
}

// Name implements Model.
func (m *GCLSTMModel) Name() string { return "GCLSTM" }

// Layers implements Model.
func (m *GCLSTMModel) Layers() int { return 2 }

// Hidden implements Model.
func (m *GCLSTMModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *GCLSTMModel) Params() []*autodiff.Node { return nn.CollectParams(m.enc, m.cell) }

// BeginStep implements Model: snapshots recurrent state for the step's
// training forwards.
func (m *GCLSTMModel) BeginStep(t int) {
	m.hState.snapshot()
	m.cState.snapshot()
}

// Memoryless implements Model: GC-LSTM carries per-node LSTM state.
func (m *GCLSTMModel) Memoryless() bool { return false }

// PregrowState sizes the hidden- and cell-state buffers for n nodes ahead of
// a concurrent shard fan-out.
func (m *GCLSTMModel) PregrowState(n int) {
	m.hState.pregrow(n)
	m.cState.pregrow(n)
}

// Reset implements Model.
func (m *GCLSTMModel) Reset() {
	m.hState.reset()
	m.cState.reset()
}

// WrapOptimizer implements Model.
func (m *GCLSTMModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// Forward implements Model. In demand order the wanted rows read the gates
// and the old cell state on themselves, and the encoder and the old hidden
// state a hop out.
func (m *GCLSTMModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	n1 := v.rows(1)
	x := tp.ReLU(m.enc.Apply(tp, v.Norm.Head(n1, v.N), autodiff.Constant(v.Feat)))
	h := tp.OwnedConstant(m.hState.gatherHead(v, n1))
	c := tp.OwnedConstant(m.cState.gatherHead(v, v.rows(0)))
	conv := func(mod nn.Module, in *autodiff.Node, rows int) *autodiff.Node {
		return mod.(*nn.GCNConv).Apply(tp, v.Norm.Head(rows, in.Value.Rows), in)
	}
	hNew, cNew := m.cell.ApplyRows(tp, conv, x, h, c)
	m.hState.commit(tp, v, hNew)
	m.cState.commit(tp, v, cNew)
	return hNew
}
