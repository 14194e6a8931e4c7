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

// Forward implements Model. In demand order the wanted rows read the gates
// and the old cell state on themselves, and the encoder and the old hidden
// state a hop out. A view that lists its wanted rows (View.Want) gets those
// alone: the gates, the old cell state and the update on them, the encoder
// and the old hidden state on every row.
func (m *GCLSTMModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	n1 := v.rows(1)
	x := tp.ReLU(m.enc.Apply(tp, v.Norm.Head(n1, v.N), autodiff.Constant(v.Feat)))
	h := tp.OwnedConstant(m.hState.gatherHead(v, n1))
	n0 := nn.Rows{N: v.rows(0), Want: v.Want}
	c := tp.OwnedConstant(m.cState.gatherSel(v, n0))
	hNew, cNew := m.cell.ApplyRows(tp, v.gcnConv(tp), x, h, c, n0)
	m.hState.commit(tp, v, hNew)
	m.cState.commit(tp, v, cNew)
	return hNew
}
