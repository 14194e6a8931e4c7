package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
)

// TGCNModel is TGCN (Zhao et al.): a GRU whose gate transforms are GCN
// convolutions. We use one GCN encoder layer followed by a graph-gated GRU,
// giving a 2-hop receptive field per step (Layers() == 2).
type TGCNModel struct {
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	enc *nn.GCNConv
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	cell *nn.ConvGRUCell
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	state  *nodeState
	//streamlint:ckpt-exempt the state fields above again, which DumpState serializes
	nodeStates
}

// NewTGCN returns a TGCN with the given feature and hidden dimensions.
func NewTGCN(rng *rand.Rand, featDim, hidden int) *TGCNModel {
	m := &TGCNModel{
		enc: nn.NewGCNConv(rng, featDim, hidden),
		cell: nn.NewConvGRUCell(func() nn.Module {
			return nn.NewGCNConv(rng, hidden+hidden, hidden)
		}),
		hidden: hidden,
		state:  newNodeState(hidden),
	}
	m.nodeStates = nodeStates{m.state}
	return m
}

// Name implements Model.
func (m *TGCNModel) Name() string { return "TGCN" }

// Layers implements Model.
func (m *TGCNModel) Layers() int { return 2 }

// Hidden implements Model.
func (m *TGCNModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *TGCNModel) Params() []*autodiff.Node { return nn.CollectParams(m.enc, m.cell) }

// WrapOptimizer implements Model.
func (m *TGCNModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// Forward implements Model. In demand order the wanted rows read the update
// gate and the candidate on themselves, the reset gate a hop out, and the
// encoder and the old state two hops out. A view that lists its wanted rows
// (View.Want) gets those alone: the update gate, the candidate and the
// combine run on them, the encoder and the reset gate on every row.
func (m *TGCNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	n2 := v.rows(2)
	x := tp.ReLU(m.enc.Apply(tp, v.Norm.Head(n2, v.N), autodiff.Constant(v.Feat)))
	h := tp.OwnedConstant(m.state.gatherHead(v, n2))
	hNew := m.cell.ApplyRows(tp, v.gcnConv(tp), x, h, nn.Rows{N: v.rows(0), Want: v.Want}, v.rows(1))
	m.state.commit(tp, v, hNew)
	return hNew
}
