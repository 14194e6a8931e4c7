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

// Forward implements Model.
func (m *TGCNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	tp.Plan()
	x := tp.ReLU(m.enc.Apply(tp, v.Norm, v.feat(tp)))
	conv := func(mod nn.Module, in *autodiff.Node) *autodiff.Node { return mod.(*nn.GCNConv).Apply(tp, v.Norm, in) }
	hNew := m.cell.Apply(tp, conv, x, m.state.input(tp, v))
	m.state.commit(tp, v, hNew)
	return v.run(tp, hNew)
}
