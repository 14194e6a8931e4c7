package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
)

// DCRNNModel is DCRNN (Li et al.): a GRU whose gate transforms are K-step
// bidirectional diffusion convolutions over the forward and reverse
// random-walk transition matrices. K == 2, so Layers() == 2.
type DCRNNModel struct {
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	cell *nn.ConvGRUCell
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	//streamlint:ckpt-exempt diffusion order is construction-time configuration
	k     int
	state *nodeState
	//streamlint:ckpt-exempt the state fields above again, which DumpState serializes
	nodeStates
}

// NewDCRNN returns a DCRNN with diffusion order 2.
func NewDCRNN(rng *rand.Rand, featDim, hidden int) *DCRNNModel {
	const k = 2
	m := &DCRNNModel{
		cell: nn.NewConvGRUCell(func() nn.Module {
			return nn.NewDiffusionConv(rng, featDim+hidden, hidden, k)
		}),
		hidden: hidden,
		k:      k,
		state:  newNodeState(hidden),
	}
	m.nodeStates = nodeStates{m.state}
	return m
}

// Name implements Model.
func (m *DCRNNModel) Name() string { return "DCRNN" }

// Layers implements Model.
func (m *DCRNNModel) Layers() int { return m.k }

// Hidden implements Model.
func (m *DCRNNModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *DCRNNModel) Params() []*autodiff.Node { return m.cell.Params() }

// WrapOptimizer implements Model.
func (m *DCRNNModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// Forward implements Model. The update and reset gates convolve the same
// input [x|h], a constant of the tape, so its K-step propagation is computed
// once and shared; the candidate gate's input differs and propagates afresh.
//
// A view in demand order is still forwarded whole — K hops over the active
// block do not reduce to leading blocks of one adjacency — and hands back its
// wanted rows. A view that lists its wanted rows (View.Want) gets those alone:
// the update gate, the candidate and the combine run on them, the reset gate
// and the two propagations on every row.
func (m *DCRNNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	h := tp.OwnedConstant(m.state.gather(v))
	rw := v.RWFn()
	var d nn.Diffused
	conv := func(mod nn.Module, in *autodiff.Node, rows nn.Rows) *autodiff.Node {
		if d.X != in {
			d = nn.Diffuse(tp, rw, in, m.k)
		}
		return mod.(*nn.DiffusionConv).ApplyDiffused(tp, d, rows.Want)
	}
	hNew := m.cell.ApplyRows(tp, conv, autodiff.Constant(v.Feat), h, nn.Rows{N: v.N, Want: v.Want}, v.N)
	m.state.commit(tp, v, hNew)
	if v.Want != nil {
		return hNew
	}
	return tp.Head(hNew, v.rows(0))
}
