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
func (m *DCRNNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	tp.Plan()
	h := m.state.input(tp, v)
	rw := v.RWFn()
	var d nn.Diffused
	conv := func(mod nn.Module, in *autodiff.Node) *autodiff.Node {
		if d.X != in {
			d = nn.Diffuse(tp, rw, in, m.k)
		}
		return mod.(*nn.DiffusionConv).ApplyDiffused(tp, d)
	}
	hNew := m.cell.Apply(tp, conv, v.feat(tp), h)
	m.state.commit(tp, v, hNew)
	return v.run(tp, hNew)
}
