package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
)

// ROLANDModel is ROLAND (You et al.): a layerwise hidden-state GNN. Each GNN
// layer keeps a per-node hidden state that is updated from the layer's fresh
// convolution output with a GRU-style embedding-update module, trained in
// the live-update regime (truncated BPTT, window 1).
type ROLANDModel struct {
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	conv1, conv2 *nn.GCNConv
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	upd1, upd2 *nn.GRUCell
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	h1, h2 *nodeState
	//streamlint:ckpt-exempt the state fields above again, which DumpState serializes
	nodeStates
}

// NewROLAND returns a two-layer ROLAND with GRU embedding updates.
func NewROLAND(rng *rand.Rand, featDim, hidden int) *ROLANDModel {
	m := &ROLANDModel{
		conv1:  nn.NewGCNConv(rng, featDim, hidden),
		conv2:  nn.NewGCNConv(rng, hidden, hidden),
		upd1:   nn.NewGRUCell(rng, hidden, hidden),
		upd2:   nn.NewGRUCell(rng, hidden, hidden),
		hidden: hidden,
		h1:     newNodeState(hidden),
		h2:     newNodeState(hidden),
	}
	m.nodeStates = nodeStates{m.h1, m.h2}
	return m
}

// Name implements Model.
func (m *ROLANDModel) Name() string { return "ROLAND" }

// Layers implements Model.
func (m *ROLANDModel) Layers() int { return 2 }

// Hidden implements Model.
func (m *ROLANDModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *ROLANDModel) Params() []*autodiff.Node {
	return nn.CollectParams(m.conv1, m.conv2, m.upd1, m.upd2)
}

// WrapOptimizer implements Model.
func (m *ROLANDModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// Forward implements Model.
func (m *ROLANDModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	tp.Plan()
	// Layer 1: conv on raw features, then hidden-state update.
	c1 := tp.ReLU(m.conv1.Apply(tp, v.Norm, v.feat(tp)))
	new1 := m.upd1.Apply(tp, c1, m.h1.input(tp, v))

	// Layer 2: conv on layer-1 state, then hidden-state update.
	c2 := tp.ReLU(m.conv2.Apply(tp, v.Norm, new1))
	new2 := m.upd2.Apply(tp, c2, m.h2.input(tp, v))

	m.h1.commit(tp, v, new1)
	m.h2.commit(tp, v, new2)
	return v.run(tp, new2)
}
