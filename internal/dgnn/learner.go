package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	srng "streamgnn/internal/rng"
	"streamgnn/internal/tensor"
)

// NewLearner returns the model a concurrent training half trains: a model of
// live's kind and width over featDim features, with parameter nodes of
// its own holding live's values, that shares live's recurrent-state objects,
// so live's BeginStep snapshots them for both. Its forwards must be NoCommit:
// a NoCommit gather reads only the BeginStep snapshot, never the live buffer
// live's committed forwards write, so the learner may train while live infers.
// The caller copies the trained values back (autodiff.CopyValues).
//
// Building it draws nothing from the caller's random stream: the construction
// values are overwritten, and WinGNN's optimizer seed is live's as long as the
// caller wraps the learner's optimizer with live.WrapOptimizer.
func NewLearner(live Model, featDim int) Model {
	kind, err := ParseKind(live.Name())
	if err != nil {
		panic(err)
	}
	m := New(kind, rand.New(srng.New(1)), featDim, live.Hidden())
	autodiff.CopyValues(m.Params(), live.Params())
	m.(interface{ shareState(live Model) }).shareState(live)
	return m
}

// StepForward returns the model for one step's NoCommit forwards on an
// inference tape, made after live's BeginStep: live itself, or for EvolveGCN
// a copy sharing live's parameters and weights that evolves W_t at its first
// forward and reads it as a constant at its later ones. It holds for that
// step only, while live's parameters and weights do not change.
func StepForward(live Model) Model {
	m, ok := live.(*EvolveGCNModel)
	if !ok {
		return live
	}
	return &EvolveGCNModel{layers: m.layers, weights: m.weights, hidden: m.hidden, stepW: make([]*tensor.Matrix, len(m.layers))}
}

// shareState points the receiver's recurrent state at live's (same kind).
func (m *TGCNModel) shareState(live Model) {
	m.state, m.nodeStates = live.(*TGCNModel).state, live.(*TGCNModel).nodeStates
}
func (m *DCRNNModel) shareState(live Model) {
	m.state, m.nodeStates = live.(*DCRNNModel).state, live.(*DCRNNModel).nodeStates
}
func (m *RTGCNModel) shareState(live Model) {
	m.state, m.nodeStates = live.(*RTGCNModel).state, live.(*RTGCNModel).nodeStates
}
func (m *WinGNNModel) shareState(Model) {}
func (m *GCLSTMModel) shareState(live Model) {
	l := live.(*GCLSTMModel)
	m.hState, m.cState, m.nodeStates = l.hState, l.cState, l.nodeStates
}
func (m *DyGrEncoderModel) shareState(live Model) {
	l := live.(*DyGrEncoderModel)
	m.hState, m.cState, m.nodeStates = l.hState, l.cState, l.nodeStates
}
func (m *ROLANDModel) shareState(live Model) {
	l := live.(*ROLANDModel)
	m.h1, m.h2, m.nodeStates = l.h1, l.h2, l.nodeStates
}
func (m *EvolveGCNModel) shareState(live Model) {
	m.weights = live.(*EvolveGCNModel).weights
}
