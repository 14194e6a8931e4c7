package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// DefaultRelations is the edge-type budget RTGCN reserves when built through
// dgnn.New; edges with larger type ids fall back to the self transform only.
const DefaultRelations = 4

// RTGCNModel is this repository's relation-aware extension of TGCN: an RGCN
// encoder and RGCN-gated GRU, one transform per edge type, built for the
// heterogeneous streams that motivate the paper (Example 1's lab events,
// prescriptions and procedure relations should not share a weight matrix).
// It is not one of the paper's seven evaluated baselines.
type RTGCNModel struct {
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	enc *nn.RGCNConv
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	cell *nn.ConvGRUCell
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	//streamlint:ckpt-exempt edge-type count is construction-time configuration
	relations int
	state     *nodeState
	//streamlint:ckpt-exempt the state fields above again, which DumpState serializes
	nodeStates
}

// NewRTGCN returns a relation-aware TGCN over `relations` edge types.
func NewRTGCN(rng *rand.Rand, featDim, hidden, relations int) *RTGCNModel {
	if relations < 1 {
		relations = 1
	}
	m := &RTGCNModel{
		enc: nn.NewRGCNConv(rng, featDim, hidden, relations),
		cell: nn.NewConvGRUCell(func() nn.Module {
			return nn.NewRGCNConv(rng, hidden+hidden, hidden, relations)
		}),
		hidden:    hidden,
		relations: relations,
		state:     newNodeState(hidden),
	}
	m.nodeStates = nodeStates{m.state}
	return m
}

// Name implements Model.
func (m *RTGCNModel) Name() string { return "RTGCN" }

// Layers implements Model.
func (m *RTGCNModel) Layers() int { return 2 }

// Hidden implements Model.
func (m *RTGCNModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *RTGCNModel) Params() []*autodiff.Node { return nn.CollectParams(m.enc, m.cell) }

// WrapOptimizer implements Model.
func (m *RTGCNModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// DumpState implements Model.
func (m *RTGCNModel) DumpState() []StateDump { return []StateDump{m.state.dump()} }

// RestoreState implements Model.
func (m *RTGCNModel) RestoreState(d []StateDump) (func(), error) { return restoreStates(d, m.state) }

// Forward implements Model. Views without typed adjacency support fall back
// to treating every edge as relation 0.
func (m *RTGCNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	tp.Plan()
	typed := []*tensor.CSR{v.Norm}
	if v.TypedFn != nil {
		typed = v.TypedFn(m.relations)
	}
	x := tp.ReLU(m.enc.Apply(tp, typed, v.feat(tp)))
	conv := func(mod nn.Module, in *autodiff.Node) *autodiff.Node { return mod.(*nn.RGCNConv).Apply(tp, typed, in) }
	hNew := m.cell.Apply(tp, conv, x, m.state.input(tp, v))
	m.state.commit(tp, v, hNew)
	return v.run(tp, hNew)
}
