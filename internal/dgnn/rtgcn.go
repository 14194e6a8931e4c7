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
}

// NewRTGCN returns a relation-aware TGCN over `relations` edge types.
func NewRTGCN(rng *rand.Rand, featDim, hidden, relations int) *RTGCNModel {
	if relations < 1 {
		relations = 1
	}
	return &RTGCNModel{
		enc: nn.NewRGCNConv(rng, featDim, hidden, relations),
		cell: nn.NewConvGRUCell(hidden, func() nn.Module {
			return nn.NewRGCNConv(rng, hidden+hidden, hidden, relations)
		}),
		hidden:    hidden,
		relations: relations,
		state:     newNodeState(hidden),
	}
}

// Name implements Model.
func (m *RTGCNModel) Name() string { return "RTGCN" }

// Layers implements Model.
func (m *RTGCNModel) Layers() int { return 2 }

// Hidden implements Model.
func (m *RTGCNModel) Hidden() int { return m.hidden }

// Relations returns the edge-type budget.
func (m *RTGCNModel) Relations() int { return m.relations }

// Params implements Model.
func (m *RTGCNModel) Params() []*autodiff.Node { return nn.CollectParams(m.enc, m.cell) }

// BeginStep implements Model.
func (m *RTGCNModel) BeginStep(t int) { m.state.snapshot() }

// Memoryless implements Model: RTGCN carries per-node GRU state.
func (m *RTGCNModel) Memoryless() bool { return false }

// PregrowState sizes the hidden-state buffers for n nodes ahead of a
// concurrent shard fan-out.
func (m *RTGCNModel) PregrowState(n int) { m.state.pregrow(n) }

// Reset implements Model.
func (m *RTGCNModel) Reset() { m.state.reset() }

// WrapOptimizer implements Model.
func (m *RTGCNModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// DumpState implements Model.
func (m *RTGCNModel) DumpState() []StateDump { return []StateDump{m.state.dump()} }

// RestoreState implements Model.
func (m *RTGCNModel) RestoreState(d []StateDump) (func(), error) { return restoreStates(d, m.state) }

// Forward implements Model, in demand order by TGCN's rule. Views without
// typed adjacency support fall back to treating every edge as relation 0.
func (m *RTGCNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	var typed []*tensor.CSR
	if v.TypedFn != nil {
		typed = v.TypedFn(m.relations)
	} else {
		typed = []*tensor.CSR{v.Norm}
	}
	n2 := v.rows(2)
	x := tp.ReLU(m.enc.ApplyRows(tp, typed, autodiff.Constant(v.Feat), n2))
	h := tp.OwnedConstant(m.state.gatherHead(v, n2))
	conv := func(mod nn.Module, in *autodiff.Node, rows nn.Rows) *autodiff.Node {
		return mod.(*nn.RGCNConv).ApplyRows(tp, typed, in, rows.N)
	}
	hNew := m.cell.ApplyRows(tp, conv, x, h, nn.Rows{N: v.rows(0)}, v.rows(1))
	m.state.commit(tp, v, hNew)
	return hNew
}
