package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// EvolveGCNModel is EvolveGCN (Pareja et al., "-O" variant): a two-layer GCN
// whose layer weight matrices are not trained directly but *evolved* through
// time by a GRU that treats the weight matrix as its recurrent state. The
// GRU's own parameters are trained by gradients flowing through the evolved
// weights. Evolution happens once per stream step: every Forward within a
// step recomputes the same on-tape evolution from the step's starting
// weights, and the first Forward of a step captures the evolved value as the
// next step's starting point. A step's copy (StepForward) evolves them once
// for all its forwards.
type EvolveGCNModel struct {
	//streamlint:ckpt-exempt GRU and bias are trainable parameters, serialized through Params(); the evolving weights checkpoint through weights
	layers []*evolveLayer
	// weights holds the evolving weights (wStart, wNext) Forward reads and
	// captures: layers itself, or a live model's layers on a learner copy
	// (NewLearner), whose own GRU and bias train against the live recurrence.
	weights []*evolveLayer
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	//streamlint:ckpt-exempt step bookkeeping, re-established by BeginStep on the first resumed step
	curStep int
	//streamlint:ckpt-exempt step bookkeeping, re-established by BeginStep on the first resumed step
	haveStep bool
	// stepW is nil but on a step's copy (StepForward), where it holds W_t of
	// each layer once the copy's first forward has evolved it.
	//streamlint:ckpt-exempt a step's copy is never checkpointed; its first forward re-derives it
	stepW []*tensor.Matrix
}

type evolveLayer struct {
	gru    *nn.GRUCell
	bias   *autodiff.Node
	wStart *tensor.Matrix // W_{t-1}: weights the current step evolves from
	wNext  *tensor.Matrix // W_t captured at the step's first forward
}

// NewEvolveGCN returns an EvolveGCN-O with two layers.
func NewEvolveGCN(rng *rand.Rand, featDim, hidden int) *EvolveGCNModel {
	mk := func(in int) *evolveLayer {
		return &evolveLayer{
			gru:    nn.NewGRUCell(rng, hidden, hidden),
			bias:   autodiff.Param(tensor.New(1, hidden)),
			wStart: tensor.Glorot(rng, in, hidden),
		}
	}
	m := &EvolveGCNModel{
		layers: []*evolveLayer{mk(featDim), mk(hidden)},
		hidden: hidden,
	}
	m.weights = m.layers
	return m
}

// Name implements Model.
func (m *EvolveGCNModel) Name() string { return "EvolveGCN" }

// Layers implements Model.
func (m *EvolveGCNModel) Layers() int { return len(m.layers) }

// Hidden implements Model.
func (m *EvolveGCNModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *EvolveGCNModel) Params() []*autodiff.Node {
	var out []*autodiff.Node
	for _, l := range m.layers {
		out = append(out, l.gru.Params()...)
		out = append(out, l.bias)
	}
	return out
}

// BeginStep implements Model: promotes the captured evolved weights to the
// new step's starting weights.
func (m *EvolveGCNModel) BeginStep(t int) {
	if m.haveStep && t == m.curStep {
		return
	}
	m.curStep = t
	m.haveStep = true
	for _, l := range m.weights {
		if l.wNext != nil {
			l.wStart = l.wNext
			l.wNext = nil
		}
	}
}

// WrapOptimizer implements Model.
func (m *EvolveGCNModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// Forward implements Model. The first committed forward of a step captures
// the evolved weights once the tape has computed them; a step's copy keeps
// them at its first forward and reads them at its later ones.
func (m *EvolveGCNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	tp.Plan()
	h := v.feat(tp)
	for i, l := range m.layers {
		w := m.weights[i]
		var wt *autodiff.Node
		if m.stepW != nil && m.stepW[i] != nil {
			wt = autodiff.Constant(m.stepW[i])
		} else {
			w0 := autodiff.Constant(w.wStart)
			wt = l.gru.Apply(tp, w0, w0) // evolve: rows of W are the GRU batch
		}
		switch {
		case m.stepW != nil && m.stepW[i] == nil:
			tp.Use(wt, nil, func(x *tensor.Matrix) { m.stepW[i] = x.Clone() })
		// NoCommit first: a learner's forward must not read wNext, which the
		// step's committed inference forward writes beside it.
		case !v.NoCommit && w.wNext == nil:
			tp.Use(wt, nil, func(m *tensor.Matrix) { w.wNext = m.Clone() })
		}
		h = tp.AddBias(tp.SpMM(v.Norm, tp.MatMul(h, wt)), l.bias)
		if i+1 < len(m.layers) {
			h = tp.ReLU(h)
		} else {
			h = tp.Tanh(h)
		}
	}
	return v.run(tp, h)
}
