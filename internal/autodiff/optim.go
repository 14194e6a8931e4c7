package autodiff

import (
	"fmt"
	"math"
	"slices"

	"streamgnn/internal/tensor"
)

// Optimizer updates a fixed set of parameters from their accumulated
// gradients and clears the gradients afterwards. Its internal state crosses
// a checkpoint: restoring the moments makes post-resume updates
// bit-identical to an uninterrupted run.
type Optimizer interface {
	// Step applies one update using the gradients currently stored in the
	// parameters and then zeroes them.
	Step()
	// Params returns the parameter nodes managed by the optimizer.
	Params() []*Node
	// DumpState captures the optimizer's internal state.
	DumpState() OptState
	// RestoreState checks a state captured by DumpState on an optimizer over
	// the same parameter set and returns the install that restores it;
	// nothing changes until install runs.
	RestoreState(OptState) (install func(), err error)
}

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction and
// optional global-norm gradient clipping.
type Adam struct {
	//streamlint:ckpt-exempt learning rate is configuration, rebuilt from Config on resume
	LR float64
	//streamlint:ckpt-exempt decay rate is configuration, rebuilt from Config on resume
	Beta1 float64
	//streamlint:ckpt-exempt decay rate is configuration, rebuilt from Config on resume
	Beta2 float64
	//streamlint:ckpt-exempt numerical epsilon is configuration, rebuilt from Config on resume
	Eps float64
	//streamlint:ckpt-exempt clip threshold is configuration (0 disables clipping)
	ClipNorm float64
	params   []*Node
	m, v     []*tensor.Matrix
	step     int
	//streamlint:ckpt-exempt scratch of Step, rebuilt from the gradients and moments every step
	idle []bool
}

// NewAdam returns an Adam optimizer over params with standard defaults.
func NewAdam(lr float64, params []*Node) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5, params: params}
	a.m = make([]*tensor.Matrix, len(params))
	a.v = make([]*tensor.Matrix, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Rows, p.Value.Cols)
		a.v[i] = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	return a
}

// Params implements Optimizer.
func (o *Adam) Params() []*Node { return o.params }

// ZeroGrad clears all parameter gradients without updating.
func (o *Adam) ZeroGrad() { zeroGrads(o.params) }

// Step implements Optimizer. It skips a parameter whose gradient is all ±0
// and whose two moments are all +0 — in DCRNN, a diffusion weight whose hop
// no loss reaches: its update would leave both moments +0 and subtract +0
// from every weight, which changes no bit, for any finite clip scale.
func (o *Adam) Step() {
	o.step++
	o.idle = o.idle[:0]
	for i, p := range o.params {
		o.idle = append(o.idle, p.Grad == nil || idle(p.Grad.Data, o.m[i].Data, o.v[i].Data))
	}
	scale := clipScale(o.params, o.idle, o.ClipNorm)
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	b1, b2, lr, eps := o.Beta1, o.Beta2, o.LR, o.Eps
	for i, p := range o.params {
		if o.idle[i] {
			continue
		}
		// One length for the four slices lets the loop drop their bounds
		// checks; the hoisted fields are read once, not per element.
		gs := p.Grad.Data
		ms, vs, ws := o.m[i].Data[:len(gs)], o.v[i].Data[:len(gs)], p.Value.Data[:len(gs)]
		for j, g := range gs {
			g *= scale
			m := b1*ms[j] + (1-b1)*g
			v := b2*vs[j] + (1-b2)*g*g
			ms[j], vs[j] = m, v
			ws[j] -= lr * (m / bc1) / (math.Sqrt(v/bc2) + eps)
		}
	}
	o.ZeroGrad()
}

// OptState is a checkpointable snapshot of an optimizer's internal state:
// the step counter and any per-parameter moment buffers (flattened, in
// parameter order). Adam has two per parameter.
// Decorating optimizers use the remaining fields: Inner nests the wrapped
// optimizer's state, RNG carries a private random stream's position, and
// History holds a window of per-parameter gradient snapshots.
type OptState struct {
	Step    int
	Moments [][]float64
	Inner   *OptState
	RNG     uint64
	History [][][]float64
}

// DumpState implements Optimizer: the first moments, then the second.
func (o *Adam) DumpState() OptState {
	st := OptState{Step: o.step}
	for _, m := range slices.Concat(o.m, o.v) {
		st.Moments = append(st.Moments, append([]float64(nil), m.Data...))
	}
	return st
}

// RestoreState implements Optimizer.
func (o *Adam) RestoreState(st OptState) (func(), error) {
	moments := slices.Concat(o.m, o.v)
	if len(st.Moments) != len(moments) {
		return nil, fmt.Errorf("autodiff: optimizer state has %d moment buffers, Adam over %d params needs %d",
			len(st.Moments), len(o.params), len(moments))
	}
	for i, m := range moments {
		if len(st.Moments[i]) != len(m.Data) {
			return nil, fmt.Errorf("autodiff: moment buffer %d has %d values, want %d", i, len(st.Moments[i]), len(m.Data))
		}
	}
	return func() {
		o.step = st.Step
		for i, m := range moments {
			copy(m.Data, st.Moments[i])
		}
	}, nil
}

// zeroGrads clears every parameter gradient to +0 and marks it so (see
// Node.zeroed).
func zeroGrads(params []*Node) {
	for _, p := range params {
		if p.Grad != nil {
			p.Grad.Zero()
			p.zeroed = true
		}
	}
}

// CopyValues copies each src parameter's value into the dst parameter at the
// same position, in place: two parameter lists of one architecture, such as a
// learner copy's and the live model's.
func CopyValues(dst, src []*Node) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("autodiff: CopyValues into %d parameters from %d", len(dst), len(src)))
	}
	for i, d := range dst {
		if len(d.Value.Data) != len(src[i].Value.Data) {
			panic(fmt.Sprintf("autodiff: CopyValues parameter %d: %d values from %d", i, len(d.Value.Data), len(src[i].Value.Data)))
		}
		copy(d.Value.Data, src[i].Value.Data)
	}
}

// AddGrads adds each src parameter's gradient into the dst parameter at the
// same position, in place, and clears src's to +0: the gradient a learner
// copy summed over its share of a round, merged into the one the optimizer
// steps on. A src gradient no rule has added into since it was cleared is
// all +0 and is left out.
func AddGrads(dst, src []*Node) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("autodiff: AddGrads into %d parameters from %d", len(dst), len(src)))
	}
	for i, s := range src {
		if d := dst[i]; s.Grad != nil && !s.zeroed {
			if d.Grad == nil {
				d.Grad = tensor.New(d.Value.Rows, d.Value.Cols)
			}
			tensor.AddInPlace(d.Grad, s.Grad)
			d.zeroed = false
		}
	}
	zeroGrads(src)
}

// idle reports a gradient of ±0 alone over moments of +0 alone: Adam's
// update of such a parameter changes no bit.
func idle(g, m, v []float64) bool {
	for _, x := range g {
		if x != 0 {
			return false
		}
	}
	for i := range m {
		if math.Float64bits(m[i])|math.Float64bits(v[i]) != 0 {
			return false
		}
	}
	return true
}

// clipScale returns the factor that rescales the global gradient norm to at
// most clip (1 when clipping is disabled or the norm is within bounds). It
// skips the parameters idle marks: those without a gradient, and those whose
// gradient is all ±0, whose squares would add +0 to the sum.
func clipScale(params []*Node, idle []bool, clip float64) float64 {
	if clip <= 0 {
		return 1
	}
	var sq float64
	for i, p := range params {
		if idle[i] {
			continue
		}
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clip || norm == 0 {
		return 1
	}
	return clip / norm
}
