package autodiff

import (
	"fmt"
	"math"

	"streamgnn/internal/tensor"
)

// Optimizer updates a fixed set of parameters from their accumulated
// gradients and clears the gradients afterwards.
type Optimizer interface {
	// Step applies one update using the gradients currently stored in the
	// parameters and then zeroes them.
	Step()
	// ZeroGrad clears all parameter gradients without updating.
	ZeroGrad()
	// Params returns the parameter nodes managed by the optimizer.
	Params() []*Node
}

// SGD is plain stochastic gradient descent with optional gradient clipping.
type SGD struct {
	//streamlint:ckpt-exempt learning rate is configuration, rebuilt from Config on resume
	LR float64
	//streamlint:ckpt-exempt clip threshold is configuration (0 disables clipping)
	ClipNorm float64
	//streamlint:ckpt-exempt parameter wiring, re-established at engine construction
	params []*Node
}

// NewSGD returns an SGD optimizer over params.
func NewSGD(lr float64, params []*Node) *SGD {
	return &SGD{LR: lr, ClipNorm: 5, params: params}
}

// Params implements Optimizer.
func (o *SGD) Params() []*Node { return o.params }

// ZeroGrad implements Optimizer.
func (o *SGD) ZeroGrad() { zeroGrads(o.params) }

// Step implements Optimizer.
func (o *SGD) Step() {
	scale := clipScale(o.params, o.ClipNorm)
	for _, p := range o.params {
		if p.Grad == nil {
			continue
		}
		tensor.AddScaledInPlace(p.Value, p.Grad, -o.LR*scale)
	}
	o.ZeroGrad()
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

// ZeroGrad implements Optimizer.
func (o *Adam) ZeroGrad() { zeroGrads(o.params) }

// Step implements Optimizer.
func (o *Adam) Step() {
	o.step++
	scale := clipScale(o.params, o.ClipNorm)
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for i, p := range o.params {
		if p.Grad == nil {
			continue
		}
		m, v := o.m[i], o.v[i]
		for j, g := range p.Grad.Data {
			g *= scale
			m.Data[j] = o.Beta1*m.Data[j] + (1-o.Beta1)*g
			v.Data[j] = o.Beta2*v.Data[j] + (1-o.Beta2)*g*g
			mhat := m.Data[j] / bc1
			vhat := v.Data[j] / bc2
			p.Value.Data[j] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
	o.ZeroGrad()
}

// OptState is a checkpointable snapshot of an optimizer's internal state:
// the step counter and any per-parameter moment buffers (flattened, in
// parameter order). SGD has no moments; Adam has two per parameter.
// Decorating optimizers use the remaining fields: Inner nests the wrapped
// optimizer's state, RNG/HasRNG carry a private random stream's position,
// and History holds a window of per-parameter gradient snapshots (an empty
// inner slice marks a parameter whose gradient was nil at snapshot time).
// All fields are gob-encoded by name, so states saved before a field existed
// still decode (the new fields read back as zero values).
type OptState struct {
	Step    int
	Moments [][]float64
	Inner   *OptState
	RNG     uint64
	HasRNG  bool
	History [][][]float64
}

// Stateful is implemented by optimizers whose internal state can be dumped
// and restored across a checkpoint/resume cycle. Restoring the moments makes
// post-resume parameter updates bit-identical to an uninterrupted run, which
// checkpoint resume tests rely on. Decorating optimizers that keep extra
// state of their own (e.g. WinGNN's gradient-aggregation window) implement
// it by nesting the wrapped optimizer's state in OptState.Inner.
type Stateful interface {
	// DumpState captures the optimizer's internal state.
	DumpState() OptState
	// RestoreState restores a state captured by DumpState on an optimizer
	// over the same parameter set.
	RestoreState(OptState) error
}

// DumpState implements Stateful (SGD keeps no moments).
func (o *SGD) DumpState() OptState { return OptState{} }

// RestoreState implements Stateful.
func (o *SGD) RestoreState(OptState) error { return nil }

// DumpState implements Stateful.
func (o *Adam) DumpState() OptState {
	st := OptState{Step: o.step, Moments: make([][]float64, 0, 2*len(o.params))}
	for _, m := range o.m {
		st.Moments = append(st.Moments, append([]float64(nil), m.Data...))
	}
	for _, v := range o.v {
		st.Moments = append(st.Moments, append([]float64(nil), v.Data...))
	}
	return st
}

// RestoreState implements Stateful.
func (o *Adam) RestoreState(st OptState) error {
	if len(st.Moments) != 2*len(o.params) {
		return fmt.Errorf("autodiff: optimizer state has %d moment buffers, Adam over %d params needs %d",
			len(st.Moments), len(o.params), 2*len(o.params))
	}
	for i, m := range o.m {
		if len(st.Moments[i]) != len(m.Data) {
			return fmt.Errorf("autodiff: moment buffer %d has %d values, want %d", i, len(st.Moments[i]), len(m.Data))
		}
	}
	for i, v := range o.v {
		j := len(o.m) + i
		if len(st.Moments[j]) != len(v.Data) {
			return fmt.Errorf("autodiff: moment buffer %d has %d values, want %d", j, len(st.Moments[j]), len(v.Data))
		}
	}
	o.step = st.Step
	for i, m := range o.m {
		copy(m.Data, st.Moments[i])
	}
	for i, v := range o.v {
		copy(v.Data, st.Moments[len(o.m)+i])
	}
	return nil
}

func zeroGrads(params []*Node) {
	for _, p := range params {
		if p.Grad != nil {
			p.Grad.Zero()
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
		copy(d.Value.Data, src[i].Value.Data)
	}
}

// clipScale returns the factor that rescales the global gradient norm to at
// most clip (1 when clipping is disabled or the norm is within bounds).
func clipScale(params []*Node, clip float64) float64 {
	if clip <= 0 {
		return 1
	}
	var sq float64
	for _, p := range params {
		if p.Grad == nil {
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
