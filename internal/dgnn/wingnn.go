package dgnn

import (
	"fmt"
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
	srng "streamgnn/internal/rng"
	"streamgnn/internal/tensor"
)

// WinGNNModel is WinGNN (Zhu et al.): a plain two-layer GCN with *no*
// explicit temporal module; temporal adaptation comes from training with a
// randomized sliding window of per-snapshot gradients. The window mechanism
// lives in the winOptimizer returned by WrapOptimizer: each update applies
// the mean of a random-length suffix of recently observed gradients instead
// of only the newest one (random gradient-aggregation window).
type WinGNNModel struct {
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	conv1, conv2 *nn.GCNConv
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	skip *nn.Linear
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	//streamlint:ckpt-exempt window size is configuration; the window CONTENTS checkpoint via winOptimizer's optimizer state
	window int
	//streamlint:ckpt-exempt derived from the construction seed; the live stream position checkpoints via winOptimizer's optimizer state
	optSeed int64
}

// NewWinGNN returns a WinGNN with gradient window 8.
func NewWinGNN(rng *rand.Rand, featDim, hidden int) *WinGNNModel {
	return &WinGNNModel{
		conv1:   nn.NewGCNConv(rng, featDim, hidden),
		conv2:   nn.NewGCNConv(rng, hidden, hidden),
		skip:    nn.NewLinear(rng, featDim, hidden),
		hidden:  hidden,
		window:  8,
		optSeed: rng.Int63(),
	}
}

// Name implements Model.
func (m *WinGNNModel) Name() string { return "WinGNN" }

// Layers implements Model.
func (m *WinGNNModel) Layers() int { return 2 }

// Hidden implements Model.
func (m *WinGNNModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *WinGNNModel) Params() []*autodiff.Node {
	return nn.CollectParams(m.conv1, m.conv2, m.skip)
}

// BeginStep implements Model.
func (m *WinGNNModel) BeginStep(t int) {}

// PregrowState is a no-op: WinGNN keeps no per-node state. Implementing the
// interface opts the model into the parallel shard fan-out.
func (m *WinGNNModel) PregrowState(int, []int) {}

// WrapOptimizer implements Model: wraps opt in the random
// gradient-aggregation window. The window draws from a private SplitMix64
// stream seeded at model construction, so its whole position is one word
// that the optimizer state dumps and restores across checkpoints.
func (m *WinGNNModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer {
	return &winOptimizer{inner: opt, window: m.window, src: srng.New(m.optSeed)}
}

// Forward implements Model.
func (m *WinGNNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	tp.Plan()
	x := v.feat(tp)
	h := tp.ReLU(m.conv1.Apply(tp, v.Norm, x))
	h = m.conv2.Apply(tp, v.Norm, h)
	return v.run(tp, tp.Tanh(tp.Add(h, m.skip.Apply(tp, x))))
}

// winOptimizer implements WinGNN's random gradient-aggregation window: it
// remembers the last `window` gradient snapshots and, on each Step, replaces
// the live gradient with the mean of a uniformly random-length suffix of the
// history before delegating to the wrapped optimizer. All of its state —
// the gradient history, the random stream position and the wrapped
// optimizer's own state — round-trips through DumpState/RestoreState, which
// is what makes a WinGNN resume bit-identical to the uninterrupted run.
type winOptimizer struct {
	inner   autodiff.Optimizer
	window  int
	src     *srng.SplitMix64
	history [][]*tensor.Matrix
}

// Params implements autodiff.Optimizer.
func (w *winOptimizer) Params() []*autodiff.Node { return w.inner.Params() }

// Step implements autodiff.Optimizer.
func (w *winOptimizer) Step() {
	params := w.inner.Params()
	// Snapshot the live gradients (nil grads are zero).
	snap := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		if p.Grad != nil {
			snap[i] = p.Grad.Clone()
		}
	}
	w.history = append(w.history, snap)
	if len(w.history) > w.window {
		w.history = w.history[1:]
	}
	n := 1 + w.intn(len(w.history))
	suffix := w.history[len(w.history)-n:]
	// Replace live gradients with the suffix mean.
	for i, p := range params {
		if p.Grad == nil {
			continue
		}
		p.Grad.Zero()
		for _, s := range suffix {
			if s[i] != nil {
				tensor.AddScaledInPlace(p.Grad, s[i], 1/float64(n))
			}
		}
	}
	w.inner.Step()
}

// intn draws uniformly from [0, n) off the private stream. The window is
// tiny (≤8), so plain modulo reduction's bias is far below anything the
// gradient averaging could notice.
func (w *winOptimizer) intn(n int) int {
	return int(w.src.Uint64() % uint64(n))
}

// DumpState implements autodiff.Optimizer: the wrapped optimizer's state
// nests under Inner, the window's random stream position under RNG, and the
// gradient history (flattened, parameter order) under History. A parameter
// whose gradient was nil at snapshot time is dumped as zeros, which the
// window's mean adds exactly as it skips a nil one.
func (w *winOptimizer) DumpState() autodiff.OptState {
	inner := w.inner.DumpState()
	st := autodiff.OptState{Inner: &inner, RNG: w.src.State()}
	params := w.inner.Params()
	for _, snap := range w.history {
		row := make([][]float64, len(snap))
		for i, g := range snap {
			if g != nil {
				row[i] = append([]float64(nil), g.Data...)
			} else {
				row[i] = make([]float64, len(params[i].Value.Data))
			}
		}
		st.History = append(st.History, row)
	}
	return st
}

// RestoreState implements autodiff.Optimizer.
func (w *winOptimizer) RestoreState(st autodiff.OptState) (func(), error) {
	if len(st.History) > w.window {
		return nil, fmt.Errorf("dgnn: WinGNN state has %d gradient snapshots, window is %d", len(st.History), w.window)
	}
	if st.Inner == nil {
		return nil, fmt.Errorf("dgnn: WinGNN state carries no inner optimizer state")
	}
	installInner, err := w.inner.RestoreState(*st.Inner)
	if err != nil {
		return nil, err
	}
	params := w.inner.Params()
	history := make([][]*tensor.Matrix, 0, len(st.History))
	for k, row := range st.History {
		if len(row) != len(params) {
			return nil, fmt.Errorf("dgnn: WinGNN gradient snapshot %d covers %d params, optimizer has %d", k, len(row), len(params))
		}
		snap := make([]*tensor.Matrix, len(params))
		for i, data := range row {
			if len(data) != len(params[i].Value.Data) {
				return nil, fmt.Errorf("dgnn: WinGNN gradient snapshot %d param %d has %d values, want %d", k, i, len(data), len(params[i].Value.Data))
			}
			g := tensor.New(params[i].Value.Rows, params[i].Value.Cols)
			copy(g.Data, data)
			snap[i] = g
		}
		history = append(history, snap)
	}
	return func() {
		installInner()
		w.history = history
		w.src.SetState(st.RNG)
	}, nil
}
