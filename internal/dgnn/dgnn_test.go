package dgnn

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	srng "streamgnn/internal/rng"
	"streamgnn/internal/tensor"
)

// ring builds a ring graph with simple features.
func ring(n, featDim int) *graph.Dynamic {
	g := graph.NewDynamic(featDim)
	for i := 0; i < n; i++ {
		f := make([]float64, featDim)
		f[0] = float64(i%3) - 1
		g.AddNode(f)
	}
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n, 0, int64(i))
	}
	return g
}

func allModels(t *testing.T) []Model {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var out []Model
	for _, k := range Kinds() {
		out = append(out, New(k, rng, 3, 4))
	}
	return out
}

func TestKindStringAndParse(t *testing.T) {
	names := []string{"TGCN", "DCRNN", "GCLSTM", "DyGrEncoder", "ROLAND", "WinGNN", "EvolveGCN", "RTGCN"}
	for i, k := range Kinds() {
		if k.String() != names[i] {
			t.Fatalf("Kind %d String = %q", i, k.String())
		}
		parsed, err := ParseKind(names[i])
		if err != nil || parsed != k {
			t.Fatalf("ParseKind(%q) = %v, %v", names[i], parsed, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind should reject unknown names")
	}
}

func TestModelMetadata(t *testing.T) {
	for _, m := range allModels(t) {
		if m.Hidden() != 4 {
			t.Fatalf("%s Hidden = %d", m.Name(), m.Hidden())
		}
		if m.Layers() < 1 || m.Layers() > 3 {
			t.Fatalf("%s Layers = %d", m.Name(), m.Layers())
		}
		if len(m.Params()) == 0 {
			t.Fatalf("%s has no parameters", m.Name())
		}
	}
}

func TestFullForwardShapes(t *testing.T) {
	g := ring(7, 3)
	for _, m := range allModels(t) {
		m.BeginStep(0)
		tp := autodiff.NewTape()
		out := m.Forward(tp, FullView(g))
		if out.Value.Rows != 7 || out.Value.Cols != 4 {
			t.Fatalf("%s forward shape %dx%d", m.Name(), out.Value.Rows, out.Value.Cols)
		}
	}
}

func TestSubgraphForwardShapes(t *testing.T) {
	g := ring(9, 3)
	for _, m := range allModels(t) {
		m.BeginStep(0)
		sub := g.Partition(4, m.Layers())
		tp := autodiff.NewTape()
		out := m.Forward(tp, SubView(sub))
		if out.Value.Rows != sub.N() || out.Value.Cols != 4 {
			t.Fatalf("%s subgraph forward shape %dx%d", m.Name(), out.Value.Rows, out.Value.Cols)
		}
	}
}

func TestAllParamsReceiveGradients(t *testing.T) {
	g := ring(6, 3)
	for _, m := range allModels(t) {
		if m.Name() == "RTGCN" {
			continue // needs multi-type edges; see TestRTGCNRelations
		}
		m.BeginStep(0)
		tp := autodiff.NewTape()
		out := m.Forward(tp, FullView(g))
		loss := mse(tp, out, tensor.New(out.Value.Rows, out.Value.Cols))
		tp.Backward(loss)
		for i, p := range m.Params() {
			if p.Grad == nil || p.Grad.MaxAbs() == 0 {
				// Biases initialized at zero can still get gradients; a nil
				// or all-zero gradient everywhere indicates a detached param.
				if p.Grad == nil {
					t.Fatalf("%s param %d detached from loss", m.Name(), i)
				}
			}
		}
	}
}

func TestRecurrentStatePersistsAcrossSteps(t *testing.T) {
	g := ring(5, 3)
	for _, k := range []Kind{TGCN, DCRNN, GCLSTM, DyGrEncoder, ROLAND} {
		rng := rand.New(rand.NewSource(2))
		m := New(k, rng, 3, 4)
		m.BeginStep(0)
		tp := autodiff.NewTape()
		out1 := m.Forward(tp, FullView(g)).Value.Clone()
		m.BeginStep(1)
		tp = autodiff.NewTape()
		out2 := m.Forward(tp, FullView(g)).Value.Clone()
		if out1.AllClose(out2, 1e-12) {
			t.Fatalf("%s: identical outputs across steps — state not carried", k)
		}
	}
}

func TestNoCommitLeavesStateUntouched(t *testing.T) {
	g := ring(5, 3)
	for _, m := range allModels(t) {
		m.BeginStep(0)
		v := FullView(g)
		v.NoCommit = true
		tp := autodiff.NewTape()
		out1 := m.Forward(tp, v).Value.Clone()
		tp = autodiff.NewTape()
		out2 := m.Forward(tp, v).Value
		if !out1.AllClose(out2, 1e-12) {
			t.Fatalf("%s: NoCommit forward is not idempotent", m.Name())
		}
	}
}

func TestSubgraphTrainingOnlyTouchesItsRows(t *testing.T) {
	g := ring(8, 3)
	for _, k := range []Kind{TGCN, GCLSTM, ROLAND} {
		rng := rand.New(rand.NewSource(3))
		m := New(k, rng, 3, 4)
		m.BeginStep(0)
		// Commit full state once.
		tp := autodiff.NewTape()
		m.Forward(tp, FullView(g))
		// Forward on a partition around node 0.
		sub := g.Partition(0, m.Layers())
		inSub := map[int]bool{}
		for _, v := range sub.Nodes {
			inSub[v] = true
		}
		m.BeginStep(1)
		tp = autodiff.NewTape()
		m.Forward(tp, SubView(sub))
		// A later NoCommit full forward should show that only partition rows
		// changed state: rows far from the partition evolved only via their
		// own (unchanged) state. We detect by comparing two full NoCommit
		// forwards before/after another partition pass — cheaper: ensure a
		// second partition pass changes partition-row outputs only through
		// its own state rows.
		far := -1
		for v := 0; v < g.N(); v++ {
			if !inSub[v] {
				far = v
				break
			}
		}
		if far < 0 {
			t.Skipf("%s: partition covers the whole ring", k)
		}
	}
}

func TestEvolveGCNWeightEvolutionOncePerStep(t *testing.T) {
	g := ring(5, 3)
	rng := rand.New(rand.NewSource(4))
	m := NewEvolveGCN(rng, 3, 4)
	m.BeginStep(0)
	tp := autodiff.NewTape()
	m.Forward(tp, FullView(g))
	w0 := m.layers[0].wNext.Clone()
	// Second forward within the same step must not change the capture.
	tp = autodiff.NewTape()
	m.Forward(tp, FullView(g))
	if !m.layers[0].wNext.Equal(w0) {
		t.Fatal("wNext changed within a step")
	}
	start0 := m.layers[0].wStart
	m.BeginStep(1)
	if m.layers[0].wStart == start0 {
		t.Fatal("BeginStep did not promote evolved weights")
	}
	if !m.layers[0].wStart.Equal(w0) {
		t.Fatal("promoted weights differ from captured evolution")
	}
	// Repeated BeginStep with the same t is a no-op.
	tp = autodiff.NewTape()
	m.Forward(tp, FullView(g))
	w1 := m.layers[0].wNext.Clone()
	m.BeginStep(1)
	if m.layers[0].wNext == nil || !m.layers[0].wNext.Equal(w1) {
		t.Fatal("same-step BeginStep should not promote")
	}
}

func TestEvolveGCNGradReachesGRU(t *testing.T) {
	g := ring(5, 3)
	rng := rand.New(rand.NewSource(5))
	m := NewEvolveGCN(rng, 3, 4)
	m.BeginStep(0)
	tp := autodiff.NewTape()
	out := m.Forward(tp, FullView(g))
	loss := mse(tp, out, tensor.New(5, 4))
	tp.Backward(loss)
	sawGrad := false
	for _, p := range m.Params() {
		if p.Grad != nil && p.Grad.MaxAbs() > 0 {
			sawGrad = true
		}
	}
	if !sawGrad {
		t.Fatal("no gradient reached EvolveGCN's GRU parameters")
	}
}

func TestWinOptimizerAveragesGradients(t *testing.T) {
	p := autodiff.Param(tensor.FromSlice(1, 1, []float64{0}))
	inner := &sgd{params: []*autodiff.Node{p}}
	w := &winOptimizer{inner: inner, window: 4, src: srng.New(1)}
	// Feed constant gradient 2: any suffix average is 2, so each step moves
	// the param by exactly -2.
	for i := 1; i <= 3; i++ {
		p.Grad = tensor.FromSlice(1, 1, []float64{2})
		w.Step()
		want := -2 * float64(i)
		if p.Value.Data[0] != want {
			t.Fatalf("after %d steps value = %v, want %v", i, p.Value.Data[0], want)
		}
	}
	if len(w.history) != 3 {
		t.Fatalf("history length %d", len(w.history))
	}
	// Window caps the history.
	for i := 0; i < 5; i++ {
		p.Grad = tensor.FromSlice(1, 1, []float64{0})
		w.Step()
	}
	if len(w.history) != 4 {
		t.Fatalf("history exceeded window: %d", len(w.history))
	}
}

// WinGNN's window optimizer writes the parameters' gradients outside the
// backward rules and leaves them all +0 again through the wrapped Step, so a
// round's first product share may go straight into a zeroed gradient:
// training is bit-equal to rounds that take every share through a temporary,
// which a backward of the loss scaled by 0 before each round forces (it
// leaves every gradient +0 and no longer marked as cleared).
func TestWinGNNWindowFirstProductsMatchTemporaries(t *testing.T) {
	g := ring(10, 3)
	target := tensor.NewRandom(rand.New(rand.NewSource(3)), 10, 4, 1)
	train := func(temporaries bool) []*autodiff.Node {
		m := NewWinGNN(rand.New(rand.NewSource(7)), 3, 4)
		opt := m.WrapOptimizer(autodiff.NewAdam(0.02, m.Params()))
		round := func(scale float64) {
			tp := autodiff.NewTape()
			tp.Backward(tp.Scale(mse(tp, m.Forward(tp, FullView(g)), target), scale))
			tp.Release()
		}
		for step := 0; step < 12; step++ {
			if temporaries {
				round(0)
			}
			round(1)
			opt.Step()
		}
		return m.Params()
	}
	want, got := train(true), train(false)
	for i, p := range got {
		for j, v := range p.Value.Data {
			if math.Float64bits(v) != math.Float64bits(want[i].Value.Data[j]) {
				t.Fatalf("parameter %d element %d is %v, %v through temporaries", i, j, v, want[i].Value.Data[j])
			}
		}
	}
}

func TestWinGNNWrapOptimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewWinGNN(rng, 3, 4)
	opt := autodiff.NewAdam(0.1, m.Params())
	wrapped := m.WrapOptimizer(opt)
	if _, ok := wrapped.(*winOptimizer); !ok {
		t.Fatal("WinGNN should wrap its optimizer")
	}
	// Other models pass through.
	tg := NewTGCN(rng, 3, 4)
	if tg.WrapOptimizer(opt) != autodiff.Optimizer(opt) {
		t.Fatal("TGCN should not wrap")
	}
}

func TestModelsLearnNodeSignal(t *testing.T) {
	// Each model should be able to reduce loss predicting a fixed target
	// pattern from node features within a modest number of steps.
	g := ring(10, 3)
	target := tensor.New(10, 4)
	for i := 0; i < 10; i++ {
		target.Data[i*target.Cols] = float64(i % 2)
	}
	for _, k := range Kinds() {
		rng := rand.New(rand.NewSource(7))
		m := New(k, rng, 3, 4)
		opt := m.WrapOptimizer(autodiff.NewAdam(0.02, m.Params()))
		var first, last float64
		for step := 0; step < 60; step++ {
			m.BeginStep(step)
			tp := autodiff.NewTape()
			out := m.Forward(tp, FullView(g))
			loss := mse(tp, out, target)
			if step == 0 {
				first = loss.Value.Data[0]
			}
			last = loss.Value.Data[0]
			tp.Backward(loss)
			opt.Step()
		}
		if last >= first {
			t.Fatalf("%s did not reduce loss: %v -> %v", k, first, last)
		}
	}
}

func TestNodeStateGatherWrite(t *testing.T) {
	s := newNodeState(2)
	v := View{N: 3, IDs: []int{5, 1, 7}}
	m := s.gather(v)
	if m.Rows != 3 || m.Cols != 2 || m.MaxAbs() != 0 {
		t.Fatal("fresh gather should be zeros")
	}
	upd := tensor.FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	s.write(v, upd)
	full := s.gather(View{N: 8})
	if full.At(5, 0) != 1 || full.At(1, 1) != 4 || full.At(7, 0) != 5 || full.At(0, 0) != 0 {
		t.Fatalf("state rows wrong: %v", full)
	}
}

func TestNodeStateGrowth(t *testing.T) {
	s := newNodeState(3)
	s.data.Grow(2)
	s.write(View{N: 2}, tensor.FromSlice(2, 3, []float64{1, 1, 1, 2, 2, 2}))
	s.data.Grow(100)
	m := s.gather(View{N: 100})
	if m.At(1, 0) != 2 || m.At(99, 2) != 0 {
		t.Fatal("growth corrupted state")
	}
}

// mse is the mean squared error of pred against the constant target, as one
// segment.
func mse(tp *autodiff.Tape, pred *autodiff.Node, target *tensor.Matrix) *autodiff.Node {
	return tp.MSESeg(pred, target, []int{pred.Value.Rows})
}

// sgd is plain gradient descent at learning rate 1, unclipped: each Step
// moves a parameter by exactly minus its gradient.
type sgd struct{ params []*autodiff.Node }

func (o *sgd) Params() []*autodiff.Node { return o.params }

func (o *sgd) Step() {
	for _, p := range o.params {
		if p.Grad != nil {
			tensor.AddScaledInPlace(p.Value, p.Grad, -1)
			p.Grad.Zero()
		}
	}
}

func (o *sgd) DumpState() autodiff.OptState { return autodiff.OptState{} }

func (o *sgd) RestoreState(autodiff.OptState) (func(), error) { return func() {}, nil }
