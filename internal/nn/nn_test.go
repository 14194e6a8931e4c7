package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
)

func adj3() *tensor.CSR {
	// Path 0-1-2, symmetric GCN-normalized with self loops.
	return tensor.NewCSR(3, 3, [][]tensor.CSREntry{
		{{Col: 0, Val: 0.5}, {Col: 1, Val: 0.4}},
		{{Col: 0, Val: 0.4}, {Col: 1, Val: 0.33}, {Col: 2, Val: 0.4}},
		{{Col: 1, Val: 0.4}, {Col: 2, Val: 0.5}},
	})
}

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 2)
	if l.In() != 4 || l.Out() != 2 || len(l.Params()) != 2 {
		t.Fatal("linear metadata wrong")
	}
	tp := autodiff.NewTape()
	x := autodiff.Constant(tensor.NewRandom(rng, 5, 4, 1))
	y := l.Apply(tp, x)
	if y.Value.Rows != 5 || y.Value.Cols != 2 {
		t.Fatalf("output shape %dx%d", y.Value.Rows, y.Value.Cols)
	}
}

func TestLinearLearnsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 2, 2)
	opt := autodiff.NewAdam(0.05, l.Params())
	for i := 0; i < 400; i++ {
		tp := autodiff.NewTape()
		x := autodiff.Constant(tensor.NewRandom(rng, 8, 2, 1))
		loss := mse(tp, l.Apply(tp, x), x.Value)
		tp.Backward(loss)
		opt.Step()
	}
	tp := autodiff.NewTape()
	x := autodiff.Constant(tensor.NewRandom(rng, 8, 2, 1))
	loss := mse(tp, l.Apply(tp, x), x.Value)
	if loss.Value.Data[0] > 1e-3 {
		t.Fatalf("linear did not learn identity: loss %v", loss.Value.Data[0])
	}
}

func TestGCNConvMixesNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewGCNConv(rng, 2, 2)
	if c.Out() != 2 || len(c.Params()) != 2 {
		t.Fatal("gcn metadata wrong")
	}
	tp := autodiff.NewTape()
	x := tensor.New(3, 2)
	x.Data[0] = 1 // only node 0 has signal
	y := c.Apply(tp, adj3(), autodiff.Constant(x))
	// Node 1 is adjacent to 0, so it must receive nonzero output; node 2 is
	// 2 hops away and must only see the bias.
	biasOnly := c.lin.B.Value
	row2 := y.Value.Row(2)
	for j := range row2 {
		if math.Abs(row2[j]-biasOnly.Data[j]) > 1e-12 {
			t.Fatal("2-hop node influenced by single conv")
		}
	}
	row1 := y.Value.Row(1)
	influenced := false
	for j := range row1 {
		if math.Abs(row1[j]-biasOnly.Data[j]) > 1e-9 {
			influenced = true
		}
	}
	if !influenced {
		t.Fatal("neighbor not influenced by conv")
	}
}

func TestDiffusionConvParamsAndShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewDiffusionConv(rng, 3, 5, 2)
	if c.Out() != 5 {
		t.Fatal("out dim wrong")
	}
	if len(c.Params()) != 2*(2+1)+1 {
		t.Fatalf("param count %d", len(c.Params()))
	}
	eye := [][]tensor.CSREntry{{{Col: 0, Val: 1}}, {{Col: 1, Val: 1}}, {{Col: 2, Val: 1}}, {{Col: 3, Val: 1}}}
	fwd := tensor.NewCSR(4, 4, eye)
	rev := tensor.NewCSR(4, 4, eye)
	tp := autodiff.NewTape()
	x := autodiff.Constant(tensor.NewRandom(rng, 4, 3, 1))
	y := c.Apply(tp, fwd, rev, x)
	if y.Value.Rows != 4 || y.Value.Cols != 5 {
		t.Fatalf("shape %dx%d", y.Value.Rows, y.Value.Cols)
	}
}

func TestDiffusionConvGradientFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewDiffusionConv(rng, 2, 2, 2)
	fwd := adj3()
	rev := adj3()
	tp := autodiff.NewTape()
	x := autodiff.Constant(tensor.NewRandom(rng, 3, 2, 1))
	loss := mse(tp, c.Apply(tp, fwd, rev, x), tensor.New(3, 2))
	tp.Backward(loss)
	for i, p := range c.Params() {
		if p.Grad == nil {
			t.Fatalf("param %d got no gradient", i)
		}
	}
}

func TestMLPShapesAndLearning(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP(rng, 2, 8, 1)
	if m.Out() != 1 {
		t.Fatal("out wrong")
	}
	// Learn XOR-ish function: y = x0*x1 on {-1,1}^2.
	xs := tensor.FromSlice(4, 2, []float64{-1, -1, -1, 1, 1, -1, 1, 1})
	ys := tensor.FromSlice(4, 1, []float64{1, -1, -1, 1})
	opt := autodiff.NewAdam(0.05, m.Params())
	var last float64
	for i := 0; i < 1500; i++ {
		tp := autodiff.NewTape()
		loss := mse(tp, m.Apply(tp, autodiff.Constant(xs)), ys)
		tp.Backward(loss)
		opt.Step()
		last = loss.Value.Data[0]
	}
	if last > 0.05 {
		t.Fatalf("MLP failed to learn XOR: loss %v", last)
	}
}

func TestMLPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), 4)
}

func TestGRUCellStepAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewGRUCell(rng, 3, 4)
	if len(c.Params()) != 6 {
		t.Fatal("gru metadata wrong")
	}
	tp := autodiff.NewTape()
	x := autodiff.Constant(tensor.NewRandom(rng, 2, 3, 1))
	h := autodiff.Constant(ZeroState(2, 4))
	h2 := c.Apply(tp, x, h)
	if h2.Value.Rows != 2 || h2.Value.Cols != 4 {
		t.Fatalf("shape %dx%d", h2.Value.Rows, h2.Value.Cols)
	}
	// Outputs bounded: GRU output is a convex combination of h (0) and tanh.
	if h2.Value.MaxAbs() > 1 {
		t.Fatal("GRU output out of range")
	}
}

func TestGRUCellLearnsToRemember(t *testing.T) {
	// Train a GRU (1 step) to copy its input to hidden state.
	rng := rand.New(rand.NewSource(8))
	c := NewGRUCell(rng, 1, 1)
	opt := autodiff.NewAdam(0.05, c.Params())
	var last float64
	for i := 0; i < 800; i++ {
		tp := autodiff.NewTape()
		x := tensor.FromSlice(4, 1, []float64{0.9, -0.9, 0.5, -0.5})
		h := autodiff.Constant(ZeroState(4, 1))
		out := c.Apply(tp, autodiff.Constant(x), h)
		loss := mse(tp, out, x)
		tp.Backward(loss)
		opt.Step()
		last = loss.Value.Data[0]
	}
	if last > 0.02 {
		t.Fatalf("GRU failed to learn copy: loss %v", last)
	}
}

func TestLSTMCellStep(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewLSTMCell(rng, 2, 3)
	if len(c.Params()) != 8 {
		t.Fatal("lstm metadata wrong")
	}
	tp := autodiff.NewTape()
	x := autodiff.Constant(tensor.NewRandom(rng, 2, 2, 1))
	h := autodiff.Constant(ZeroState(2, 3))
	cell := autodiff.Constant(ZeroState(2, 3))
	h2, c2 := c.Apply(tp, x, h, cell)
	if h2.Value.Rows != 2 || h2.Value.Cols != 3 || c2.Value.Rows != 2 || c2.Value.Cols != 3 {
		t.Fatal("shapes wrong")
	}
	if h2.Value.MaxAbs() > 1 {
		t.Fatal("LSTM hidden out of range")
	}
}

func TestConvGRUCell(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	adj := adj3()
	cell := NewConvGRUCell(func() Module { return NewGCNConv(rng, 3+2, 2) })
	if len(cell.Params()) != 6 {
		t.Fatalf("param count %d", len(cell.Params()))
	}
	tp := autodiff.NewTape()
	convFn := func(m Module, x *autodiff.Node) *autodiff.Node {
		return m.(*GCNConv).Apply(tp, adj, x)
	}
	x := autodiff.Constant(tensor.NewRandom(rng, 3, 3, 1))
	h := autodiff.Constant(ZeroState(3, 2))
	h2 := cell.Apply(tp, convFn, x, h)
	if h2.Value.Rows != 3 || h2.Value.Cols != 2 {
		t.Fatal("shape wrong")
	}
	loss := mse(tp, h2, tensor.New(3, 2))
	tp.Backward(loss)
	for i, p := range cell.Params() {
		if p.Grad == nil {
			t.Fatalf("conv-GRU param %d got no gradient", i)
		}
	}
}

func TestConvLSTMCell(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj := adj3()
	cell := NewConvLSTMCell(func() Module { return NewGCNConv(rng, 1+2, 2) })
	if len(cell.Params()) != 8 {
		t.Fatalf("param count %d", len(cell.Params()))
	}
	tp := autodiff.NewTape()
	convFn := func(m Module, x *autodiff.Node) *autodiff.Node {
		return m.(*GCNConv).Apply(tp, adj, x)
	}
	x := autodiff.Constant(tensor.NewRandom(rng, 3, 1, 1))
	h := autodiff.Constant(ZeroState(3, 2))
	c := autodiff.Constant(ZeroState(3, 2))
	h2, c2 := cell.Apply(tp, convFn, x, h, c)
	loss := mse(tp, tp.Add(h2, c2), tensor.New(3, 2))
	tp.Backward(loss)
	for i, p := range cell.Params() {
		if p.Grad == nil {
			t.Fatalf("conv-LSTM param %d got no gradient", i)
		}
	}
}

// wantedRows draws an ascending, non-nil set of n's rows holding about share
// of them: none, some or all.
func wantedRows(rng *rand.Rand, n int, share float64) []int {
	want := []int{}
	for r := 0; r < n; r++ {
		if rng.Float64() < share || share == 1 {
			want = append(want, r)
		}
	}
	return want
}

// A GCN convolution read on wanted rows, recorded on a planning tape beside a
// second convolution of the same input read on every row (a GRU's reset gate
// beside its update gate), against the same program computed on every row:
// the wanted rows' values and every weight, bias and input gradient are
// Float64bits-equal, isolated rows and wanted sets from none to all.
func TestGCNConvWantedRowsMatchEveryRow(t *testing.T) {
	const n, in, out = 40, 5, 4
	for _, isolated := range []float64{0, 0.5, 1} {
		for trial := int64(0); trial < 6; trial++ {
			rng := rand.New(rand.NewSource(20*trial + 5))
			adj := diffusionGraph(rng, n, isolated).NormAdj()
			xm := tensor.NewRandom(rng, n, in, 1)
			want := wantedRows(rng, n, float64(trial)/5)
			target := tensor.NewRandom(rng, len(want), out, 1)
			run := func(planned bool) []*tensor.Matrix {
				r := rand.New(rand.NewSource(trial))
				c1, c2 := NewGCNConv(r, in, out), NewGCNConv(r, in, out)
				x := autodiff.Param(xm.Clone())
				tp := autodiff.NewTape()
				if planned {
					tp.Plan()
				}
				y := tp.GatherRows(c1.Apply(tp, adj, x), want)
				tp.Pin(y) // read after Backward, which Tanh may write over
				loss := tp.Add(mse(tp, tp.Tanh(y), target), tp.Mean(tp.Tanh(c2.Apply(tp, adj, x))))
				tp.Backward(loss)
				outs := []*tensor.Matrix{y.Value}
				for _, prm := range append(CollectParams(c1, c2), x) {
					outs = append(outs, prm.Grad)
				}
				return outs
			}
			checkWantedRuns(t, fmt.Sprintf("isolated %v, %d wanted rows", isolated, len(want)), run)
		}
	}
}

// A graph-gated LSTM cell read on the wanted rows of its new hidden and cell
// state, recorded on a planning tape — its gates on the rows read, the
// propagation on the rows those read — against the cell computed on every
// row: values and every weight, bias and input gradient are
// Float64bits-equal.
func TestConvLSTMCellWantedRowsMatchEveryRow(t *testing.T) {
	const n, in, hid = 40, 3, 4
	for _, isolated := range []float64{0, 0.5, 1} {
		for trial := int64(0); trial < 6; trial++ {
			rng := rand.New(rand.NewSource(20*trial + 7))
			adj := diffusionGraph(rng, n, isolated).NormAdj()
			xm, hm, cm := tensor.NewRandom(rng, n, in, 1), tensor.NewRandom(rng, n, hid, 1), tensor.NewRandom(rng, n, hid, 1)
			want := wantedRows(rng, n, float64(trial)/5)
			target := tensor.NewRandom(rng, len(want), hid, 1)
			run := func(planned bool) []*tensor.Matrix {
				r := rand.New(rand.NewSource(trial))
				cell := NewConvLSTMCell(func() Module { return NewGCNConv(r, in+hid, hid) })
				x, h := autodiff.Param(xm.Clone()), autodiff.Param(hm.Clone())
				tp := autodiff.NewTape()
				if planned {
					tp.Plan()
				}
				conv := func(m Module, in *autodiff.Node) *autodiff.Node { return m.(*GCNConv).Apply(tp, adj, in) }
				hNew, cNew := cell.Apply(tp, conv, x, h, autodiff.Constant(cm.Clone()))
				hNew, cNew = tp.GatherRows(hNew, want), tp.GatherRows(cNew, want)
				tp.Pin(hNew) // read after Backward, as cNew, which Tanh may write over
				tp.Pin(cNew)
				loss := tp.Add(mse(tp, hNew, target), tp.Mean(tp.Tanh(cNew)))
				tp.Backward(loss)
				outs := []*tensor.Matrix{hNew.Value, cNew.Value}
				for _, prm := range append(cell.Params(), x, h) {
					outs = append(outs, prm.Grad)
				}
				return outs
			}
			checkWantedRuns(t, fmt.Sprintf("isolated %v, %d wanted rows", isolated, len(want)), run)
		}
	}
}

// checkWantedRuns compares run on every row (false) with run planned for the
// wanted rows (true): the values and gradients it returns, Float64bits-equal.
func checkWantedRuns(t *testing.T, name string, run func(planned bool) []*tensor.Matrix) {
	t.Helper()
	want, got := run(false), run(true)
	for i := range want {
		if !sameBits(want[i], got[i]) {
			t.Fatalf("%s: value or gradient %d of %d differs from every row's", name, i, len(want))
		}
	}
}

func TestCollectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := NewLinear(rng, 1, 1)
	b := NewLinear(rng, 1, 1)
	if got := len(CollectParams(a, b)); got != 4 {
		t.Fatalf("CollectParams = %d", got)
	}
}

func TestRGCNConvShapesAndGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := NewRGCNConv(rng, 3, 4, 2)
	if c.Out() != 4 || c.Relations() != 2 {
		t.Fatal("metadata wrong")
	}
	if len(c.Params()) != 1+2+1 {
		t.Fatalf("param count %d", len(c.Params()))
	}
	typed := []*tensor.CSR{adj3(), adj3()}
	tp := autodiff.NewTape()
	x := autodiff.Constant(tensor.NewRandom(rng, 3, 3, 1))
	y := c.Apply(tp, typed, x)
	if y.Value.Rows != 3 || y.Value.Cols != 4 {
		t.Fatalf("shape %dx%d", y.Value.Rows, y.Value.Cols)
	}
	loss := mse(tp, y, tensor.New(3, 4))
	tp.Backward(loss)
	for i, p := range c.Params() {
		if p.Grad == nil {
			t.Fatalf("param %d detached", i)
		}
	}
}

func TestRGCNConvSkipsMissingRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := NewRGCNConv(rng, 2, 2, 3)
	// Only one adjacency available; empty second one; third missing.
	empty := tensor.NewCSR(3, 3, nil)
	tp := autodiff.NewTape()
	x := autodiff.Constant(tensor.NewRandom(rng, 3, 2, 1))
	y := c.Apply(tp, []*tensor.CSR{adj3(), empty}, x)
	if y.Value.Rows != 3 {
		t.Fatal("shape wrong with partial relations")
	}
}

// ZeroState returns an n×dim zero matrix (initial recurrent state).
func ZeroState(n, dim int) *tensor.Matrix { return tensor.New(n, dim) }

// In returns the input dimension.
func (l *Linear) In() int { return l.in }

// Out returns the output dimension.
func (l *Linear) Out() int { return l.out }

// Out returns the output dimension.
func (c *GCNConv) Out() int { return c.lin.out }

// Out returns the output dimension.
func (c *DiffusionConv) Out() int { return c.B.Value.Cols }

// Out returns the output dimension.
func (m *MLP) Out() int { return m.layers[len(m.layers)-1].out }

// Relations returns the number of relation transforms.
func (c *RGCNConv) Relations() int { return len(c.Rel) }

// Out returns the output dimension.
func (c *RGCNConv) Out() int { return c.B.Value.Cols }

// Apply computes the diffusion convolution with the given forward and
// reverse transition matrices, every row taken as active.
func (c *DiffusionConv) Apply(tp *autodiff.Tape, fwd, rev *tensor.CSR, x *autodiff.Node) *autodiff.Node {
	p := &tensor.Diffusion{FwdIn: fwd, RevIn: rev, FwdAA: fwd, RevAA: rev}
	return c.ApplyDiffused(tp, Diffuse(tp, p, x, c.K))
}
