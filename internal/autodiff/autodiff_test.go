package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"streamgnn/internal/tensor"
)

// numericalGrad computes the finite-difference gradient of loss() with
// respect to p.Value, where loss rebuilds the whole forward pass.
func numericalGrad(p *Node, loss func() float64) *tensor.Matrix {
	const h = 1e-6
	g := tensor.New(p.Value.Rows, p.Value.Cols)
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + h
		up := loss()
		p.Value.Data[i] = orig - h
		down := loss()
		p.Value.Data[i] = orig
		g.Data[i] = (up - down) / (2 * h)
	}
	return g
}

// checkGrad compares the tape gradient of a scalar-valued forward function
// against finite differences for every parameter in params.
func checkGrad(t *testing.T, params []*Node, forward func(tp *Tape) *Node) {
	t.Helper()
	loss := func() float64 {
		tp := NewTape()
		return forward(tp).Value.Data[0]
	}
	tp := NewTape()
	out := forward(tp)
	tp.Backward(out)
	for pi, p := range params {
		want := numericalGrad(p, loss)
		if p.Grad == nil {
			if want.MaxAbs() > 1e-4 {
				t.Fatalf("param %d: tape grad nil but numeric grad %v", pi, want)
			}
			continue
		}
		if !p.Grad.AllClose(want, 1e-4) {
			t.Fatalf("param %d gradient mismatch:\n tape %v\n num  %v", pi, p.Grad, want)
		}
		p.Grad.Zero()
	}
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Param(tensor.NewRandom(rng, 3, 4, 1))
	b := Param(tensor.NewRandom(rng, 4, 2, 1))
	checkGrad(t, []*Node{a, b}, func(tp *Tape) *Node {
		return tp.Mean(tp.MatMul(a, b))
	})
}

func TestElementwiseGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Param(tensor.NewRandom(rng, 2, 3, 1))
	b := Param(tensor.NewRandom(rng, 2, 3, 1))
	cases := map[string]func(tp *Tape) *Node{
		"add":      func(tp *Tape) *Node { return tp.Mean(tp.Add(a, b)) },
		"sub":      func(tp *Tape) *Node { return tp.Mean(tp.Sub(a, b)) },
		"mul":      func(tp *Tape) *Node { return tp.Mean(tp.Mul(a, b)) },
		"scale":    func(tp *Tape) *Node { return tp.Mean(tp.Scale(a, -2.5)) },
		"sigmoid":  func(tp *Tape) *Node { return tp.Mean(tp.Sigmoid(a)) },
		"tanh":     func(tp *Tape) *Node { return tp.Mean(tp.Tanh(a)) },
		"oneminus": func(tp *Tape) *Node { return tp.Mean(tp.OneMinus(tp.Sigmoid(a))) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) { checkGrad(t, []*Node{a, b}, f) })
	}
}

func TestReLUGrad(t *testing.T) {
	// Avoid kink at 0 by keeping values away from it.
	a := Param(tensor.FromSlice(2, 2, []float64{-1.5, 0.7, 2.2, -0.4}))
	checkGrad(t, []*Node{a}, func(tp *Tape) *Node {
		return tp.Mean(tp.ReLU(a))
	})
}

func TestSpMMGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj := tensor.NewCSR(3, 3, [][]tensor.CSREntry{
		{{Col: 0, Val: 0.5}, {Col: 1, Val: 0.5}},
		{{Col: 2, Val: 1.0}},
		{{Col: 0, Val: 0.3}, {Col: 2, Val: 0.7}},
	})
	x := Param(tensor.NewRandom(rng, 3, 2, 1))
	checkGrad(t, []*Node{x}, func(tp *Tape) *Node {
		return tp.Mean(tp.SpMM(adj, x))
	})
}

func TestAddBiasGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := Param(tensor.NewRandom(rng, 3, 2, 1))
	b := Param(tensor.NewRandom(rng, 1, 2, 1))
	checkGrad(t, []*Node{m, b}, func(tp *Tape) *Node {
		return tp.Mean(tp.AddBias(m, b))
	})
}

// ConcatCols' gradient, through a product that reads the view's parts and a
// gather that mixes the product's rows.
func TestConcatGatherGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Param(tensor.NewRandom(rng, 3, 2, 1))
	b := Param(tensor.NewRandom(rng, 3, 3, 1))
	w := Constant(tensor.NewRandom(rng, 5, 2, 1))
	checkGrad(t, []*Node{a, b}, func(tp *Tape) *Node {
		cat := tp.ConcatCols(a, b)
		return tp.Mean(tp.GatherRows(tp.MatMul(cat, w), []int{2, 0, 2}))
	})
}

func TestScatterRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	base := Param(tensor.NewRandom(rng, 5, 2, 1))
	src := Param(tensor.NewRandom(rng, 2, 2, 1))
	w := Constant(tensor.NewRandom(rng, 5, 2, 1)) // a different weight per element
	checkGrad(t, []*Node{base, src}, func(tp *Tape) *Node {
		// base is read again beside the scatter, src through another op.
		sc := tp.ScatterRows(base, tp.Tanh(src), []int{1, 3})
		return tp.Mean(tp.Mul(tp.Add(sc, base), w))
	})
	defer func() {
		if recover() == nil {
			t.Fatal("ScatterRows accepted rows out of order")
		}
	}()
	NewTape().ScatterRows(base, src, []int{3, 1})
}

func TestMSEGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Param(tensor.NewRandom(rng, 3, 2, 1))
	target := tensor.NewRandom(rng, 3, 2, 1)
	checkGrad(t, []*Node{p}, func(tp *Tape) *Node {
		return tp.MSE(p, target)
	})
}

func TestBCEWithLogitsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Param(tensor.NewRandom(rng, 4, 1, 2))
	target := tensor.New(4, 1)
	target.Data[1] = 1
	target.Data[3] = 1
	checkGrad(t, []*Node{p}, func(tp *Tape) *Node {
		return tp.BCEWithLogits(p, target)
	})
}

func TestBCEWithLogitsValue(t *testing.T) {
	// logit 0 against any target gives ln 2.
	p := Param(tensor.New(1, 1))
	tp := NewTape()
	out := tp.BCEWithLogits(p, tensor.FromSlice(1, 1, []float64{1}))
	if math.Abs(out.Value.Data[0]-math.Ln2) > 1e-12 {
		t.Fatalf("BCE(0,1) = %v, want ln2", out.Value.Data[0])
	}
	// Large positive logit against target 1 -> ~0 loss.
	p.Value.Data[0] = 30
	tp = NewTape()
	out = tp.BCEWithLogits(p, tensor.FromSlice(1, 1, []float64{1}))
	if out.Value.Data[0] > 1e-10 {
		t.Fatalf("BCE(30,1) = %v, want ~0", out.Value.Data[0])
	}
}

func TestCompositeGRUStyleGrad(t *testing.T) {
	// A GRU-flavored composite: h' = z∘h + (1−z)∘tanh(x·W), z = σ(x·Wz).
	rng := rand.New(rand.NewSource(8))
	x := Constant(tensor.NewRandom(rng, 2, 3, 1))
	h := Param(tensor.NewRandom(rng, 2, 2, 1))
	w := Param(tensor.NewRandom(rng, 3, 2, 1))
	wz := Param(tensor.NewRandom(rng, 3, 2, 1))
	target := tensor.NewRandom(rng, 2, 2, 1)
	checkGrad(t, []*Node{h, w, wz}, func(tp *Tape) *Node {
		z := tp.Sigmoid(tp.MatMul(x, wz))
		cand := tp.Tanh(tp.MatMul(x, w))
		hNew := tp.Add(tp.Mul(z, h), tp.Mul(tp.OneMinus(z), cand))
		return tp.MSE(hNew, target)
	})
}

func TestGradAccumulatesAcrossSharedUse(t *testing.T) {
	// y = mean(a + a) has gradient 2/n per element.
	a := Param(tensor.FromSlice(1, 2, []float64{1, 2}))
	tp := NewTape()
	out := tp.Mean(tp.Add(a, a))
	tp.Backward(out)
	want := tensor.FromSlice(1, 2, []float64{1, 1})
	if !a.Grad.AllClose(want, 1e-12) {
		t.Fatalf("shared-use grad = %v, want %v", a.Grad, want)
	}
}

func TestConstantGetsNoGrad(t *testing.T) {
	c := Constant(tensor.FromSlice(1, 1, []float64{3}))
	p := Param(tensor.FromSlice(1, 1, []float64{2}))
	tp := NewTape()
	out := tp.Mean(tp.Mul(c, p))
	tp.Backward(out)
	if c.Grad != nil {
		t.Fatal("constant received a gradient buffer")
	}
	if p.Grad == nil || math.Abs(p.Grad.Data[0]-3) > 1e-12 {
		t.Fatalf("param grad = %v, want 3", p.Grad)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar root")
		}
	}()
	a := Param(tensor.New(2, 2))
	tp := NewTape()
	tp.Backward(tp.Add(a, a))
}

// A second backward over one pass would run every rule again over the
// interior gradients the first left behind; it panics instead, and a new pass
// may run one again.
func TestSecondBackwardPanics(t *testing.T) {
	a := Param(tensor.FromSlice(1, 2, []float64{1, 2}))
	tp := NewTape()
	for pass := 0; pass < 2; pass++ {
		root := tp.Mean(tp.Tanh(tp.Mul(a, a)))
		tp.Backward(root)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("pass %d: a second backward on one tape ran", pass)
				}
			}()
			tp.Backward(root)
		}()
		tp.Release()
	}
	tp.Backward(tp.Mean(a))
}

// A concatenation view is read part by part, by a product's left factor,
// MatMulAcc's x, SpMM, GatherRows, Head and ConcatCols alone. Every other
// reader of a view (v, or h, a view of its first row) panics on either kind of
// tape, naming the op, before its kernel runs: the tape records nothing and
// meters no float. GatherRows of a view reads what GatherRows of its copy
// reads, and its gradient lands in the view's blocks, none in a constant
// part's.
func TestViewReadersPanic(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	rng := rand.New(rand.NewSource(10))
	a, b := Param(tensor.NewRandom(rng, 3, 2, 1)), Param(tensor.NewRandom(rng, 3, 2, 1))
	m, sq := Param(tensor.NewRandom(rng, 3, 4, 1)), Param(tensor.NewRandom(rng, 3, 3, 1))
	row := Param(tensor.NewRandom(rng, 1, 4, 1))
	target := tensor.New(3, 4)
	readers := []struct {
		op   string
		read func(tp *Tape, v, h *Node)
	}{
		{"Add", func(tp *Tape, v, h *Node) { tp.Add(m, v) }},
		{"Sub", func(tp *Tape, v, h *Node) { tp.Sub(v, m) }},
		{"Mul", func(tp *Tape, v, h *Node) { tp.Mul(v, v) }},
		{"Scale", func(tp *Tape, v, h *Node) { tp.Scale(v, 2) }},
		{"AddBias", func(tp *Tape, v, h *Node) { tp.AddBias(m, h) }},
		{"Sigmoid", func(tp *Tape, v, h *Node) { tp.Sigmoid(v) }},
		{"Tanh", func(tp *Tape, v, h *Node) { tp.Tanh(v) }},
		{"ReLU", func(tp *Tape, v, h *Node) { tp.ReLU(v) }},
		{"OneMinus", func(tp *Tape, v, h *Node) { tp.OneMinus(v) }},
		{"ScatterRows", func(tp *Tape, v, h *Node) { tp.ScatterRows(v, row, []int{2}) }},
		{"ScatterRows", func(tp *Tape, v, h *Node) { tp.ScatterRows(m, h, []int{2}) }},
		{"MatMul's right operand", func(tp *Tape, v, h *Node) { tp.MatMul(sq, v) }},
		{"MatMulAcc's sum", func(tp *Tape, v, h *Node) { tp.MatMulAcc(v, sq, m) }},
		{"MatMulAcc's w", func(tp *Tape, v, h *Node) { tp.MatMulAcc(m, sq, v) }},
		{"Mean", func(tp *Tape, v, h *Node) { tp.Mean(v) }},
		{"Sum", func(tp *Tape, v, h *Node) { tp.Sum(v) }},
		{"MSESeg", func(tp *Tape, v, h *Node) { tp.MSE(v, target) }},
		{"BCESeg", func(tp *Tape, v, h *Node) { tp.BCEWithLogits(h, target.RowRange(0, 1)) }},
		{"Keep", func(tp *Tape, v, h *Node) { tp.Keep(v) }},
		{"Detach", func(tp *Tape, v, h *Node) { tp.Detach(h) }},
	}
	for _, tp := range []*Tape{NewTape(), NewInferenceTape()} {
		for _, r := range readers {
			v := tp.ConcatCols(a, b)
			h := tp.Head(v, 1)
			n := tp.Len()
			tensor.ResetMeter()
			msg := panicMessage(func() { r.read(tp, v, h) })
			if !strings.Contains(msg, r.op) || tp.Len() != n || tensor.TotalFloats() != 0 {
				t.Fatalf("%s of a view (inference tape %v): panic %q, %d ops recorded, %d floats metered",
					r.op, tp.noGrad, msg, tp.Len()-n, tensor.TotalFloats())
			}
			tp.Release()
		}
	}

	c := Constant(tensor.NewRandom(rng, 3, 3, 1))
	rows := []int{2, 0, 2}
	tp := NewTape()
	v := tp.ConcatCols(a, c)
	got := tp.GatherRows(v, rows)
	if want := tensor.GatherRows(v.concat().Dense(), rows); !got.Value.Equal(want) {
		t.Fatalf("GatherRows of a view reads %v, of its copy %v", got.Value, want)
	}
	tp.Backward(tp.Sum(got))
	if v.grads[1] != nil || c.Grad != nil {
		t.Fatal("GatherRows of a view gave the constant part a gradient")
	}
	for i, want := range []float64{1, 0, 2} { // row 2 read twice, row 1 never
		for _, g := range a.Grad.Row(i) {
			if g != want {
				t.Fatalf("GatherRows of a view: the first part's gradient %v, want row %d to read %v", a.Grad, i, want)
			}
		}
	}
	tp.Release()
}

// panicMessage runs f and returns what it panicked with, "<nil>" if nothing.
func panicMessage(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize mean((w - target)^2) by SGD.
	w := Param(tensor.FromSlice(1, 3, []float64{5, -4, 3}))
	target := tensor.FromSlice(1, 3, []float64{1, 2, 3})
	opt := NewSGD(0.3, []*Node{w})
	for i := 0; i < 200; i++ {
		tp := NewTape()
		loss := tp.MSE(w, target)
		tp.Backward(loss)
		opt.Step()
	}
	if !w.Value.AllClose(target, 1e-3) {
		t.Fatalf("SGD did not converge: %v", w.Value)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := Param(tensor.FromSlice(1, 3, []float64{5, -4, 3}))
	target := tensor.FromSlice(1, 3, []float64{1, 2, 3})
	opt := NewAdam(0.1, []*Node{w})
	for i := 0; i < 500; i++ {
		tp := NewTape()
		loss := tp.MSE(w, target)
		tp.Backward(loss)
		opt.Step()
	}
	if !w.Value.AllClose(target, 1e-2) {
		t.Fatalf("Adam did not converge: %v", w.Value)
	}
}

func TestClipScaleBoundsGradient(t *testing.T) {
	w := Param(tensor.FromSlice(1, 2, []float64{0, 0}))
	w.Grad = tensor.FromSlice(1, 2, []float64{30, 40}) // norm 50
	s := clipScale([]*Node{w}, 5)
	if math.Abs(s-0.1) > 1e-12 {
		t.Fatalf("clipScale = %v, want 0.1", s)
	}
	if clipScale([]*Node{w}, 0) != 1 {
		t.Fatal("clip disabled should return 1")
	}
	w.Grad = tensor.FromSlice(1, 2, []float64{0.3, 0.4})
	if clipScale([]*Node{w}, 5) != 1 {
		t.Fatal("within-bound gradient should not be scaled")
	}
}

func TestOptimizerZeroGrad(t *testing.T) {
	w := Param(tensor.FromSlice(1, 1, []float64{1}))
	w.Grad = tensor.FromSlice(1, 1, []float64{9})
	opt := NewSGD(0.1, []*Node{w})
	opt.ZeroGrad()
	if w.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad did not clear gradient")
	}
}

func TestHeadGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := Param(tensor.NewRandom(rng, 5, 3, 1))
	w := Constant(tensor.NewRandom(rng, 2, 3, 1))
	checkGrad(t, []*Node{a}, func(tp *Tape) *Node {
		// a is read whole beside its head, and the head twice.
		h := tp.Head(tp.Tanh(a), 2)
		return tp.Add(tp.Mean(tp.Mul(tp.Add(h, h), w)), tp.Mean(a))
	})
	tp := NewTape()
	if tp.Head(a, 5) != a || tp.Len() != 0 {
		t.Fatal("the head that is every row should be the node itself, unrecorded")
	}
	if h := tp.Head(a, 0); h.Value.Rows != 0 || h.Value.Cols != 3 {
		t.Fatalf("empty head is %dx%d", h.Value.Rows, h.Value.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Head accepted more rows than there are")
		}
	}()
	tp.Head(a, 6)
}

func TestSumGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Param(tensor.NewRandom(rng, 2, 3, 1))
	checkGrad(t, []*Node{a}, func(tp *Tape) *Node {
		return tp.Sum(a)
	})
	tp := NewTape()
	out := tp.Sum(a)
	if math.Abs(out.Value.Data[0]-a.Value.Sum()) > 1e-12 {
		t.Fatal("Sum value wrong")
	}
}
