package autodiff

import (
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

// inPlaceRun is one pass of an inPlaceProgram: its loss, its program, every
// op's node and the node it kept.
type inPlaceRun struct {
	root, kept *Node
	p          *program
	ops        []*Node
}

// variant is how a pass of an inPlaceProgram differs from its plain pass.
type variant struct {
	// freeze gives every other parameter leaf no gradient, which leaves the
	// ops as they are but changes what the rules read.
	freeze bool
	// still gives no parameter leaf a gradient: the program needs none.
	still bool
	// pin pins every pin-th node before the Run (0: none): with 1 the same
	// program, written over and given back nowhere.
	pin int
}

// inPlaceProgram records a random forward of the row-local ops mixed with
// MatMul, SpMM, ConcatCols, GatherRows and the losses, over operands that need
// a gradient and operands that do not, aliased operands included: an operand
// read by a ConcatCols and then by a row-local op last, concatenations in
// their shapes of use (viewCase), loss terms read before other ops, and one
// value pinned with Keep. The same seed and variant build the same program on
// any tape. On a planning tape (Plan) it runs the program for every row of
// its loss.
func inPlaceProgram(seed int64, tp *Tape, v variant) *inPlaceRun {
	p := &program{rng: rand.New(rand.NewSource(seed)), tp: tp, uses: map[*Node]int{}, freeze: v.freeze, still: v.still}
	run := &inPlaceRun{p: p}
	op := func(n *Node) *Node {
		run.ops = append(run.ops, n)
		return p.add(n)
	}
	for c := 1; c <= 3; c++ {
		p.add(p.param(progRows, c))
	}
	p.add(Constant(p.mat(progRows, 2)))
	p.add(tp.OwnedConstant(p.mat(progRows, 3)))
	op(tp.Tanh(tp.OwnedConstant(p.mat(progRows, 2))))
	ops := 16 + p.rng.Intn(24)
	keepAt := p.rng.Intn(ops)
	for k := 0; k < ops; k++ {
		if k == keepAt {
			var live []*Node
			for _, n := range p.nodes {
				if n.seq != 0 && p.uses[n] < 4 {
					live = append(live, n)
				}
			}
			if len(live) > 0 {
				run.kept = live[p.rng.Intn(len(live))]
				tp.Keep(run.kept)
			}
		}
		a := p.pick(0)
		if a == nil {
			break
		}
		cols := a.lcols
		switch p.rng.Intn(20) {
		case 0:
			op(tp.Sigmoid(a))
		case 1:
			op(tp.Tanh(a))
		case 2:
			op(tp.ReLU(a))
		case 3:
			op(tp.OneMinus(a))
		case 4:
			op(tp.Scale(a, []float64{2, -0.5, 0, -1}[p.rng.Intn(4)]))
		case 5, 6:
			op(tp.Add(a, p.second(a)))
		case 7:
			op(tp.Mul(a, p.second(a)))
		case 8:
			// A bias that needs a gradient, or a constant one.
			b := Constant(p.mat(1, cols))
			if p.rng.Intn(2) == 0 {
				b = p.param(1, cols)
			}
			op(tp.AddBias(a, b))
		case 9:
			op(tp.MatMul(a, p.weight(cols, 1+p.rng.Intn(4))))
		case 10:
			x := p.pick(0)
			if x == nil {
				x = p.param(progRows, 2)
			}
			op(tp.MatMulAcc(a, x, p.weight(x.lcols, cols)))
		case 11:
			op(tp.SpMM(p.csr(), a))
		case 12:
			if cols > 3 {
				op(p.partRead(tp.ConcatCols(a, p.param(progRows, 1))))
				break
			}
			op(p.partRead(tp.ConcatCols(a, p.second(a))))
		case 13:
			rows := make([]int, progRows)
			for i := range rows {
				rows[i] = p.rng.Intn(progRows)
			}
			op(tp.GatherRows(a, rows))
		case 14:
			src := tp.GatherRows(p.second(a), []int{p.rng.Intn(progRows), p.rng.Intn(progRows)})
			op(tp.ScatterRows(a, src, []int{0, 1 + p.rng.Intn(progRows-1)}))
		case 15:
			// Under Plan, Scale on the head's rows alone, over a
			// restriction of a, which it may write over.
			h := p.head(tp.Scale(a, 3), 1+p.rng.Intn(progRows-1))
			run.ops = append(run.ops, h)
			p.terms = append(p.terms, p.upstream(h))
		case 16, 17:
			// Read by a concatenation, then last by a row-local op, which
			// may write over it: the concatenation's rule reads its width.
			if cols > 3 || p.uses[a] >= 4 {
				break
			}
			op(p.partRead(tp.ConcatCols(a, p.second(a))))
			p.uses[a] = 4
			op([]func(*Node) *Node{tp.OneMinus, tp.Sigmoid}[p.rng.Intn(2)](a))
		case 18:
			// A loss term in the middle: a stays an operand of later ops.
			p.terms = append(p.terms, p.upstream(a))
		case 19:
			p.viewCase(a, op)
		}
	}
	for _, n := range p.nodes {
		if p.uses[n] == 0 {
			p.terms = append(p.terms, p.upstream(n))
		}
	}
	run.root = p.terms[0]
	for _, term := range p.terms[1:] {
		run.root = tp.Add(run.root, term)
	}
	if tp.planning {
		for i, n := range tp.nodes {
			if v.pin > 0 && i%v.pin == 0 {
				tp.Pin(n)
			}
		}
		run.root = tp.Run(run.root, nil)
	}
	run.ops = append(run.ops, run.root)
	return run
}

// heldEqual reports whether n holds want's values, the whole matrix computed
// on every row, bit for bit on the rows n was computed on.
func heldEqual(n *Node, want *tensor.Matrix) bool {
	if n.rows == nil {
		return bitEqual(n.Value, want)
	}
	if n.Value.Rows != len(n.rows) || n.Value.Cols != want.Cols {
		return false
	}
	for j, r := range n.rows {
		if !bitEqual(tensor.FromSlice(1, want.Cols, n.Value.Row(j)), tensor.FromSlice(1, want.Cols, want.Row(r))) {
			return false
		}
	}
	return true
}

// holds reports whether n still holds its value: no op wrote over it, and
// its tape did not give its buffer back.
func holds(n *Node) bool { return n.Value != nil && n.Value.Data != nil }

// A recording tape running random programs planned writes row-local results
// over operands no backward rule reads, and gives other buffers back at their
// last use. Every value that keeps its data holds the bits of the same
// program computed at once, which writes over nothing, on the rows the
// planned program computed; every parameter gradient, and every interior one
// of a node pinned, holds the bits of the same planned program with every
// node pinned, which writes over and gives back nothing — with every leaf
// needing a gradient, and every other one (so other backward rules read
// values), with no node pinned and with some, pass after pass on one tape. A
// pinned value survives Backward whole, with its gradient; no other node keeps
// a gradient, and a value written over or given back keeps its shape for the
// backward rules. A Keep that comes after the Run wrote over the value
// panics, as it does on an inference tape.
func TestRecordingInPlaceMatchesFreshTape(t *testing.T) {
	written, writtenGrad, pinnedGrads := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		tp := NewTape()
		for pass, d := range []variant{{}, {pin: 3}, {freeze: true}, {pin: 5}} {
			poisonPool()
			eager := inPlaceProgram(seed, NewTape(), d)
			poisonPool()
			ref := NewTape()
			ref.Plan()
			want := inPlaceProgram(seed, ref, variant{freeze: d.freeze, pin: 1})
			poisonPool()
			tp.Plan()
			got := inPlaceProgram(seed, tp, d)

			if len(got.ops) != len(eager.ops) {
				t.Fatalf("seed %d pass %d: %d values, eager tape %d", seed, pass, len(got.ops), len(eager.ops))
			}
			for i, n := range got.ops {
				if holds(n) && !heldEqual(n, eager.ops[i].Value) {
					t.Fatalf("seed %d pass %d: value %d is %v, eager tape %v", seed, pass, i, n.Value, eager.ops[i].Value)
				}
			}
			for i, n := range tp.nodes {
				r := ref.nodes[i]
				if n.Value.Rows != r.Value.Rows || n.Value.Cols != r.Value.Cols {
					t.Fatalf("seed %d pass %d: node %d is %dx%d, pinned tape %dx%d", seed, pass, i, n.Value.Rows, n.Value.Cols, r.Value.Rows, r.Value.Cols)
				}
				if !holds(n) && !n.view() {
					written++
					if n.requiresGrad {
						writtenGrad++
					}
				}
			}
			if k := got.kept; k != nil && (!holds(k) || !heldEqual(k, eager.kept.Value)) {
				t.Fatalf("seed %d pass %d: kept node %d written over", seed, pass, k.seq)
			}

			ref.Backward(want.root)
			tp.Backward(got.root)
			for i, w := range want.p.params {
				wg, gg := w.Grad, got.p.params[i].Grad
				if (wg == nil) != (gg == nil) || wg != nil && !bitEqual(wg, gg) {
					t.Fatalf("seed %d pass %d: parameter %d gradient %v, pinned tape %v", seed, pass, i, gg, wg)
				}
			}
			for i, n := range tp.nodes {
				r := ref.nodes[i]
				switch {
				case !n.pinned && n.Grad != nil:
					t.Fatalf("seed %d pass %d: node %d (op %d), not pinned, kept its gradient past Backward", seed, pass, i, n.op)
				case !n.pinned:
				case (n.Grad == nil) != (r.Grad == nil) || n.Grad != nil && !bitEqual(n.Grad, r.Grad):
					t.Fatalf("seed %d pass %d: pinned node %d (op %d) gradient %v, pinned tape %v", seed, pass, i, n.op, n.Grad, r.Grad)
				case !n.view() && (!holds(n) || !bitEqual(n.Value, r.Value)):
					t.Fatalf("seed %d pass %d: pinned node %d (op %d) lost its value in Backward", seed, pass, i, n.op)
				case n.Grad != nil:
					pinnedGrads++
				}
			}
			eager.p.tp.Release()
			ref.Release()
			tp.Release()
		}
	}
	if written == 0 || writtenGrad == 0 || pinnedGrads == 0 {
		t.Fatalf("%d values written over or given back, %d of them needing a gradient, %d pinned gradients: the programs miss a case", written, writtenGrad, pinnedGrads)
	}
	t.Logf("%d values written over or given back, %d of them needing a gradient, %d pinned gradients compared", written, writtenGrad, pinnedGrads)

	// A value written over in its Run is gone by the time a Keep after the
	// Run comes: that must fail loudly.
	a := Param(tensor.FromSlice(1, 2, []float64{1, -1}))
	tp := NewTape()
	tp.Plan()
	h := tp.Add(a, a)
	tp.Backward(tp.Mean(tp.OneMinus(h)))
	defer func() {
		if recover() == nil {
			t.Fatal("a late Keep of a value written over did not panic")
		}
	}()
	tp.Keep(h)
}

// A product by a square matrix in a planned forward writes over its left
// factor when it reads that factor last, and its values and gradients stay
// bit-identical to the same ops computed at once: on an inference tape, and
// on a recording tape whose square factor is a constant. On a recording tape
// whose square factor needs a gradient its rule reads the left factor, which
// is never written over. The left factor has zero rows and −0 entries.
func TestSquareMatMulWritesOverDyingInput(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randomWithZeroRows(rng, 7, 3)
	signed(rng, x)
	w, bias := Param(tensor.NewRandom(rng, 3, 4, 1)), Param(tensor.New(1, 4))
	sqConst, sqParam := Constant(tensor.NewRandom(rng, 4, 4, 1)), Param(tensor.NewRandom(rng, 4, 4, 1))
	target := tensor.NewRandom(rng, 7, 4, 1)
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	// pass records a·sq over a dying a, planned unless tp is fresh, and
	// reports whether the product took a's buffer: whether the ops drew fewer
	// floats than two products, x·w (which AddBias writes over) and a·sq.
	pass := func(tp, fresh *Tape, sq *Node) (out *Node, over bool) {
		tensor.ResetMeter()
		if tp != fresh {
			tp.Plan()
		}
		a := tp.AddBias(tp.MatMul(Constant(x), w), bias)
		out = tp.MatMul(a, sq)
		if tp != fresh {
			out = tp.Run(out, nil)
		}
		return out, tensor.TotalFloats() < int64(2*x.Rows*4)
	}
	params := []*Node{w, bias, sqParam}
	for _, c := range []struct {
		name      string
		inference bool
		sq        *Node
		over      bool
	}{
		{"inference tape", true, sqParam, true},
		{"recording tape, constant square factor", false, sqConst, true},
		{"recording tape, square factor needing a gradient", false, sqParam, false},
	} {
		tp := NewTape()
		if c.inference {
			tp = NewInferenceTape()
		}
		for k := 0; k < 3; k++ {
			fresh := NewTape()
			if c.inference {
				fresh = NewInferenceTape()
			}
			want, _ := pass(fresh, fresh, c.sq)
			wantVal := want.Value.Clone()
			var wantGrads []*tensor.Matrix
			if !c.inference {
				fresh.Backward(fresh.MSE(want, target))
				for _, p := range params {
					var g *tensor.Matrix
					if p.Grad != nil {
						g = p.Grad.Clone()
					}
					wantGrads = append(wantGrads, g)
				}
				zeroGrads(params)
			}
			got, over := pass(tp, fresh, c.sq)
			if over != c.over {
				t.Fatalf("%s, pass %d: product written over its left factor: %v", c.name, k, over)
			}
			if !bitEqual(got.Value, wantVal) {
				t.Fatalf("%s, pass %d: value %v, fresh tape %v", c.name, k, got.Value, wantVal)
			}
			if !c.inference {
				tp.Backward(tp.MSE(got, target))
				for i, p := range params {
					if (p.Grad == nil) != (wantGrads[i] == nil) || p.Grad != nil && !bitEqual(p.Grad, wantGrads[i]) {
						t.Fatalf("%s, pass %d: parameter %d gradient %v, fresh tape %v", c.name, k, i, p.Grad, wantGrads[i])
					}
				}
				zeroGrads(params)
			}
			fresh.Release()
			tp.Release()
		}
	}
}
