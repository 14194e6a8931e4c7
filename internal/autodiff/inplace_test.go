package autodiff

import (
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

// inPlaceRun is one pass of an inPlaceProgram: its loss, its program, every
// op's value as the op computed it (copied before a later op could write over
// it) and the node it kept.
type inPlaceRun struct {
	root, kept *Node
	p          *program
	vals       []*tensor.Matrix
}

// variant is how a pass of an inPlaceProgram differs from its plain pass.
type variant struct {
	// depart > 0 records an op the plain pass does not have before its op
	// number depart: the pass departs there from the plain pass's plan.
	depart int
	// freeze gives every other parameter leaf no gradient, which leaves the
	// ops, and so the plan, as they are but changes what the rules read.
	freeze bool
}

// inPlaceProgram records a random forward of the row-local ops mixed with
// MatMul, SpMM, ConcatCols, GatherRows and the losses, over operands that need
// a gradient and operands that do not, aliased operands included: an operand
// read by a ConcatCols and then by a row-local op last, concatenations in
// their shapes of use (viewCase), loss terms read before other ops, and one
// value pinned with Keep. The same seed and variant build
// the same program on any tape.
func inPlaceProgram(seed int64, tp *Tape, v variant) *inPlaceRun {
	p := &program{rng: rand.New(rand.NewSource(seed)), tp: tp, uses: map[*Node]int{}, freeze: v.freeze}
	run := &inPlaceRun{p: p}
	op := func(n *Node) *Node {
		run.vals = append(run.vals, dense(n.concat()))
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
		if k == v.depart {
			// Mean is otherwise recorded only over interior nodes, after
			// every op: a plan never has it here over a leaf.
			p.terms = append(p.terms, tp.Mean(Constant(tensor.FromSlice(1, 2, []float64{1, -2}))))
		}
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
		cols := p.widths[a]
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
			op(tp.MatMulAcc(a, x, p.weight(x.Value.Cols, cols)))
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
			h := tp.Head(a, 1+p.rng.Intn(progRows-1))
			run.vals = append(run.vals, dense(h.concat()))
			p.terms = append(p.terms, p.upstream(tp.Scale(h, 3)))
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
	run.vals = append(run.vals, dense(run.root.concat()))
	return run
}

// A recording tape that learned its plan on a first pass writes row-local
// results over operands no backward rule reads; every value, every interior
// gradient and every parameter gradient is bit-identical to a fresh tape's,
// over random programs, passes that depart from the plan partway, passes
// whose leaves need other gradients than the plan's pass's (so other backward
// rules read values) and passes after them; a kept value survives whole, and a written-over one keeps its
// shape for the backward rules. A Keep that comes after a value was written
// over panics, as it does on an inference tape.
func TestRecordingInPlaceMatchesFreshTape(t *testing.T) {
	written, writtenGrad := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		tp := NewTape()
		depart := variant{depart: 1 + int(seed%13)}
		frozen := variant{freeze: true}
		for pass, d := range []variant{{}, {}, {}, depart, depart, {}, frozen, frozen, {}} {
			poisonPool()
			want := inPlaceProgram(seed, NewTape(), d)
			want.p.tp.Backward(want.root)
			poisonPool()
			got := inPlaceProgram(seed, tp, d)
			tp.Backward(got.root)

			if len(got.vals) != len(want.vals) {
				t.Fatalf("seed %d pass %d: %d values, fresh tape %d", seed, pass, len(got.vals), len(want.vals))
			}
			for i, v := range want.vals {
				if !bitEqual(v, got.vals[i]) {
					t.Fatalf("seed %d pass %d: value %d is %v, fresh tape %v", seed, pass, i, got.vals[i], v)
				}
			}
			for i, w := range want.p.params {
				wg, gg := w.Grad, got.p.params[i].Grad
				if (wg == nil) != (gg == nil) || wg != nil && !bitEqual(wg, gg) {
					t.Fatalf("seed %d pass %d: parameter %d gradient %v, fresh tape %v", seed, pass, i, gg, wg)
				}
			}
			fresh := want.p.tp.nodes
			for i, n := range tp.nodes {
				ref := fresh[i]
				if (n.Grad == nil) != (ref.Grad == nil) || n.Grad != nil && !bitEqual(n.Grad, ref.Grad) {
					t.Fatalf("seed %d pass %d: node %d (op %d) gradient %v, fresh tape %v", seed, pass, i, n.op, n.Grad, ref.Grad)
				}
				if n.Value.Rows != ref.Value.Rows || n.Value.Cols != ref.Value.Cols {
					t.Fatalf("seed %d pass %d: node %d is %dx%d, fresh tape %dx%d", seed, pass, i, n.Value.Rows, n.Value.Cols, ref.Value.Rows, ref.Value.Cols)
				}
				if n.Value.Data == nil && ref.Value.Data != nil {
					if pass == 0 {
						t.Fatalf("seed %d: node %d written over without a plan", seed, i)
					}
					written++
					if n.requiresGrad {
						writtenGrad++
					}
				}
			}
			if k := got.kept; k != nil && (k.Value.Data == nil || !bitEqual(k.Value, want.kept.Value)) {
				t.Fatalf("seed %d pass %d: kept node %d written over", seed, pass, k.seq)
			}
			want.p.tp.Release()
			tp.Release()
		}
	}
	if written == 0 || writtenGrad == 0 {
		t.Fatalf("%d values written over, %d of them needing a gradient: the programs do not exercise the in-place path", written, writtenGrad)
	}
	t.Logf("%d values written over, %d of them needing a gradient", written, writtenGrad)

	// A value kept on one pass but not on the one the plan was learned from
	// has been written over by the time Keep runs: that must fail loudly.
	a := Param(tensor.FromSlice(1, 2, []float64{1, -1}))
	tp := NewTape()
	chain := func(keep bool) {
		h := tp.Add(a, a)
		tp.Backward(tp.Mean(tp.OneMinus(h)))
		if keep {
			tp.Keep(h)
		}
	}
	chain(false)
	tp.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a late Keep of a value written over did not panic")
		}
	}()
	chain(true)
}

// A product by a square matrix writes over its left factor on a warm tape
// when it reads that factor last, and its values and gradients stay
// bit-identical to a fresh tape's: on an inference tape, and on a recording
// tape whose square factor is a constant. On a recording tape whose square
// factor needs a gradient its rule reads the left factor, which is never
// written over. The left factor has zero rows and −0 entries.
func TestSquareMatMulWritesOverDyingInput(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randomWithZeroRows(rng, 7, 3)
	signed(rng, x)
	w, bias := Param(tensor.NewRandom(rng, 3, 4, 1)), Param(tensor.New(1, 4))
	sqConst, sqParam := Constant(tensor.NewRandom(rng, 4, 4, 1)), Param(tensor.NewRandom(rng, 4, 4, 1))
	target := tensor.NewRandom(rng, 7, 4, 1)
	// pass records a·sq over a dying a, and reports whether the product took
	// a's buffer.
	pass := func(tp *Tape, sq *Node) (out *Node, over bool) {
		a := tp.AddBias(tp.MatMul(Constant(x), w), bias)
		buf := &a.Value.Data[0]
		out = tp.MatMul(a, sq)
		return out, &out.Value.Data[0] == buf
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
			want, _ := pass(fresh, c.sq)
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
			got, over := pass(tp, c.sq)
			if warm := k > 0; over != (warm && c.over) {
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
