package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

// randomWithZeroRows fills a matrix from rng and zeroes every third row, the
// case MatMul's zero-row path treats specially.
func randomWithZeroRows(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewRandom(rng, rows, cols, 1)
	for r := 0; r < rows; r += 3 {
		for c := range m.Row(r) {
			m.Row(r)[c] = 0
		}
	}
	return m
}

func bitEqual(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// MatMulAcc is Add(sum, MatMul(x, w)) as one op: the value and the gradients
// of all three operands are bit-identical to the unfused pair's, on random
// shapes, with all-zero rows in x, and with the operands shared by a second
// use so accumulation order into each gradient is exercised.
func TestMatMulAccMatchesAddMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n, k, h := 1+rng.Intn(9), 1+rng.Intn(7), 1+rng.Intn(9)
		build := func(fused bool) (val *tensor.Matrix, grads []*tensor.Matrix) {
			r := rand.New(rand.NewSource(int64(100 + trial)))
			sum := Param(tensor.NewRandom(r, n, h, 1))
			x := Param(randomWithZeroRows(r, n, k))
			w := Param(tensor.NewRandom(r, k, h, 1))
			w2 := Param(tensor.NewRandom(r, k, h, 1))
			tp := NewTape()
			var out *Node
			if fused {
				out = tp.MatMulAcc(tp.MatMulAcc(sum, x, w), x, w2)
			} else {
				out = tp.Add(tp.Add(sum, tp.MatMul(x, w)), tp.MatMul(x, w2))
			}
			// A second consumer of sum and x, before the loss.
			out = tp.Add(out, tp.Mul(sum, tp.MatMul(x, w)))
			tp.Backward(tp.Sum(tp.Tanh(out)))
			return out.Value, []*tensor.Matrix{sum.Grad, x.Grad, w.Grad, w2.Grad}
		}
		wantV, wantG := build(false)
		gotV, gotG := build(true)
		if !bitEqual(wantV, gotV) {
			t.Fatalf("trial %d (%dx%d·%dx%d): fused value differs", trial, n, k, k, h)
		}
		for i := range wantG {
			if !bitEqual(wantG[i], gotG[i]) {
				t.Fatalf("trial %d: gradient %d differs between fused and unfused", trial, i)
			}
		}

		// In place on an inference tape, planned, over a sum with −0 rows
		// where x has all-zero ones (0 + −0 must still come out +0) and in
		// the others.
		r := rand.New(rand.NewSource(int64(200 + trial)))
		sm := tensor.NewRandom(r, n, h, 1)
		for row := 0; row < n; row += 2 {
			for c := range sm.Row(row) {
				sm.Row(row)[c] = math.Copysign(0, -1)
			}
		}
		xm, wm, w2m := randomWithZeroRows(r, n, k), tensor.NewRandom(r, k, h, 1), tensor.NewRandom(r, k, h, 1)
		x, w, w2 := Constant(xm), Param(wm), Param(w2m)
		ref := NewTape()
		want := ref.Add(ref.Add(Constant(sm), ref.MatMul(x, w)), ref.MatMul(x, w2)).Value
		tp := NewInferenceTape()
		for pass := 0; pass < 2; pass++ {
			tp.Plan()
			sum := tp.OwnedConstant(sm.Clone())
			buf := sum.Value.Data
			out := tp.Run(tp.MatMulAcc(tp.MatMulAcc(sum, x, w), x, w2), nil)
			if &out.Value.Data[0] != &buf[0] {
				t.Fatalf("trial %d pass %d: sum's buffer not written in place", trial, pass)
			}
			if !bitEqual(want, out.Value) {
				t.Fatalf("trial %d pass %d: value differs from Add(sum, MatMul)", trial, pass)
			}
			tp.Release()
		}
	}
}

func TestMatMulAccGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sum := Param(tensor.NewRandom(rng, 3, 2, 1))
	x := Param(tensor.NewRandom(rng, 3, 4, 1))
	w := Param(tensor.NewRandom(rng, 4, 2, 1))
	checkGrad(t, []*Node{sum, x, w}, func(tp *Tape) *Node {
		return tp.Mean(tp.Tanh(tp.MatMulAcc(sum, x, w)))
	})
}

// gruLike is a small forward with the shapes of use the models have: a value
// read long after it was made (h), a chain whose links die one by one, a value
// read directly after its last op use (kept), an SpMM, which mixes rows, over a
// value that dies there, and a leaf read last by an op that could otherwise
// write into it.
func gruLike(tp *Tape, x, h, w, leaf *Node) (out, kept *Node) {
	ring := tensor.NewCSR(5, 5, [][]tensor.CSREntry{{{Col: 1, Val: 0.5}, {Col: 4, Val: 2}}, {{Col: 2, Val: 1}}, {{Col: 0, Val: -1}}, {{Col: 3, Val: 1}}, {{Col: 3, Val: 0.25}}})
	xh := tp.SpMM(ring, tp.ConcatCols(x, h))
	z := tp.Sigmoid(tp.MatMul(xh, w))
	kept = tp.Tanh(tp.MatMul(xh, w))
	tp.Keep(kept)
	cand := tp.Mul(kept, z)
	return tp.Add(tp.Add(leaf, tp.Mul(z, h)), tp.Mul(tp.OneMinus(z), cand)), kept
}

// A planned forward on an inference tape computes the recording tape's
// values and, from a fresh tape's first pass on, gives each value's buffer
// back to its pass at its last read or writes in place over it, so it meters
// fewer floats than the same ops computed at once — kept and output values
// excepted, and never over a kept value, a Constant, or an SpMM's input — and
// counts no backward read: at the end the output and the kept value alone
// hold data.
func TestInferenceTapeReleasesAtLastUse(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	rng := rand.New(rand.NewSource(4))
	w := Param(tensor.NewRandom(rng, 7, 4, 1))
	xm, hm, lm := tensor.NewRandom(rng, 5, 3, 1), tensor.NewRandom(rng, 5, 4, 1), tensor.NewRandom(rng, 5, 4, 1)
	leaf := Constant(lm.Clone())
	want, wantKept := gruLike(NewTape(), Constant(xm), Constant(hm), w, leaf)
	tensor.ResetMeter()
	eager := NewInferenceTape()
	gruLike(eager, eager.OwnedConstant(xm.Clone()), eager.OwnedConstant(hm.Clone()), w, leaf)
	eagerFloats := tensor.TotalFloats()
	eager.Release()

	tp := NewInferenceTape()
	var floats [3]int64
	for pass := 0; pass < 3; pass++ {
		tensor.ResetMeter()
		tp.Plan()
		x, h := tp.OwnedConstant(xm.Clone()), tp.OwnedConstant(hm.Clone())
		out, kept := gruLike(tp, x, h, w, leaf)
		out = tp.Run(out, nil)
		floats[pass] = tensor.TotalFloats()
		if !bitEqual(want.Value, out.Value) {
			t.Fatalf("pass %d: inference value differs from the recording tape's", pass)
		}
		if !bitEqual(wantKept.Value, kept.Value) || !bitEqual(lm, leaf.Value) {
			t.Fatalf("pass %d: kept value or leaf written over", pass)
		}
		live := 0
		for _, n := range tp.nodes {
			if n.requiresGrad || n.reads != 0 || len(n.grads) != 0 {
				t.Fatalf("pass %d: inference tape recorded backward state", pass)
			}
			if holds(n) {
				live++
			}
		}
		if live != 2 {
			t.Fatalf("pass %d: %d values hold data at the end, want the output and the kept one", pass, live)
		}
		if !holds(kept) || holds(x) {
			t.Fatalf("pass %d: kept value given back or owned input held", pass)
		}
		got := tp.Detach(out)
		tp.Release()
		if !bitEqual(want.Value, got) {
			t.Fatalf("pass %d: detached output did not survive Release", pass)
		}
	}
	if floats[0] >= eagerFloats || floats[1] != floats[0] || floats[2] != floats[0] {
		t.Fatalf("metered floats per pass %v: want fewer than the %d of the ops computed at once, as many each time", floats, eagerFloats)
	}
}

// Run's output counts as read after every op of its Run: an op of the Run
// that reads it last neither writes over it nor releases it, on either kind
// of tape, and the copy of some of its rows Run returns reads it whole.
func TestRunKeepsItsOutput(t *testing.T) {
	xm := tensor.FromSlice(3, 2, []float64{1, -2, 0.5, 3, -1, 0})
	want := NewTape().OneMinus(Constant(xm)).Value
	for _, tp := range []*Tape{NewTape(), NewInferenceTape()} {
		for _, rows := range [][]int{nil, {0, 2}} {
			tp.Plan()
			h := tp.OneMinus(tp.OwnedConstant(xm.Clone()))
			tp.Sigmoid(h) // h's last reader among the ops
			if out := tp.Run(h, rows); !holds(out) || !heldEqual(out, want) {
				t.Fatalf("inference tape %v, rows %v: Run's output is %v, want %v", tp.noGrad, rows, out.Value, want)
			}
			tp.Release()
		}
	}
}

// A planned forward on an inference tape computes a recording tape's values
// over random programs of every forward op — concatenations read by each op
// that reads parts, nested, their heads, their parts read elsewhere and
// written over after the views' last read — pass after pass, while it gives
// values back at their last read and writes row-local results in place:
// every value that still holds data after its Run, the output among them,
// holds the recording tape's bits on the rows it was computed on.
func TestInferenceTapeProgramsMatchRecordingTape(t *testing.T) {
	released := 0
	for seed := int64(1); seed <= 300; seed++ {
		tp := NewInferenceTape()
		for pass := 0; pass < 3; pass++ {
			poisonPool()
			want := inPlaceProgram(seed, NewTape(), variant{})
			poisonPool()
			tp.Plan()
			got := inPlaceProgram(seed, tp, variant{})
			if len(got.ops) != len(want.ops) {
				t.Fatalf("seed %d pass %d: %d values, recording tape %d", seed, pass, len(got.ops), len(want.ops))
			}
			for i, n := range got.ops {
				if holds(n) && !heldEqual(n, want.ops[i].Value) {
					t.Fatalf("seed %d pass %d: value %d is %v, recording tape %v", seed, pass, i, n.Value, want.ops[i].Value)
				}
			}
			if !holds(got.root) {
				t.Fatalf("seed %d pass %d: the output was released", seed, pass)
			}
			if k := got.kept; k != nil && (!holds(k) || !heldEqual(k, want.kept.Value)) {
				t.Fatalf("seed %d pass %d: kept node %d given back or written over", seed, pass, k.seq)
			}
			for _, n := range tp.nodes {
				if !n.view() && !holds(n) {
					released++
				}
			}
			want.p.tp.Release()
			tp.Release()
		}
	}
	if released == 0 {
		t.Fatal("no value given back early: the programs do not exercise last uses")
	}
	t.Logf("%d values given back or written over before Release", released)
}

// An inference tape is a recording tape whose ops need no gradient: the same
// random planned program with no parameter gradient, on one tape of each kind
// pass after pass, meters the same floats on both, and the same values hold
// data after the Run, with the same bits.
func TestInferenceTapeIsRecordingTapeWithoutGradients(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	given := 0
	for seed := int64(1); seed <= 300; seed++ {
		inf, rec := NewInferenceTape(), NewTape()
		for pass := 0; pass < 3; pass++ {
			var runs [2]*inPlaceRun
			var floats [2]int64
			for k, tp := range []*Tape{inf, rec} {
				poisonPool()
				tensor.ResetMeter()
				tp.Plan()
				runs[k] = inPlaceProgram(seed, tp, variant{still: true})
				floats[k] = tensor.TotalFloats()
			}
			if floats[0] != floats[1] {
				t.Fatalf("seed %d pass %d: the inference tape metered %d floats, the recording tape %d", seed, pass, floats[0], floats[1])
			}
			for i, n := range inf.nodes {
				m := rec.nodes[i]
				if holds(n) != holds(m) || holds(n) && !bitEqual(n.Value, m.Value) {
					t.Fatalf("seed %d pass %d: node %d holds data %v, %v on the recording tape", seed, pass, i+1, holds(n), holds(m))
				}
				if !n.view() && !holds(n) {
					given++
				}
			}
			inf.Release()
			rec.Release()
		}
	}
	if given == 0 {
		t.Fatal("no value given back early: the programs do not exercise last uses")
	}
}

// An owned leaf is given back after its last reader, on either kind of tape:
// gathered features (OwnedConstant) and a state gather (Input) each read last
// by an SpMM, which never writes in place, leave their buffers to the pass's
// next draws of their lengths, which the meter does not count.
func TestOwnedLeafServesLaterDraw(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	rng := rand.New(rand.NewSource(7))
	xm, hm := tensor.NewRandom(rng, 6, 4, 1), tensor.NewRandom(rng, 6, 3, 1)
	w := Param(tensor.NewRandom(rng, 4, 1, 1))
	adj := tensor.NewCSR(6, 6, [][]tensor.CSREntry{
		{{Col: 1, Val: 0.5}}, {{Col: 0, Val: 1}, {Col: 5, Val: -1}}, nil,
		{{Col: 3, Val: 2}}, {{Col: 2, Val: 0.25}}, {{Col: 4, Val: 1}},
	})
	forward := func(tp *Tape, x, h *Node) (zx, zh, root *Node) {
		zx, zh = tp.SpMM(adj, tp.SpMM(adj, x)), tp.SpMM(adj, tp.SpMM(adj, h))
		return zx, zh, tp.Add(tp.Sum(tp.MatMul(zx, w)), tp.Sum(zh))
	}
	_, _, want := forward(NewTape(), Constant(xm), Constant(hm))
	for _, tp := range []*Tape{NewInferenceTape(), NewTape()} {
		for pass := 0; pass < 2; pass++ {
			x := xm.Clone()
			buf := &x.Data[0]
			tensor.ResetMeter()
			tp.Plan()
			xn := tp.OwnedConstant(x)
			hn := tp.Input(6, 3, func(_ []int, dst *tensor.Matrix) { copy(dst.Data, hm.Data) })
			zx, zh, root := forward(tp, xn, hn)
			tp.Pin(zx)
			tp.Pin(zh)
			root = tp.Run(root, nil)
			if !bitEqual(want.Value, root.Value) {
				t.Fatalf("inference tape %v pass %d: value %v, computed at once %v", tp.noGrad, pass, root.Value, want.Value)
			}
			if holds(xn) || holds(hn) || &zx.Value.Data[0] != buf {
				t.Fatalf("inference tape %v pass %d: an owned leaf held its buffer past its last reader", tp.noGrad, pass)
			}
			// The state gather, the two first SpMMs and the product: the
			// second SpMMs draw the leaves' buffers, and Sum and Add return
			// scalars of their own.
			if got, want := tensor.TotalFloats(), int64(6*3+6*4+6*3+6); got != want {
				t.Fatalf("inference tape %v pass %d: %d floats metered, want %d", tp.noGrad, pass, got, want)
			}
			if !tp.noGrad {
				tp.Backward(root)
				zeroGrads([]*Node{w})
			}
			tp.Release()
		}
	}
}

// ScatterRows owns its output: on an inference tape base's buffer becomes the
// scatter's, base dying there, and src's goes back to the pool, which hands it
// to the next op of src's shape — a scatter that kept a view of src would read
// it back overwritten. Where base lives on, the scatter is a copy.
func TestScatterRowsSurvivesRecycledOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bm, sm := tensor.NewRandom(rng, 6, 3, 1), tensor.NewRandom(rng, 2, 3, 1)
	forward := func(tp *Tape) *Node {
		base, src := tp.OwnedConstant(bm.Clone()), tp.OwnedConstant(sm.Clone())
		sc := tp.ScatterRows(base, src, []int{0, 4})
		big := tp.Scale(sc, -3)                              // base's shape
		small := tp.Scale(tp.GatherRows(sc, []int{1, 2}), 7) // src's shape, twice
		return tp.Add(tp.Add(sc, big), tp.ScatterRows(sc, small, []int{3, 5}))
	}
	sc := NewTape().ScatterRows(Constant(bm), Constant(sm), []int{0, 4}).Value
	for r := 0; r < bm.Rows; r++ {
		wantRow := bm.Row(r)
		switch r {
		case 0:
			wantRow = sm.Row(0)
		case 4:
			wantRow = sm.Row(1)
		}
		if !bitEqual(tensor.FromSlice(1, 3, sc.Row(r)), tensor.FromSlice(1, 3, wantRow)) {
			t.Fatalf("row %d of the scatter is %v, want %v", r, sc.Row(r), wantRow)
		}
	}
	want := forward(NewTape()).Value
	tp := NewInferenceTape()
	for pass := 0; pass < 3; pass++ {
		got := tp.Detach(forward(tp))
		tp.Release()
		if !bitEqual(want, got) {
			t.Fatalf("pass %d: value differs from the recording tape's", pass)
		}
	}
}

func TestInferenceTapeRejectsBackwardAndLateKeep(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	a := Param(tensor.FromSlice(1, 1, []float64{1}))
	tp := NewInferenceTape()
	mustPanic("Backward on an inference tape", func() { tp.Backward(tp.Mean(tp.Add(a, a))) })
	tp.Release()

	// A value its Run wrote over or released, nobody having pinned it, is
	// gone by the time a Keep after the Run comes: that must fail loudly.
	chain := func(keep bool) *Node {
		tp.Plan()
		h := tp.Tanh(tp.Add(a, a))
		if keep {
			tp.Keep(h)
		}
		tp.Run(tp.Sigmoid(h), nil)
		return h
	}
	h := chain(false)
	mustPanic("Keep of a released value", func() { tp.Keep(h) })
	tp.Release()

	// Kept before its Run, a value is neither released nor written over by
	// the op that reads it last.
	if h := chain(true); h.Value == nil || h.Value.Data[0] != math.Tanh(2) {
		t.Fatalf("a value kept before its Run was released or written over: %v", h.Value)
	}
	tp.Release()
}

// Pin of a view, pinned before the Run that computes it, pins its parts where
// they are: it meters no float on an inference tape, and the parts survive
// their last readers until Release, for code that reads them after the Run,
// whichever readers a pass has — a relation with edges on one pass and none
// on the next.
func TestPinViewKeepsPartsWithoutCopy(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	rng := rand.New(rand.NewSource(11))
	xm, hm := tensor.NewRandom(rng, 5, 3, 1), tensor.NewRandom(rng, 5, 4, 1)
	self, rel := Param(tensor.NewRandom(rng, 7, 2, 1)), Param(tensor.NewRandom(rng, 7, 2, 1))
	adj := tensor.NewCSR(5, 5, [][]tensor.CSREntry{{{Col: 4, Val: 0.5}}, {{Col: 0, Val: 2}}, {{Col: 1, Val: -1}}, nil, {{Col: 2, Val: 1}}})
	forward := func(tp *Tape, edges bool) (out, x, h *Node, pinned int64) {
		tp.Plan()
		x, h = tp.OwnedConstant(xm.Clone()), tp.Tanh(tp.OwnedConstant(hm.Clone()))
		v := tp.ConcatCols(x, h)
		tensor.ResetMeter()
		tp.Pin(v)
		pinned = tensor.TotalFloats()
		out = tp.GatherRows(tp.MatMul(v, self), []int{0, 1, 2}) // the product on those rows
		if edges {
			out = tp.Add(out, tp.SpMM(adj.Head(3, 5), tp.MatMul(v, rel)))
		}
		return tp.Run(out, nil), x, h, pinned
	}
	tp := NewInferenceTape()
	for pass, edges := range []bool{false, false, true, false, true, true, false} {
		want, _, wantH, _ := forward(NewTape(), edges)
		out, x, h, pinned := forward(tp, edges)
		if pinned != 0 {
			t.Fatalf("pass %d: Pin of a view metered %d floats", pass, pinned)
		}
		if !bitEqual(want.Value, out.Value) {
			t.Fatalf("pass %d (edges %v): value differs from the recording tape's", pass, edges)
		}
		if !holds(x) || !bitEqual(xm, x.Value) || !holds(h) || !heldEqual(h, wantH.Value) {
			t.Fatalf("pass %d (edges %v): a pinned part was released or written over", pass, edges)
		}
		tp.Release()
	}
}
