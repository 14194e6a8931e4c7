package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

func withPooling(t *testing.T) {
	t.Helper()
	was := tensor.PoolingEnabled()
	tensor.EnablePooling(true)
	t.Cleanup(func() { tensor.EnablePooling(was) })
}

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

		// In place on an inference tape, over a sum with −0 rows where x has
		// all-zero ones (0 + −0 must still come out +0) and in the others.
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
			sum := tp.OwnedConstant(sm.Clone())
			buf := sum.Value.Data
			out := tp.MatMulAcc(tp.MatMulAcc(sum, x, w), x, w2)
			if inPlace := &out.Value.Data[0] == &buf[0]; inPlace != (pass > 0) {
				t.Fatalf("trial %d pass %d: sum's buffer written in place: %v", trial, pass, inPlace)
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

// An inference tape computes the recording tape's values, learns last uses on
// the first pass and from the second releases on that schedule, or writes in
// place, so it meters fewer floats — kept and output values excepted, and
// never over a kept value, a leaf, or an SpMM's input — and records no
// backward state.
func TestInferenceTapeReleasesAtLastUse(t *testing.T) {
	withPooling(t)
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	rng := rand.New(rand.NewSource(4))
	w := Param(tensor.NewRandom(rng, 7, 4, 1))
	xm, hm, lm := tensor.NewRandom(rng, 5, 3, 1), tensor.NewRandom(rng, 5, 4, 1), tensor.NewRandom(rng, 5, 4, 1)
	leaf := Constant(lm.Clone())
	want, wantKept := gruLike(NewTape(), Constant(xm), Constant(hm), w, leaf)

	tp := NewInferenceTape()
	var floats [3]int64
	for pass := 0; pass < 3; pass++ {
		tensor.ResetMeter()
		x, h := tp.OwnedConstant(xm.Clone()), tp.OwnedConstant(hm.Clone())
		out, kept := gruLike(tp, x, h, w, leaf)
		floats[pass] = tensor.TotalFloats()
		if !bitEqual(want.Value, out.Value) {
			t.Fatalf("pass %d: inference value differs from the recording tape's", pass)
		}
		if !bitEqual(wantKept.Value, kept.Value) || !bitEqual(lm, leaf.Value) {
			t.Fatalf("pass %d: kept value or leaf written over", pass)
		}
		live := 0
		for _, n := range tp.nodes {
			if n.requiresGrad || n.op != opNone || len(n.parents) != 0 {
				t.Fatalf("pass %d: inference tape recorded backward state", pass)
			}
			if n.Value != nil {
				live++
			}
		}
		switch {
		case pass == 0 && live != tp.Len():
			t.Fatalf("first pass released %d values without a plan", tp.Len()-live)
		case pass > 0 && live != 2:
			t.Fatalf("pass %d: %d values live at the end, want the output and the kept one", pass, live)
		}
		if kept.Value == nil || x.Value != nil && pass > 0 {
			t.Fatalf("pass %d: kept value released or owned input not released", pass)
		}
		got := tp.Detach(out)
		tp.Release()
		if !bitEqual(want.Value, got) {
			t.Fatalf("pass %d: detached output did not survive Release", pass)
		}
	}
	if floats[1] >= floats[0] || floats[2] != floats[1] {
		t.Fatalf("metered floats per pass %v: want fewer from the second pass on, as many each time", floats)
	}
}

// An inference tape computes a recording tape's values over random programs
// of every forward op — concatenations read by parts and through their copy,
// nested, their heads, their parts read elsewhere and written over after the
// views' last read — pass after pass, departing passes and passes after them
// included, while from the second pass on it releases values at their last
// read and writes row-local results in place.
func TestInferenceTapeProgramsMatchRecordingTape(t *testing.T) {
	withPooling(t)
	released := 0
	for seed := int64(1); seed <= 300; seed++ {
		tp := NewInferenceTape()
		depart := variant{depart: 1 + int(seed%13)}
		for pass, d := range []variant{{}, {}, {}, depart, depart, {}} {
			poisonPool()
			want := inPlaceProgram(seed, NewTape(), d)
			poisonPool()
			got := inPlaceProgram(seed, tp, d)
			if len(got.vals) != len(want.vals) {
				t.Fatalf("seed %d pass %d: %d values, recording tape %d", seed, pass, len(got.vals), len(want.vals))
			}
			for i, v := range want.vals {
				if !bitEqual(v, got.vals[i]) {
					t.Fatalf("seed %d pass %d: value %d is %v, recording tape %v", seed, pass, i, got.vals[i], v)
				}
			}
			if k := got.kept; k != nil && (k.Value == nil || !bitEqual(k.Value, want.kept.Value)) {
				t.Fatalf("seed %d pass %d: kept node %d released or written over", seed, pass, k.seq)
			}
			for _, n := range tp.nodes {
				if n.Value == nil {
					if pass == 0 {
						t.Fatalf("seed %d: node %d released without a plan", seed, n.seq)
					}
					released++
				}
			}
			want.p.tp.Release()
			tp.Release()
		}
	}
	if released == 0 {
		t.Fatal("no value released early: the programs do not exercise the plan")
	}
	t.Logf("%d values released or written over before Release", released)
}

// ScatterRows owns its output: on an inference tape base's buffer becomes the
// scatter's, base dying there, and src's goes back to the pool, which hands it
// to the next op of src's shape — a scatter that kept a view of src would read
// it back overwritten. Where base lives on, the scatter is a copy.
func TestScatterRowsSurvivesRecycledOperands(t *testing.T) {
	withPooling(t)
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

// Head owns its rows: at its parent's last read it takes the parent's buffer,
// so the pool cannot hand that buffer to the next op of the parent's shape
// while the head is read on. A view that left the buffer with the parent,
// released there, would read that op's output.
func TestHeadSurvivesRecycledParent(t *testing.T) {
	withPooling(t)
	rng := rand.New(rand.NewSource(9))
	xm := tensor.NewRandom(rng, 8, 4, 1)
	w := Param(tensor.NewRandom(rng, 4, 4, 1))
	taken := false
	forward := func(tp *Tape) *Node {
		x := tp.Tanh(tp.OwnedConstant(xm.Clone()))
		buf := x.Value.Data
		h := tp.Head(x, 3) // x's last reader
		taken = x.Value == nil && &h.Value.Data[0] == &buf[0]
		big := tp.Scale(tp.OwnedConstant(xm.Clone()), -2) // x's shape: the pool's next buffer
		return tp.Add(tp.MatMul(h, w), tp.Head(tp.MatMul(big, w), 3))
	}
	want := forward(NewTape()).Value
	tp := NewInferenceTape()
	for pass := 0; pass < 3; pass++ {
		got := tp.Detach(forward(tp))
		tp.Release()
		if !bitEqual(want, got) {
			t.Fatalf("pass %d: value differs from the recording tape's", pass)
		}
		if taken != (pass > 0) {
			t.Fatalf("pass %d: parent's buffer taken by its Head: %v", pass, taken)
		}
	}
}

// When a pass departs from the learned op sequence the tape stops releasing
// early, and writing in place, for the rest of that pass and relearns; values
// stay right throughout, whether ops were inserted, dropped, or the same ops
// read different nodes, and an op that meets the plan's at its index after a
// departure does not write in place. A pass that departs only after an op
// wrote over a value, and then reads that value, fails on its nil Value, as it
// does on a value released early.
func TestInferenceTapeRelearnsOnSequenceChange(t *testing.T) {
	withPooling(t)
	rng := rand.New(rand.NewSource(6))
	w := Param(tensor.NewRandom(rng, 3, 3, 1))
	xm := tensor.NewRandom(rng, 4, 3, 1)
	forward := func(tp *Tape, variant int) *Node {
		x := tp.OwnedConstant(xm.Clone())
		h := tp.Tanh(tp.MatMul(x, w))
		if variant == 4 { // another op kind, then the plan's OneMinus(g) at its index, then g again
			g := tp.Tanh(h)
			return tp.Mul(tp.OneMinus(g), tp.Add(g, h))
		}
		g := tp.Sigmoid(h)
		switch variant {
		case 1: // an inserted op reading a value the plan would release next
			h = tp.Add(h, tp.MatMul(h, w))
		case 2: // the same op kinds, wired to other nodes
			h, g = g, h
		case 3: // the plan's ops, then a read of g, which OneMinus wrote over
			return tp.Mul(tp.OneMinus(g), tp.Add(g, h))
		}
		return tp.Mul(tp.OneMinus(g), h)
	}
	tp := NewInferenceTape()
	for pass, variant := range []int{0, 0, 1, 1, 2, 2, 0, 4, 4, 0} {
		want := forward(NewTape(), variant).Value
		got := forward(tp, variant).Value
		if !bitEqual(want, got) {
			t.Fatalf("pass %d (variant %d): value differs after a sequence change", pass, variant)
		}
		tp.Release()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a read of a value written over in place did not fail")
		}
	}()
	forward(tp, 3)
}

func TestInferenceTapeRejectsBackwardAndLateKeep(t *testing.T) {
	withPooling(t)
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

	// A value kept on one pass but not on the one the plan was learned from
	// has been released by the time Keep runs: that must fail loudly.
	chain := func(keep bool) {
		h := tp.Tanh(tp.Add(a, a))
		tp.Sigmoid(h)
		if keep {
			tp.Keep(h)
		}
	}
	chain(false)
	tp.Release()
	mustPanic("Keep of a released value", func() { chain(true) })
	tp.Release()

	// Kept before the op the plan says reads it last, on a pass after one
	// that did not keep it, a value is neither released nor written over.
	early := func(keep bool) *Node {
		h := tp.Tanh(tp.Add(a, a))
		if keep {
			tp.Keep(h)
		}
		tp.Sigmoid(h)
		return h
	}
	early(false)
	tp.Release()
	if h := early(true); h.Value == nil || h.Value.Data[0] != math.Tanh(2) {
		t.Fatalf("a value kept on this pass alone was released or written over: %v", h.Value)
	}
	tp.Release()
}
