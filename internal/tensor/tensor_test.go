package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row view does not share storage: %v", row)
	}
	row[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatal("writing through Row view not visible")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRandom(rng, 4, 4, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(a, id).AllClose(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !MatMul(id, a).AllClose(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewRandom(rng, 3, 5, 1)
	b := NewRandom(rng, 5, 4, 1)
	// a·b via MatMulTransB(a, bᵀ)
	bt := Transpose(b)
	if !MatMulTransB(a, bt).AllClose(MatMul(a, b), 1e-12) {
		t.Fatal("MatMulTransB inconsistent with MatMul")
	}
	// aᵀ·b via MatMulTransA
	c := NewRandom(rng, 3, 4, 1)
	if !MatMulTransA(a, c).AllClose(MatMul(Transpose(a), c), 1e-12) {
		t.Fatal("MatMulTransA inconsistent with MatMul")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewRandom(rng, r, c, 3)
		return Transpose(Transpose(m)).Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if got := Add(a, b); !got.Equal(FromSlice(2, 2, []float64{6, 8, 10, 12})) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(FromSlice(2, 2, []float64{4, 4, 4, 4})) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b); !got.Equal(FromSlice(2, 2, []float64{5, 12, 21, 32})) {
		t.Fatalf("Mul = %v", got)
	}
	if got := ScaleTo(nil, a, 2); !got.Equal(FromSlice(2, 2, []float64{2, 4, 6, 8})) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := FromSlice(1, 3, []float64{10, 20, 30})
	got := AddRowVector(m, v)
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !got.Equal(want) {
		t.Fatalf("AddRowVector = %v", got)
	}
}

func TestGatherScatterRows(t *testing.T) {
	m := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	g := GatherRows(m, []int{2, 0})
	if !g.Equal(FromSlice(2, 2, []float64{5, 6, 1, 2})) {
		t.Fatalf("GatherRows = %v", g)
	}
	dst := New(3, 2)
	ScatterRows(dst, g, []int{2, 0})
	if !dst.Equal(FromSlice(3, 2, []float64{1, 2, 0, 0, 5, 6})) {
		t.Fatalf("ScatterRows = %v", dst)
	}
}

func TestConcatSliceCols(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 1, []float64{9, 10})
	cat := ConcatCols(a, b)
	if !cat.Equal(FromSlice(2, 3, []float64{1, 2, 9, 3, 4, 10})) {
		t.Fatalf("ConcatCols = %v", cat)
	}
	if !SliceCols(cat, 0, 2).Equal(a) || !SliceCols(cat, 2, 3).Equal(b) {
		t.Fatal("SliceCols does not invert ConcatCols")
	}
}

func TestSumMeanNorms(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, -2, 3, -4})
	if m.Sum() != -2 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.Mean() != -0.5 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

// ReLU maps every element that is not above 0 — a −0 and a NaN included — to
// +0, and OneMinus is 1−x; each computes the same into a fresh matrix and in
// place.
func TestReLUAndOneMinus(t *testing.T) {
	in := []float64{-2, math.Copysign(0, -1), 0, 2, math.NaN()}
	for _, c := range []struct {
		name string
		to   func(dst, m *Matrix) *Matrix
		want []float64
	}{
		{"ReLU", ReLUTo, []float64{0, 0, 0, 2, 0}},
		{"OneMinus", OneMinusTo, []float64{3, 1, 1, -1, math.NaN()}},
	} {
		m := FromSlice(1, len(in), append([]float64(nil), in...))
		got := c.to(nil, m)
		inPlace := c.to(m, m)
		for i, w := range c.want {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) && !(math.IsNaN(w) && math.IsNaN(got.Data[i])) {
				t.Fatalf("%s(%v) = %v, want %v", c.name, in[i], got.Data[i], w)
			}
			if math.Float64bits(inPlace.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("%s in place at %d: %v, allocating: %v", c.name, i, inPlace.Data[i], got.Data[i])
			}
		}
	}
}

func TestAddScaledInPlace(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 1})
	b := FromSlice(1, 2, []float64{2, 3})
	AddScaledInPlace(a, b, 0.5)
	if !a.Equal(FromSlice(1, 2, []float64{2, 2.5})) {
		t.Fatalf("AddScaledInPlace = %v", a)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Add(New(1, 2), New(2, 1))
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a := NewRandom(rng, n, n, 1)
		b := NewRandom(rng, n, n, 1)
		c := NewRandom(rng, n, n, 1)
		return MatMul(MatMul(a, b), c).AllClose(MatMul(a, MatMul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGlorotScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Glorot(rng, 10, 20)
	bound := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("Glorot value %v out of bound %v", v, bound)
		}
	}
}

func TestMeter(t *testing.T) {
	EnableMeter(true)
	defer EnableMeter(false)
	ResetMeter()
	New(10, 10)
	New(3, 3)
	if TotalFloats() != 109 {
		t.Fatalf("TotalFloats = %d, want 109", TotalFloats())
	}
	if PeakFloats() != 100 {
		t.Fatalf("PeakFloats = %d, want 100", PeakFloats())
	}
	if TotalBytes() != 109*8 {
		t.Fatalf("TotalBytes = %d", TotalBytes())
	}
	ResetMeter()
	if TotalFloats() != 0 || PeakFloats() != 0 {
		t.Fatal("ResetMeter did not clear counters")
	}
}
