package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCSR(rng *rand.Rand, nrows, ncols int, density float64) *CSR {
	entries := make([][]CSREntry, nrows)
	for r := 0; r < nrows; r++ {
		for c := 0; c < ncols; c++ {
			if rng.Float64() < density {
				entries[r] = append(entries[r], CSREntry{Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSR(nrows, ncols, entries)
}

func TestCSRDenseRoundTrip(t *testing.T) {
	entries := [][]CSREntry{
		{{Col: 1, Val: 2}, {Col: 2, Val: 3}},
		{},
		{{Col: 0, Val: -1}},
	}
	c := NewCSR(3, 3, entries)
	if c.NNZ() != 3 {
		t.Fatalf("NNZ = %d", c.NNZ())
	}
	if c.RowNNZ(0) != 2 || c.RowNNZ(1) != 0 || c.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ wrong")
	}
	want := FromSlice(3, 3, []float64{0, 2, 3, 0, 0, 0, -1, 0, 0})
	if !c.Dense().Equal(want) {
		t.Fatalf("Dense = %v", c.Dense())
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, k := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(4)
		c := randomCSR(rng, n, m, 0.4)
		x := NewRandom(rng, m, k, 2)
		return SpMM(c, x).AllClose(MatMul(c.Dense(), x), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMTransMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, k := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(4)
		c := randomCSR(rng, n, m, 0.4)
		x := NewRandom(rng, n, k, 2)
		return SpMMTransCols(c, x, 0, x.Cols).AllClose(MatMul(Transpose(c.Dense()), x), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRDuplicateColumnsSum(t *testing.T) {
	c := NewCSR(1, 2, [][]CSREntry{{{Col: 0, Val: 1}, {Col: 0, Val: 2}}})
	x := FromSlice(2, 1, []float64{10, 0})
	got := SpMM(c, x)
	if got.At(0, 0) != 30 {
		t.Fatalf("duplicate columns should sum: got %v", got.At(0, 0))
	}
}

func TestCSRColumnOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range column")
		}
	}()
	NewCSR(1, 1, [][]CSREntry{{{Col: 5, Val: 1}}})
}

// Head is a view, not a copy: it shares the three arrays, any leading block
// whose rows stay inside its columns multiplies as those rows of the whole
// do, and only a shape the matrix does not have is refused.
func TestCSRHead(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Lower-triangular plus one band: row r names columns <= r+1, so the
	// rows×(rows+1) heads are the closed ones.
	entries := make([][]CSREntry, 7)
	for r := range entries {
		for c := 0; c <= r+1 && c < 7; c++ {
			if rng.Float64() < 0.6 {
				entries[r] = append(entries[r], CSREntry{Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	c := NewCSR(7, 7, entries)
	if c.Head(7, 7) != c {
		t.Fatal("the whole matrix should be the matrix itself")
	}
	x := NewRandom(rng, 7, 3, 1)
	whole := SpMM(c, x)
	for rows := 0; rows < 7; rows++ {
		h := c.Head(rows, rows+1)
		if h.NRows != rows || h.NCols != rows+1 || h.NNZ() != c.RowPtr[rows] {
			t.Fatalf("Head(%d, %d) is %dx%d with %d entries", rows, rows+1, h.NRows, h.NCols, h.NNZ())
		}
		if h.NNZ() > 0 && (&h.ColIdx[0] != &c.ColIdx[0] || &h.Val[0] != &c.Val[0]) || &h.RowPtr[0] != &c.RowPtr[0] {
			t.Fatalf("Head(%d, %d) copied an array", rows, rows+1)
		}
		got := SpMM(h, FromSlice(rows+1, 3, x.Data[:(rows+1)*3]))
		for i, v := range got.Data {
			if v != whole.Data[i] {
				t.Fatalf("Head(%d, %d)·x differs from the whole product at %d", rows, rows+1, i)
			}
		}
	}
	// Zero rows, zero columns and a wider-than-needed block are all heads.
	for _, shape := range [][2]int{{0, 0}, {0, 7}, {3, 7}, {7, 7}} {
		c.Head(shape[0], shape[1])
	}
	for _, shape := range [][2]int{{8, 7}, {7, 8}, {-1, 3}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Head(%d, %d) of a 7x7 matrix accepted", shape[0], shape[1])
				}
			}()
			c.Head(shape[0], shape[1])
		}()
	}
}

// TestCSRPick checks a CSR of listed rows: SpMM over it is those rows of SpMM
// over the whole bit for bit, and SpMMTransCols over it equals the whole's
// SpMMTransCols when every other row of the gradient is ±0 — the sums start
// at +0, so a ±0 term changes no bit.
func TestCSRPick(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 60; trial++ {
		n, m, k := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(4)
		c := randomCSR(rng, n, m, 0.4)
		var rows []int
		for r := 0; r < n; r++ {
			if rng.Intn(2) == 0 {
				rows = append(rows, r)
			}
		}
		p := c.Pick(rows)
		if p.NRows != len(rows) || p.NCols != m {
			t.Fatalf("Pick(%v) of a %dx%d CSR is %dx%d", rows, n, m, p.NRows, p.NCols)
		}
		x := NewRandom(rng, m, k, 2)
		signedZeros(rng, x)
		whole, got := SpMM(c, x), SpMM(p, x)
		for i, r := range rows {
			for j, v := range got.Row(i) {
				if math.Float64bits(v) != math.Float64bits(whole.At(r, j)) {
					t.Fatalf("trial %d: Pick(%v)·x row %d col %d = %v, the whole product's row %d = %v", trial, rows, i, j, v, r, whole.At(r, j))
				}
			}
		}
		g := NewRandom(rng, len(rows), k, 2)
		signedZeros(rng, g)
		full := New(n, k)
		for i := range full.Data {
			if rng.Intn(2) == 0 {
				full.Data[i] = negZero
			}
		}
		for i, r := range rows {
			copy(full.Row(r), g.Row(i))
		}
		if want, got := SpMMTransCols(c, full, 0, k), SpMMTransCols(p, g, 0, k); !sameBits(got, want) {
			t.Fatalf("trial %d: Pick(%v)ᵀ·g = %v, the whole's ᵀ·g = %v", trial, rows, got, want)
		}
	}
}
