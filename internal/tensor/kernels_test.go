package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refMatMul and refSpMM are the accumulate-into-a-zeroed-output kernels the
// write-once ones replaced, kept here as the reference the new kernels must
// match bit for bit.
func refMatMul(a, b *Matrix) *Matrix {
	out := &Matrix{Rows: a.Rows, Cols: b.Cols, Data: make([]float64, a.Rows*b.Cols)}
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refSpMM(c *CSR, x *Matrix) *Matrix {
	out := &Matrix{Rows: c.NRows, Cols: x.Cols, Data: make([]float64, c.NRows*x.Cols)}
	for r := 0; r < c.NRows; r++ {
		orow := out.Row(r)
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			for j, xv := range x.Row(c.ColIdx[p]) {
				orow[j] += c.Val[p] * xv
			}
		}
	}
	return out
}

func sameBits(a, b *Matrix) bool {
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

// signedZeros plants exact zeros, negative zeros and sign-cancelling values:
// the inputs on which "first product overwrites" and "add to zero" differ.
func signedZeros(rng *rand.Rand, m *Matrix) {
	negZero := math.Copysign(0, -1)
	for i := range m.Data {
		switch rng.Intn(6) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = negZero
		case 2:
			m.Data[i] = -m.Data[i]
		}
	}
}

// dirtyPool fills the pool's buffers of the sizes a test is about to draw
// with a poison value, so a kernel that relies on a zeroed output shows.
func dirtyPool(sizes ...int) {
	for _, n := range sizes {
		for k := 0; k < 4; k++ {
			m := newUninit(1, n)
			m.Fill(math.NaN())
			defer Recycle(m)
		}
	}
}

// The write-once kernels equal the old accumulate-into-zeros kernels bit for
// bit — signed zeros, all-zero input rows, empty CSR rows, every column count
// around the 4-wide tile, poisoned pool buffers.
func TestWriteOnceKernelsMatchReference(t *testing.T) {
	EnablePooling(true)
	defer EnablePooling(false)
	rng := rand.New(rand.NewSource(9))
	for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 16, 19} {
		n := 192 + rng.Intn(7)
		a := NewRandom(rng, n, 11, 1)
		b := NewRandom(rng, 11, cols, 1)
		signedZeros(rng, a)
		signedZeros(rng, b)
		for c := range a.Row(n / 2) {
			a.Row(n / 2)[c] = 0
		}
		sum := NewRandom(rng, n, cols, 1)
		signedZeros(rng, sum)
		dirtyPool(n * cols)
		want := refMatMul(a, b)
		if got := MatMul(a, b); !sameBits(want, got) {
			t.Fatalf("cols=%d: MatMul differs from the reference kernel", cols)
		}
		dirtyPool(n * cols)
		if got := MatMulAccTo(nil, sum, a, b); !sameBits(Add(sum, want), got) {
			t.Fatalf("cols=%d: MatMulAcc differs from Add(sum, MatMul)", cols)
		}

		csr := emptyEveryFifthRow(randomCSR(rng, n, n, 0.03))
		x := NewRandom(rng, n, cols, 1)
		signedZeros(rng, x)
		for i := range csr.Val {
			if rng.Intn(5) == 0 {
				csr.Val[i] = math.Copysign(0, -1)
			}
		}
		dirtyPool(n * cols)
		if got := SpMM(csr, x); !sameBits(refSpMM(csr, x), got) {
			t.Fatalf("cols=%d: SpMM differs from the reference kernel", cols)
		}
	}
}

// The naive references of the dense kernels' contract: every output element
// its own sum over ascending k from +0, nothing skipped, sum added last.
func naiveMatMulAcc(sum, a, b *Matrix) *Matrix {
	out := &Matrix{Rows: a.Rows, Cols: b.Cols, Data: make([]float64, a.Rows*b.Cols)}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			if sum != nil {
				s = sum.At(i, j) + s
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulTransB(a, b *Matrix) *Matrix {
	out := &Matrix{Rows: a.Rows, Cols: b.Rows, Data: make([]float64, a.Rows*b.Rows)}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulTransA(a, b *Matrix) *Matrix {
	out := &Matrix{Rows: a.Cols, Cols: b.Cols, Data: make([]float64, a.Cols*b.Cols)}
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// zeroPattern plants the row shapes the kernels branch on into a: all-zero
// rows first and last, in adjacent pairs, rows zero only in a prefix, a row
// of negative zeros. Which ones depends on pattern.
func zeroPattern(a *Matrix, pattern int) {
	fill := func(r, upto int, v float64) {
		if r >= 0 && r < a.Rows {
			row := a.Row(r)
			for c := 0; c < upto && c < len(row); c++ {
				row[c] = v
			}
		}
	}
	switch pattern {
	case 1: // first and last
		fill(0, a.Cols, 0)
		fill(a.Rows-1, a.Cols, 0)
	case 2: // adjacent pairs, at both parities, and every row of a 4-block
		for r := 1; r < a.Rows; r += 5 {
			fill(r, a.Cols, 0)
			fill(r+1, a.Cols, 0)
		}
		for r := 8; r < 12; r++ {
			fill(r, a.Cols, 0)
		}
	case 3: // zero prefixes of every length, one row of -0
		for r := 0; r < a.Rows; r++ {
			fill(r, r%(a.Cols+1), 0)
		}
		fill(a.Rows/2, a.Cols, math.Copysign(0, -1))
	}
}

// The four dense kernels, and MatMulTransB's add form, are bit-identical, for
// finite operands, to the naive triple loops above — over row counts 0, 1, 2, odd, even and tall, column
// counts on every side of the 8- and 4-wide blocks, inner lengths that
// leave MatMulTransA a k-tail, zero rows in every arrangement, signed zeros
// in a, b and sum, and poisoned pool buffers.
func TestDenseKernelsBitIdenticalToNaiveForFiniteOperands(t *testing.T) {
	EnablePooling(true)
	defer EnablePooling(false)
	rng := rand.New(rand.NewSource(15))
	rowCounts := []int{0, 1, 2, 3, 4, 5, 7, 10, 131, 200}
	colCounts := []int{0, 1, 3, 4, 5, 7, 8, 9, 12, 13, 16, 19}
	innerCounts := []int{23, 1, 6, 0, 133}
	for shift := 1; shift <= 3; shift++ { // three passes, each shape meeting other zero patterns
		for mi, m := range rowCounts {
			for ni, n := range colCounts {
				k := innerCounts[(mi+ni)%len(innerCounts)]
				pattern := (mi + 2*ni + shift) % 4
				a := NewRandom(rng, m, k, 1)
				signedZeros(rng, a)
				zeroPattern(a, pattern)
				b := NewRandom(rng, k, n, 1)
				bt := NewRandom(rng, n, k, 1)
				g := NewRandom(rng, m, n, 1)
				sum := NewRandom(rng, m, n, 1)
				for _, x := range []*Matrix{b, bt, g, sum} {
					signedZeros(rng, x)
				}
				check := func(kernel string, want, got *Matrix) {
					t.Helper()
					if !sameBits(want, got) {
						t.Fatalf("[%dx%d]x[%dx%d] pattern %d: %s differs from the naive loop", m, k, k, n, pattern, kernel)
					}
				}
				dirtyPool(m*n, k*n)
				check("MatMul", naiveMatMulAcc(nil, a, b), MatMul(a, b))
				dirtyPool(m * n)
				check("MatMulAcc", naiveMatMulAcc(sum, a, b), MatMulAccTo(nil, sum, a, b))
				dirtyPool(m * n)
				check("MatMulTransB", naiveMatMulTransB(a, bt), MatMulTransB(a, bt))
				acc := sum.Clone()
				MatMulTransBAddTo(acc, a, bt)
				check("MatMulTransBAddTo", Add(sum, naiveMatMulTransB(a, bt)), acc)
				dirtyPool(k * n)
				check("MatMulTransA", naiveMatMulTransA(a, g), MatMulTransA(a, g))
			}
		}
	}
}

// MatMulTransA skips a k-row of b that is all ±0 and takes the rest four at a
// time: bit-identical, for finite operands, to the naive loop that adds every
// k in turn — over random shares of zero rows of b (none to all, +0 and −0,
// runs of them across and inside the four-row groups), signed zeros in a and
// in b's other rows, and inner lengths that leave a tail after the skips.
func TestMatMulTransASkipsZeroRowsOfB(t *testing.T) {
	EnablePooling(true)
	defer EnablePooling(false)
	rng := rand.New(rand.NewSource(39))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 400; trial++ {
		k, m, n := rng.Intn(40), 1+rng.Intn(24), 1+rng.Intn(20)
		a, b := NewRandom(rng, k, m, 1), NewRandom(rng, k, n, 1)
		signedZeros(rng, a)
		signedZeros(rng, b)
		share := rng.Float64()
		for r := 0; r < k; r++ {
			if rng.Float64() < share {
				row := b.Row(r)
				for j := range row {
					row[j] = []float64{0, negZero}[rng.Intn(2)]
				}
			}
		}
		dirtyPool(m * n)
		if got, want := MatMulTransA(a, b), naiveMatMulTransA(a, b); !sameBits(want, got) {
			t.Fatalf("trial %d: (%dx%d)ᵀ·%dx%d with %.0f %% zero rows of b differs from the naive loop", trial, k, m, k, n, 100*share)
		}
	}
}

// The kernels over a concatenation read where its parts are — rows assembled
// for the products, column windows for SpMM, row blocks of MatMulTransA's
// output, SpMMTrans over a column window — and equal the same kernels over
// its copy bit for bit: parts of every width around the blocks, one part and
// several, parts longer than the concatenation's rows (a head), zero rows and
// signed zeros, a sum that is a part of x, poisoned pool buffers.
func TestConcatKernelsMatchDenseCopy(t *testing.T) {
	EnablePooling(true)
	defer EnablePooling(false)
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 60; trial++ {
		rows := []int{0, 1, 3, 4, 9, 17}[trial%6]
		var parts []*Matrix
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p := NewRandom(rng, rows+rng.Intn(3), []int{1, 3, 4, 7, 8, 9, 16}[rng.Intn(7)], 1)
			signedZeros(rng, p)
			zeroPattern(p, rng.Intn(4))
			parts = append(parts, p)
		}
		x := Concat{Rows: rows, Parts: parts}
		d := x.Dense()
		k, n := x.Cols(), 1+rng.Intn(19)
		w, g := NewRandom(rng, k, n, 1), NewRandom(rng, rows, n, 1)
		sum := NewRandom(rng, rows, n, 1)
		signedZeros(rng, g)
		check := func(kernel string, want, got *Matrix) {
			t.Helper()
			if !sameBits(want, got) {
				t.Fatalf("trial %d (%d rows, %d parts): %s differs from the kernel over the copy", trial, rows, len(parts), kernel)
			}
		}
		dirtyPool(rows*n, k*n)
		check("MatMul", MatMul(d, w), MatMulConcat(x, w))
		check("MatMulAcc", MatMulAccTo(nil, sum, d, w), MatMulAccConcatTo(nil, sum, x, w))
		check("MatMulTransA", MatMulTransA(d, g), MatMulTransAConcat(x, g))
		c := NewCSR(rows+1, rows, nil)
		if rows > 0 {
			c = emptyEveryFifthRow(randomCSR(rng, rows+1, rows, 0.4))
		}
		check("SpMM", SpMM(c, d), SpMMConcat(c, x))
		gc := NewRandom(rng, c.NRows, k, 1)
		whole := SpMMTrans(c, gc)
		for from := 0; from < k; from += 3 {
			to := min(from+3, k)
			check("SpMMTransCols", SliceCols(whole, from, to), SpMMTransCols(c, gc, from, to))
		}
		if p := parts[0]; p.Rows == rows && len(parts) > 1 {
			// In place over a part of x: each row of x is assembled before
			// the row of the sum is written.
			wp := NewRandom(rng, k, p.Cols, 1)
			want := MatMulAccTo(nil, p, d, wp)
			check("MatMulAcc into a part", want, MatMulAccConcatTo(p, p, x, wp))
		}
	}
}

// What the kernels do with 0·Inf is a decision, pinned here, not a promise:
// a zero operand that is part of a skipped group (a whole zero row of a; in
// MatMulTransA four zero entries of one column in an aligned 4-row block)
// contributes nothing, any other zero operand is multiplied, and 0·Inf is NaN.
// The kernels before these skipped every zero entry of a on its own. Finite
// weights, which is all the optimizer's clipping lets through, never get here.
func TestDenseKernelsZeroTimesInf(t *testing.T) {
	inf, isNaN := math.Inf(1), math.IsNaN

	a := FromSlice(2, 2, []float64{0, 1, 0, 0})
	b := FromSlice(2, 1, []float64{inf, 2})
	if got := MatMul(a, b); !isNaN(got.At(0, 0)) || got.At(1, 0) != 0 {
		t.Fatalf("MatMul: got %v, want [NaN; 0]", got.Data)
	}
	if got := MatMulAccTo(nil, FromSlice(2, 1, []float64{1, 1}), a, b); !isNaN(got.At(0, 0)) || got.At(1, 0) != 1 {
		t.Fatalf("MatMulAcc: got %v, want [NaN; 1]", got.Data)
	}
	if got := MatMulTransB(a, FromSlice(1, 2, []float64{inf, 2})); !isNaN(got.At(0, 0)) || got.At(1, 0) != 0 {
		t.Fatalf("MatMulTransB: got %v, want [NaN; 0]", got.Data)
	}
	// Column 0 of x is zero in all of rows 0..3, a skipped group; column 1 has
	// a nonzero among them, so its zero at row 1 meets the Inf. With the Inf
	// moved to row 4, the k-tail, every zero of that row meets it.
	x := FromSlice(5, 3, []float64{
		0, 1, 0,
		0, 0, 0,
		0, 0, 0,
		0, 0, 0,
		0, 0, 1,
	})
	g := FromSlice(5, 1, []float64{1, inf, 1, 1, 1})
	if got := MatMulTransA(x, g); got.At(0, 0) != 0 || !isNaN(got.At(1, 0)) || got.At(2, 0) != 1 {
		t.Fatalf("MatMulTransA: got %v, want [0; NaN; 1]", got.Data)
	}
	g.Data[1], g.Data[4] = 1, inf
	if got := MatMulTransA(x, g); !isNaN(got.At(0, 0)) || !isNaN(got.At(1, 0)) || got.At(2, 0) != inf {
		t.Fatalf("MatMulTransA k-tail: got %v, want [NaN; NaN; +Inf]", got.Data)
	}
	// A zero row of g — a row the loss does not reach — is skipped whole, so
	// the Inf in x's row 1 meets no term: column 1 sums rows 0 and 4 alone.
	x.Set(1, 1, inf)
	g.Data[1], g.Data[4] = 0, 1
	if got := MatMulTransA(x, g); got.At(0, 0) != 0 || got.At(1, 0) != 1 || got.At(2, 0) != 1 {
		t.Fatalf("MatMulTransA over a zero row of g: got %v, want [0; 1; 1]", got.Data)
	}
}

// emptyEveryFifthRow returns c with rows 0, 5, 10, ... emptied.
func emptyEveryFifthRow(c *CSR) *CSR {
	entries := make([][]CSREntry, c.NRows)
	for r := 0; r < c.NRows; r++ {
		if r%5 == 0 {
			continue
		}
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			entries[r] = append(entries[r], CSREntry{Col: c.ColIdx[p], Val: c.Val[p]})
		}
	}
	return NewCSR(c.NRows, c.NCols, entries)
}

func TestMatMulAccShapeChecks(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("shape mismatch accepted")
			}
		}()
		f()
	}
	mustPanic(func() { MatMulAccTo(nil, New(2, 3), New(2, 4), New(5, 3)) })
	mustPanic(func() { MatMulAccTo(nil, New(2, 2), New(2, 4), New(4, 3)) })
	mustPanic(func() { MatMulTransBAddTo(New(2, 2), New(2, 4), New(3, 4)) })
	mustPanic(func() { MatMulTransBAddTo(New(2, 3), New(2, 4), New(3, 5)) })
}

// The pool counts its own traffic: a miss is a get plus fresh bytes of the
// whole size class, a hit is a get and a hit and no fresh bytes.
func TestPoolStats(t *testing.T) {
	EnablePooling(true)
	defer EnablePooling(false)
	const n = 1000 // class 10: 1024 floats
	// Drain recycled buffers of this class left by other tests.
	for {
		before := ReadPoolStats()
		New(1, n)
		if ReadPoolStats().Hits == before.Hits {
			break
		}
	}
	s0 := ReadPoolStats()
	m := New(1, n)
	s1 := ReadPoolStats()
	if s1.Gets != s0.Gets+1 || s1.Hits != s0.Hits || s1.FreshBytes != s0.FreshBytes+1024*8 {
		t.Fatalf("miss counted as %+v -> %+v", s0, s1)
	}
	Recycle(m)
	New(1, n)
	s2 := ReadPoolStats()
	if s2.Gets != s1.Gets+1 || s2.Hits != s1.Hits+1 || s2.FreshBytes != s1.FreshBytes {
		t.Fatalf("hit counted as %+v -> %+v", s1, s2)
	}
}
