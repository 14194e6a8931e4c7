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
// around the 4-wide tile, poisoned pool buffers, serial and parallel.
func TestWriteOnceKernelsMatchReference(t *testing.T) {
	EnablePooling(true)
	defer EnablePooling(false)
	defer SetParallelism(1)
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 16, 19} {
			n := 3*parThreshold + rng.Intn(7) // tall enough for the parallel path
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
				t.Fatalf("workers=%d cols=%d: MatMul differs from the reference kernel", workers, cols)
			}
			dirtyPool(n * cols)
			if got := MatMulAcc(sum, a, b); !sameBits(Add(sum, want), got) {
				t.Fatalf("workers=%d cols=%d: MatMulAcc differs from Add(sum, MatMul)", workers, cols)
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
				t.Fatalf("workers=%d cols=%d: SpMM differs from the reference kernel", workers, cols)
			}
		}
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
	mustPanic(func() { MatMulAcc(New(2, 3), New(2, 4), New(5, 3)) })
	mustPanic(func() { MatMulAcc(New(2, 2), New(2, 4), New(4, 3)) })
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
