// Package tensor provides dense row-major float64 matrices and the small set
// of linear-algebra primitives the rest of the library is built on.
//
// The package also maintains a process-wide allocation meter (see meter.go):
// the float64 values allocated since the last ResetMeter, which the benchmark
// harness reads per step to report a training strategy's allocation volume
// in a machine-independent way (peak_step_mb is the largest step's).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Matrices returned by New are backed
// by a single contiguous slice; Row returns views sharing that storage.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// Holds reports whether a rows×cols matrix holds exactly n values: both
// dimensions non-negative and their product n, with no overflow to wrap a
// shape read from outside the process onto n.
func Holds(rows, cols, n int) bool {
	if rows < 0 || cols <= 0 {
		return rows >= 0 && cols == 0 && n == 0
	}
	return n%cols == 0 && n/cols == rows
}

// New returns a zeroed rows×cols matrix. The backing buffer may be drawn from
// the recycle pool (see pool.go); the allocation meter records the logical
// allocation either way.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	recordAlloc(rows * cols)
	return &Matrix{Rows: rows, Cols: cols, Data: grab(rows*cols, true)}
}

// newUninit returns a rows×cols matrix whose contents are arbitrary when the
// backing buffer comes from the recycle pool. Internal ops that write every
// output element before any read use it to skip New's zeroing pass: the
// elementwise ops, and the row-accumulating kernels (MatMul,
// MatMulAcc, SpMM), which initialize every output row themselves.
// Scatter-accumulating ops (MatMulTransAConcatInto, SpMMTransColsInto) are
// given a zeroed buffer, or zero it themselves.
func newUninit(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	recordAlloc(rows * cols)
	return &Matrix{Rows: rows, Cols: cols, Data: grab(rows*cols, false)}
}

// NewUninit is newUninit for callers outside the package, under the same
// rule: every element is written before any is read.
func NewUninit(rows, cols int) *Matrix { return newUninit(rows, cols) }

// FromSlice wraps data (row-major) in a rows×cols matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// NewRandom returns a rows×cols matrix with entries drawn uniformly from
// [-scale, scale] using rng. Glorot-style initialization passes
// scale = sqrt(6/(fanIn+fanOut)).
func NewRandom(rng *rand.Rand, rows, cols int, scale float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// Glorot returns a rows×cols matrix with Glorot/Xavier uniform initialization.
func Glorot(rng *rand.Rand, rows, cols int) *Matrix {
	return NewRandom(rng, rows, cols, math.Sqrt(6.0/float64(rows+cols)))
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Row returns a view of row r sharing the matrix storage.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := newUninit(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equal reports whether m and o have identical shape and elements.
//
//streamlint:unreached-ok the bit-equality oracle of the tests of eight packages, which cannot share a _test.go file
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether m and o have identical shape and elementwise
// absolute differences no greater than tol.
//
//streamlint:unreached-ok the tolerance oracle of the tests of tensor, autodiff, graph and dgnn
func (m *Matrix) AllClose(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		s += " ["
		for r := 0; r < m.Rows; r++ {
			if r > 0 {
				s += "; "
			}
			for c := 0; c < m.Cols; c++ {
				if c > 0 {
					s += " "
				}
				s += fmt.Sprintf("%.4g", m.At(r, c))
			}
		}
		s += "]"
	}
	return s
}

func shapeCheck(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// The dense kernels — MatMul/MatMulAcc, MatMulTransB, MatMulTransA — share
// one contract: every output element is its own accumulator, summed over
// ascending k from +0, and MatMulAcc's sum element (MatMulTransBAddTo's
// destination element) is added last. How a loop is blocked (eight output
// columns, four dot products, four k-rows per pass) never changes an
// element's sequence of roundings, so all of them are bit-identical for finite
// operands.
//
// No kernel tests single operands for zero. A term a·b with a = ±0 and b
// finite is ±0, and an accumulator that starts at +0 is never −0 (x + y
// rounds to −0 only when both are −0), so adding the term changes nothing:
// it may be added (the inner loops stay branch-free) or left out (a whole
// zero row of a, a whole zero k-row of MatMulTransA's b, or four zero
// k-entries at once, is skipped). With a
// non-finite b a skipped 0·Inf stays 0 and an added one is NaN; which of the
// two happens is pinned by TestDenseKernelsZeroTimesInf, not promised.

// dest returns dst, or a new rows×cols matrix for every element to be written
// into when dst is nil: the destination of an op's To form.
func dest(dst *Matrix, rows, cols int) *Matrix {
	if dst == nil {
		return newUninit(rows, cols)
	}
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: destination is %dx%d, result is %dx%d", dst.Rows, dst.Cols, rows, cols))
	}
	return dst
}

// Concat is the column concatenation [P₀ | P₁ | …] of the leading Rows rows
// of its parts, read where the parts are: the products and SpMM take each row,
// or each part's column window, from the parts themselves, bit-identical to
// the same kernel over the concatenation copied into one matrix. A
// single part is that matrix as it is.
type Concat struct {
	Rows  int
	Parts []*Matrix
}

// whole is m as a concatenation of one part.
func whole(m *Matrix) Concat { return Concat{Rows: m.Rows, Parts: []*Matrix{m}} }

// Cols returns the concatenation's width, its parts' summed.
func (c Concat) Cols() int {
	n := 0
	for _, p := range c.Parts {
		n += p.Cols
	}
	return n
}

// row returns row i: the single part's own, or the parts' rows copied side
// by side into buf.
func (c Concat) row(i int, buf []float64) []float64 {
	if len(c.Parts) == 1 {
		return c.Parts[0].Row(i)
	}
	off := 0
	for _, p := range c.Parts {
		off += copy(buf[off:], p.Row(i))
	}
	return buf
}

// RowRange returns rows [lo, hi) of m, sharing its storage: the leading rows
// of a row-major matrix's tail.
func (m *Matrix) RowRange(lo, hi int) *Matrix {
	return FromSlice(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols])
}

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix { return MatMulConcatTo(nil, whole(a), b) }

// MatMulTo writes a·b into dst (a new matrix when nil) and returns it; dst may
// be a itself when b is square (see MatMulConcatTo).
func MatMulTo(dst, a, b *Matrix) *Matrix { return MatMulConcatTo(dst, whole(a), b) }

// MatMulConcatTo writes a·b for a concatenated a into dst (a new matrix when
// nil) and returns it: each row of a is assembled from its parts into one
// reused row, which the kernel reads as MatMul reads a row of one matrix. dst
// may be a's single part itself when b is square, the product written over
// its input: each row of a is copied into a one-row scratch before that row
// of dst is written. Otherwise dst shares no storage with a or b.
func MatMulConcatTo(dst *Matrix, a Concat, b *Matrix) *Matrix {
	if a.Cols() != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %dx%d · %dx%d", a.Rows, a.Cols(), b.Rows, b.Cols))
	}
	out := dest(dst, a.Rows, b.Cols)
	matMulAcc(nil, a, b, out)
	return out
}

// MatMulAccConcatTo writes sum + x·w into dst (a new matrix when nil; sum
// itself for the sum in place) and returns it, bit-identical to AddTo(nil,
// sum, MatMulConcatTo(nil, x, w)): each product element is accumulated from
// zero exactly as MatMul would and only then added to sum's, so the rounding
// sequence is the unfused pair's — without materializing the product matrix.
// x's rows are assembled as MatMulConcatTo's. dst must not share storage with
// w, nor with x unless dst is sum: sum may be one of several parts of x, as a
// row of x is assembled before the row of dst is written.
func MatMulAccConcatTo(dst, sum *Matrix, x Concat, w *Matrix) *Matrix {
	if x.Cols() != w.Rows {
		panic(fmt.Sprintf("tensor: MatMulAcc inner mismatch %dx%d · %dx%d", x.Rows, x.Cols(), w.Rows, w.Cols))
	}
	if sum.Rows != x.Rows || sum.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulAcc sum is %dx%d, product is %dx%d", sum.Rows, sum.Cols, x.Rows, w.Cols))
	}
	out := dest(dst, sum.Rows, sum.Cols)
	matMulAcc(sum, x, w, out)
	return out
}

// matMulAcc computes a·b into out, plus sum's rows when sum is non-nil; sum
// may be out itself, and so may a's single part when sum is nil (its rows are
// copied out before they are written). Each row starts as +0 (a·b alone) or
// sum's row, and the product is added into it. A row of a that is entirely
// zero — in a hop input P^k·[x|h], every node without a live edge — has the
// product +0 and never enters mulRow; the scan that finds it ends at a dense
// row's first nonzero entry. sum's row is added to that +0 all the same:
// −0 + 0 is +0, so a zero product is not a copy of sum.
func matMulAcc(sum *Matrix, a Concat, b, out *Matrix) {
	var buf []float64 // rows of several parts are assembled here
	if len(a.Parts) > 1 {
		buf = make([]float64, a.Cols())
	}
	over := len(a.Parts) == 1 && a.Parts[0] == out
	if over {
		scratch := New(1, a.Cols())
		defer Recycle(scratch)
		buf = scratch.Data
	}
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		arow := a.row(i, buf)
		if over {
			arow = buf[:copy(buf, arow)]
		}
		switch {
		case sum == nil:
			clear(orow)
		case sum != out:
			copy(orow, sum.Row(i))
		}
		if !allZero(arow) {
			mulRow(orow, arow, b)
		} else if sum != nil {
			for j := range orow {
				orow[j] += 0
			}
		}
	}
}

func allZero(row []float64) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// mulRow adds arow·b into orow: one row of the matrix kernel. Eight output
// columns at a time are accumulated in registers — eight independent add
// chains sharing each load of arow — and only then added to the row, so each
// element is loaded and stored once; b is walked by a running offset, not an
// index product. The last b.Cols%8 columns go four at a time, then one. A sum
// that starts at +0 is never −0, so a cleared row receives the sum itself.
func mulRow(orow, arow []float64, b *Matrix) {
	n, bd := b.Cols, b.Data
	j := 0
	for ; j+8 <= n; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		off := j
		for _, av := range arow {
			bk := bd[off : off+8 : off+8]
			off += n
			s0 += av * bk[0]
			s1 += av * bk[1]
			s2 += av * bk[2]
			s3 += av * bk[3]
			s4 += av * bk[4]
			s5 += av * bk[5]
			s6 += av * bk[6]
			s7 += av * bk[7]
		}
		o := orow[j : j+8 : j+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = o[0]+s0, o[1]+s1, o[2]+s2, o[3]+s3, o[4]+s4, o[5]+s5, o[6]+s6, o[7]+s7
	}
	for ; j+4 <= n; j += 4 {
		var s0, s1, s2, s3 float64
		off := j
		for _, av := range arow {
			bk := bd[off : off+4 : off+4]
			off += n
			s0 += av * bk[0]
			s1 += av * bk[1]
			s2 += av * bk[2]
			s3 += av * bk[3]
		}
		o := orow[j : j+4 : j+4]
		o[0], o[1], o[2], o[3] = o[0]+s0, o[1]+s1, o[2]+s2, o[3]+s3
	}
	for ; j < n; j++ {
		var s float64
		off := j
		for _, av := range arow {
			s += av * bd[off]
			off += n
		}
		orow[j] += s
	}
}

// MatMulTransBTo writes a·bᵀ into dst (a new matrix when nil), which shares
// no storage with a or b, and returns it.
func MatMulTransBTo(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := dest(dst, a.Rows, b.Rows)
	matMulTransBInto(a, b, out, false)
	return out
}

// MatMulTransBAddTo adds a·bᵀ into dst, bit-identical to adding a
// MatMulTransBTo(nil, a, b) temporary into it: each dot product is summed from +0 in
// registers exactly as MatMulTransB sums it and only then added to dst's
// element, without the temporary. dst must not share storage with a or b.
func MatMulTransBAddTo(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransBAddTo %dx%d += %dx%d · (%dx%d)ᵀ", dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	matMulTransBInto(a, b, dst, true)
}

// matMulTransBInto writes a·bᵀ into out, or adds it in when add is set,
// four columns at a time: four independent dot products of one a row with
// four b rows, where a single dot product is one add chain waiting on itself.
// In dX = dC·Wᵀ a zero row of a is a node the loss does not reach; its dot
// products are +0, written or added as such (−0 + 0 is +0).
func matMulTransBInto(a, b, out *Matrix, add bool) {
	n := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		if allZero(arow) {
			if add {
				for j := range orow {
					orow[j] += 0
				}
			} else {
				clear(orow)
			}
			continue
		}
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*n : (j+1)*n : (j+1)*n]
			b1 := b.Data[(j+1)*n : (j+2)*n : (j+2)*n]
			b2 := b.Data[(j+2)*n : (j+3)*n : (j+3)*n]
			b3 := b.Data[(j+3)*n : (j+4)*n : (j+4)*n]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			o := orow[j : j+4 : j+4]
			if add {
				o[0], o[1], o[2], o[3] = o[0]+s0, o[1]+s1, o[2]+s2, o[3]+s3
			} else {
				o[0], o[1], o[2], o[3] = s0, s1, s2, s3
			}
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			if add {
				orow[j] += s
			} else {
				orow[j] = s
			}
		}
	}
}

// MatMulTransAConcatInto accumulates aᵀ·b for a concatenated a into out,
// element by element onto what out holds: output row j reads column j of a
// alone, so each part fills the block of rows its columns are, bit-identical
// to the product of the parts copied side by side. Into an out of all +0 it
// writes that product; onto other values it is not out plus the product: the
// terms are added to out's element one by one.
func MatMulTransAConcatInto(out *Matrix, a Concat, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols() || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA %dx%d += (%dx%d)ᵀ · %dx%d", out.Rows, out.Cols, a.Rows, a.Cols(), b.Rows, b.Cols))
	}
	off := 0
	for _, p := range a.Parts {
		matMulTransAInto(p, b, out.RowRange(off, off+p.Cols))
		off += p.Cols
	}
}

// matMulTransAInto accumulates aᵀ·b into the zeroed out over a's leading
// b.Rows rows, streaming a and b once. A k-row of b that is all ±0 — in
// dW = Xᵀ·dC, a row the loss does not reach — adds only ±0 terms and is
// skipped whole. The rest are consumed four per pass, added in ascending
// order — o = (((o + a0·b0) + a1·b1) + a2·b2) + a3·b3 — so each output element
// is loaded and stored once per four multiply-adds instead of once per one;
// the last of them, fewer than four, go one at a time. Four zero entries of a
// in a column (an isolated node's rows, a feature nobody has) skip the pass.
// The rows of b and out are sliced by hand, all to length n, where Row()
// would read shorter: it is what lets the compiler drop the inner loop's
// bounds checks (the large shape of BenchmarkDenseKernels runs 1.2× slower
// without).
func matMulTransAInto(a, b, out *Matrix) {
	n := b.Cols
	var ks [4]int
	m := 0
	for k := 0; k < b.Rows; k++ {
		if allZero(b.Data[k*n : (k+1)*n]) {
			continue
		}
		if ks[m] = k; m < 3 {
			m++
			continue
		}
		m = 0
		matMulTransAPass(a, b, out, ks)
	}
	for _, k := range ks[:m] {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := 0; i < a.Cols; i++ {
			av := arow[i]
			orow := out.Data[i*n : (i+1)*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulTransAPass adds k-rows ks of aᵀ·b into out, in ascending order. It is
// a function of its own: inlined in the loop above it ran ≈ 20 % slower.
func matMulTransAPass(a, b, out *Matrix, ks [4]int) {
	n := b.Cols
	a0, a1, a2, a3 := a.Row(ks[0]), a.Row(ks[1]), a.Row(ks[2]), a.Row(ks[3])
	b0, b1, b2, b3 := b.Data[ks[0]*n:][:n:n], b.Data[ks[1]*n:][:n:n], b.Data[ks[2]*n:][:n:n], b.Data[ks[3]*n:][:n:n]
	for i := 0; i < a.Cols; i++ {
		v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
		// All four ±0, as one branch: four float compares mispredict on
		// operands whose zeros have no pattern.
		if (math.Float64bits(v0)|math.Float64bits(v1)|math.Float64bits(v2)|math.Float64bits(v3))<<1 == 0 {
			continue
		}
		orow := out.Data[i*n : (i+1)*n : (i+1)*n]
		for j, o := range orow {
			orow[j] = (((o + v0*b0[j]) + v1*b1[j]) + v2*b2[j]) + v3*b3[j]
		}
	}
}

// A row-local op's To form writes its result into dst and returns it; its
// plain form, where it has one, is the To form with a nil dst, which
// allocates the result. dst is nil, an operand of the result's shape (the op
// in place: each element is read before it is written, in the same place), or
// a matrix sharing no storage with the operands.

// AddTo writes a+b into dst.
func AddTo(dst, a, b *Matrix) *Matrix {
	shapeCheck("Add", a, b)
	out := dest(dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// SubTo writes a−b into dst.
func SubTo(dst, a, b *Matrix) *Matrix {
	shapeCheck("Sub", a, b)
	out := dest(dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// MulTo writes a∘b into dst.
func MulTo(dst, a, b *Matrix) *Matrix {
	shapeCheck("Mul", a, b)
	out := dest(dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// ScaleTo writes s·m into dst.
func ScaleTo(dst, m *Matrix, s float64) *Matrix {
	out := dest(dst, m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v * s
	}
	return out
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Matrix) {
	shapeCheck("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// AddScaledInPlace adds s·b into a.
func AddScaledInPlace(a, b *Matrix, s float64) {
	shapeCheck("AddScaledInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += s * v
	}
}

// AddRowVectorTo writes m plus v on every row into dst (m, not v, in place).
func AddRowVectorTo(dst, m, v *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector needs 1x%d, got %dx%d", m.Cols, v.Rows, v.Cols))
	}
	out := dest(dst, m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		orow := out.Row(r)
		for c, x := range row {
			orow[c] = x + v.Data[c]
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements (0 for an empty matrix).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// MaxAbs returns the largest absolute element (0 for an empty matrix).
//
//streamlint:unreached-ok the size oracle of the tests of tensor, autodiff, nn and dgnn
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// GatherRowsConcatTo writes the matrix whose i-th row is row rows[i] of c
// into dst (a new matrix when nil), which shares no storage with c, and
// returns it: each row assembled from the parts straight into the output.
func GatherRowsConcatTo(dst *Matrix, c Concat, rows []int) *Matrix {
	out := dest(dst, len(rows), c.Cols())
	for i, r := range rows {
		if r < 0 || r >= c.Rows {
			panic(fmt.Sprintf("tensor: GatherRows row %d of %d", r, c.Rows))
		}
		orow := out.Row(i)
		copy(orow, c.row(r, orow))
	}
	return out
}

// ScatterRows copies src's rows into dst at the given destination indices.
func ScatterRows(dst, src *Matrix, rows []int) {
	if src.Rows != len(rows) || src.Cols != dst.Cols {
		panic(fmt.Sprintf("tensor: ScatterRows shape mismatch src %dx%d rows %d dst cols %d",
			src.Rows, src.Cols, len(rows), dst.Cols))
	}
	for i, r := range rows {
		copy(dst.Row(r), src.Row(i))
	}
}

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// SigmoidTo writes Sigmoid of each element of m into dst.
func SigmoidTo(dst, m *Matrix) *Matrix {
	out := dest(dst, m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = Sigmoid(v)
	}
	return out
}

// TanhTo writes math.Tanh of each element of m into dst.
func TanhTo(dst, m *Matrix) *Matrix {
	out := dest(dst, m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

// ReLUTo writes max(0, x) of each element x of m into dst: x itself when it
// is above 0, +0 otherwise (a NaN and a −0 included). It selects with
// PositiveMask: a branch on the sign mispredicts on about half the elements.
func ReLUTo(dst, m *Matrix) *Matrix {
	out := dest(dst, m.Rows, m.Cols)
	od := out.Data[:len(m.Data)]
	for i, v := range m.Data {
		od[i] = math.Float64frombits(math.Float64bits(v) & PositiveMask(v))
	}
	return out
}

// PositiveMask returns a word of all ones when v is above 0 and of all zeros
// otherwise (a NaN and a −0 included), without a branch: ANDed with a
// float's bits it keeps the float or makes it +0.
func PositiveMask(v float64) uint64 {
	var above uint64
	if v > 0 {
		above = 1
	}
	return -above
}

// OneMinusTo writes 1−x of each element x of m into dst.
func OneMinusTo(dst, m *Matrix) *Matrix {
	out := dest(dst, m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = 1 - v
	}
	return out
}
