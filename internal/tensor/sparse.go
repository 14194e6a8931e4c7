package tensor

import "fmt"

// CSR is a compressed-sparse-row matrix with float64 values. It is used for
// (normalized) graph adjacency matrices; values do not participate in
// automatic differentiation (the adjacency is a constant of each snapshot).
type CSR struct {
	NRows, NCols int
	RowPtr       []int
	ColIdx       []int
	Val          []float64
}

// NewCSR builds a CSR matrix from per-row (col, val) entry lists. Entries
// within a row keep their given order; duplicate columns are allowed and sum
// under multiplication.
//
//streamlint:unreached-ok builds the sparse operands of the tests of tensor, autodiff and nn; the graph assembles its own
func NewCSR(nrows, ncols int, entries [][]CSREntry) *CSR {
	c := &CSR{NRows: nrows, NCols: ncols, RowPtr: make([]int, nrows+1)}
	nnz := 0
	for r := 0; r < nrows; r++ {
		if r < len(entries) {
			nnz += len(entries[r])
		}
		c.RowPtr[r+1] = nnz
	}
	c.ColIdx = make([]int, 0, nnz)
	c.Val = make([]float64, 0, nnz)
	for r := 0; r < nrows && r < len(entries); r++ {
		for _, e := range entries[r] {
			if e.Col < 0 || e.Col >= ncols {
				panic(fmt.Sprintf("tensor: CSR column %d out of range [0,%d)", e.Col, ncols))
			}
			c.ColIdx = append(c.ColIdx, e.Col)
			c.Val = append(c.Val, e.Val)
		}
	}
	return c
}

// Diffusion is a snapshot's forward and reverse random-walk transition
// matrices in the form the diffusion convolution consumes: restricted to the
// active rows. Active is the ascending set A of rows with an entry in either
// matrix — the nodes with a live in- or out-edge. An edge u→v puts v in the
// forward row of u and u in the reverse row of v, so every column a non-empty
// row names is itself in A and the A×A blocks lose no entry.
//
// FwdIn and RevIn are rows A of the two matrices over all n columns (the first
// hop reads the n-row input); FwdAA and RevAA are the A×A blocks, columns
// renumbered to positions in A (later hops read |A|-row hop matrices). All four
// share Val, and the In pair ColIdx, with the n×n matrices. When every row is
// active the four are the n×n matrices themselves and Active is unused. A
// Diffusion is immutable once built.
type Diffusion struct {
	Active       []int
	FwdIn, RevIn *CSR
	FwdAA, RevAA *CSR
}

// ActiveRows returns |A|.
func (d *Diffusion) ActiveRows() int { return d.FwdIn.NRows }

// Rows returns n, the row count of the matrices the block restricts.
func (d *Diffusion) Rows() int { return d.FwdIn.NCols }

// CSREntry is one stored (column, value) pair of a CSR row.
type CSREntry struct {
	Col int
	Val float64
}

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.ColIdx) }

// RowNNZ returns the number of stored entries in row r.
func (c *CSR) RowNNZ(r int) int { return c.RowPtr[r+1] - c.RowPtr[r] }

// Head returns c's leading rows×cols block without copying: the first rows
// row extents over c's own arrays. It is a matrix only if those rows name no
// column at or beyond cols, which is the caller's to know — a graph.Region
// orders its rows so that every frontier's block qualifies — and is not
// checked here. The whole of c is c itself.
func (c *CSR) Head(rows, cols int) *CSR {
	if rows < 0 || rows > c.NRows || cols < 0 || cols > c.NCols {
		panic(fmt.Sprintf("tensor: Head %dx%d of a %dx%d CSR", rows, cols, c.NRows, c.NCols))
	}
	if rows == c.NRows && cols == c.NCols {
		return c
	}
	end := c.RowPtr[rows]
	return &CSR{NRows: rows, NCols: cols, RowPtr: c.RowPtr[:rows+1], ColIdx: c.ColIdx[:end], Val: c.Val[:end]}
}

// Block returns the CSR of c's rows listed in rows, in that order, with each
// column renumbered to its position in cols (ascending), or kept as it is
// when cols is nil. An entry whose column cols does not list is left out: the
// caller lists every column whose input row may be nonzero. Row i of the
// result is row rows[i] of c, its other entries copied in their order. So
// SpMM over it, with the input's rows cols, computes those rows of SpMM over c
// bit for bit — an entry left out reads a row of ±0, and its ±0 term changes
// no sum, which is never −0 — and its transpose accumulates each listed
// column over the listed rows in their order. at is the caller's scratch
// column table, c.NCols zeros at least (nil with cols nil), which Block marks
// at cols and leaves zero again: a block costs its entries and cols, not c's
// columns.
func (c *CSR) Block(rows, cols, at []int) *CSR {
	nnz := 0
	for _, r := range rows {
		nnz += c.RowNNZ(r)
	}
	ncols := c.NCols
	if cols != nil {
		ncols, at = len(cols), at[:c.NCols]
		for i, j := range cols {
			at[j] = i + 1 // 1 + column j's position in cols, 0 unlisted
		}
	}
	b := &CSR{NRows: len(rows), NCols: ncols, RowPtr: make([]int, 1, len(rows)+1), ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for _, r := range rows {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			j := c.ColIdx[p]
			if cols != nil {
				if at[j] == 0 {
					continue
				}
				j = at[j] - 1
			}
			b.ColIdx, b.Val = append(b.ColIdx, j), append(b.Val, c.Val[p])
		}
		b.RowPtr = append(b.RowPtr, len(b.ColIdx))
	}
	for _, j := range cols {
		at[j] = 0
	}
	return b
}

// SpMM returns c·x for dense x. Like MatMul, each output row is initialized
// and accumulated in one place (an empty CSR row is zeroed), so the output
// needs no zeroing pass.
func SpMM(c *CSR, x *Matrix) *Matrix { return SpMMConcatTo(nil, c, whole(x)) }

// SpMMConcatTo writes c·x for a concatenated x into dst (a new matrix when
// nil), which shares no storage with x, and returns it: each nonzero adds
// into every part's column window of its output row in turn. An element's
// sequence of roundings is per nonzero and does not depend on the columns, so
// the result is bit-identical to SpMM of the parts copied side by side.
func SpMMConcatTo(dst *Matrix, c *CSR, x Concat) *Matrix {
	if c.NCols != x.Rows {
		panic(fmt.Sprintf("tensor: SpMM inner mismatch %dx%d · %dx%d", c.NRows, c.NCols, x.Rows, x.Cols()))
	}
	out := dest(dst, c.NRows, x.Cols())
	for r := 0; r < c.NRows; r++ {
		orow := out.Row(r)
		p, end := c.RowPtr[r], c.RowPtr[r+1]
		if p == end {
			clear(orow)
			continue
		}
		// The row's first entry initializes it: 0 + v·x is what adding the
		// product to a zeroed row yields (a -0 product still lands as +0).
		v, k, off := c.Val[p], c.ColIdx[p], 0
		for _, part := range x.Parts {
			o := orow[off : off+part.Cols]
			for j, xv := range part.Row(k) {
				o[j] = 0 + v*xv
			}
			off += part.Cols
		}
		for p++; p < end; p++ {
			v, k, off := c.Val[p], c.ColIdx[p], 0
			for _, part := range x.Parts {
				o := orow[off : off+part.Cols]
				for j, xv := range part.Row(k) {
					o[j] += v * xv
				}
				off += part.Cols
			}
		}
	}
	return out
}

// SpMMTransColsInto writes cᵀ·x over x's columns [from, to) into out (used
// for gradients through SpMM), which it zeroes first and returns: each output
// row is accumulated over c's rows in order.
func SpMMTransColsInto(out *Matrix, c *CSR, x *Matrix, from, to int) *Matrix {
	if c.NRows != x.Rows || from < 0 || to > x.Cols || from > to || out.Rows != c.NCols || out.Cols != to-from {
		panic(fmt.Sprintf("tensor: SpMMTransCols %dx%d = (%dx%d)ᵀ · %dx%d[:, %d:%d]", out.Rows, out.Cols, c.NRows, c.NCols, x.Rows, x.Cols, from, to))
	}
	clear(out.Data)
	for r := 0; r < c.NRows; r++ {
		xrow := x.Row(r)[from:to]
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			v := c.Val[p]
			orow := out.Row(c.ColIdx[p])
			for j, xv := range xrow {
				orow[j] += v * xv
			}
		}
	}
	return out
}

// Dense converts c to a dense matrix (duplicates sum).
//
//streamlint:unreached-ok the dense reference the tests of tensor, graph and dgnn compare sparse structures against
func (c *CSR) Dense() *Matrix {
	out := New(c.NRows, c.NCols)
	for r := 0; r < c.NRows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			out.Data[r*c.NCols+c.ColIdx[p]] += c.Val[p]
		}
	}
	return out
}
