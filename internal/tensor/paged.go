package tensor

import (
	"fmt"
	"slices"
)

// PageRows is the number of rows one page of a Paged array holds.
const PageRows = 64

// RowView is a read-only view of fixed-width rows stored in PageRows-row
// pages. A view handed out by Paged.Freeze or ViewOf is frozen: no page it
// references is ever written again, so any number of goroutines may read it
// while the array it came from moves on. Row aliases a page; callers must not
// write through it.
type RowView struct {
	rows, cols int
	pages      [][]float64
}

// ViewOf returns a frozen view of m's rows without copying them: each page
// slices m's storage. m must never be written again.
func ViewOf(m *Matrix) *RowView {
	v := &RowView{rows: m.Rows, cols: m.Cols}
	for lo := 0; lo < m.Rows; lo += PageRows {
		a, b := lo*m.Cols, min(lo+PageRows, m.Rows)*m.Cols
		v.pages = append(v.pages, m.Data[a:b:b])
	}
	return v
}

// Rows returns the number of rows, 0 for a nil view.
func (v *RowView) Rows() int {
	if v == nil {
		return 0
	}
	return v.rows
}

// Cols returns the row width.
func (v *RowView) Cols() int { return v.cols }

// Row returns row i, aliasing the page that holds it.
func (v *RowView) Row(i int) []float64 {
	if i < 0 || i >= v.rows {
		panic(fmt.Sprintf("tensor: row %d of %d", i, v.rows))
	}
	off := (i % PageRows) * v.cols
	return v.pages[i/PageRows][off : off+v.cols : off+v.cols]
}

// Dense copies every row into one new matrix: O(rows), for readers that
// need contiguous storage.
func (v *RowView) Dense() *Matrix {
	out := newUninit(v.rows, v.cols)
	for i := 0; i < v.rows; i++ {
		copy(out.Row(i), v.Row(i))
	}
	return out
}

// Paged is a growable array of fixed-width rows in PageRows-row pages that
// it shares, copy on write, with the views Freeze hands out (a persistent
// vector). Freeze copies the page table; the first write to a page a view
// may read clones that page, so a write costs the pages it touches, never
// the whole array. Growth appends zeroed pages. Every page allocation goes
// through the allocation meter.
//
// A Paged is not safe for concurrent mutation, with one exception: writers
// of disjoint rows whose pages Privatize already made private.
type Paged struct {
	RowView
	// own[p] marks page p private: no view shares it, so it is written in
	// place.
	own []bool
	// frozen is the view the last Freeze returned, until the next change.
	frozen *RowView
}

// NewPaged returns an empty array of rows cols wide.
func NewPaged(cols int) *Paged { return &Paged{RowView: RowView{cols: cols}} }

// PagedFrom adopts m's rows as the pages of a new array without copying
// them, taking ownership of m: the array writes m's storage in place until
// a view freezes it.
func PagedFrom(m *Matrix) *Paged {
	p := &Paged{RowView: *ViewOf(m)}
	p.own = make([]bool, len(p.pages))
	for i := range p.own {
		p.own[i] = true
	}
	return p
}

// Freeze returns a frozen view of the current rows. It copies the page table
// and marks every page shared, so the array's next write to a page clones it;
// an array unchanged since the last Freeze returns that view again.
func (p *Paged) Freeze() *RowView {
	if p.frozen == nil {
		clear(p.own)
		v := p.RowView
		v.pages = slices.Clone(p.pages)
		p.frozen = &v
	}
	return p.frozen
}

// Thaw takes back every page, for a caller that has dropped every view Freeze
// handed out: the array writes those pages in place again.
func (p *Paged) Thaw() {
	for i := range p.own {
		p.own[i] = true
	}
	p.frozen = nil
}

// newPage returns a zeroed page, metered.
func (p *Paged) newPage() []float64 {
	n := PageRows * p.cols
	recordAlloc(n)
	return make([]float64, n)
}

// private returns page k for writing, cloning it first when a view may share
// it.
func (p *Paged) private(k int) []float64 {
	if !p.own[k] {
		p.clone(k)
	}
	return p.pages[k]
}

// clone replaces page k with a private, full-length copy.
func (p *Paged) clone(k int) {
	fresh := p.newPage()
	copy(fresh, p.pages[k])
	p.pages[k], p.own[k], p.frozen = fresh, true, nil
}

// Grow extends the array to n rows; the new rows are zero. It clones a last
// page shorter than a page (one adopted from a matrix's last rows) and
// appends fresh pages, nothing else.
func (p *Paged) Grow(n int) {
	if n <= p.rows {
		return
	}
	if k := len(p.pages) - 1; k >= 0 && len(p.pages[k]) < PageRows*p.cols {
		p.clone(k)
	}
	for len(p.pages)*PageRows < n {
		p.pages = append(p.pages, p.newPage())
		p.own = append(p.own, true)
	}
	p.rows, p.frozen = n, nil
}

// Privatize clones, up front, every shared page that holds one of rows, so
// that concurrent writers of disjoint rows among them touch no page table.
func (p *Paged) Privatize(rows []int) {
	for _, r := range rows {
		if r < 0 || r >= p.rows {
			panic(fmt.Sprintf("tensor: row %d of %d", r, p.rows))
		}
		p.private(r / PageRows)
	}
}

// SetRow copies src into row i, cloning its page first if a view shares it.
func (p *Paged) SetRow(i int, src []float64) {
	if i < 0 || i >= p.rows || len(src) != p.cols {
		panic(fmt.Sprintf("tensor: SetRow %d (%d values) of %dx%d", i, len(src), p.rows, p.cols))
	}
	off := (i % PageRows) * p.cols
	copy(p.private(i / PageRows)[off:off+p.cols], src)
}
