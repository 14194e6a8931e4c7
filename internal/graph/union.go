package graph

import "streamgnn/internal/tensor"

// Union is the disjoint union of a training round's partitions: block b holds
// the rows of subs[b] at Offsets[b]:Offsets[b+1], and every adjacency is the
// partitions' own laid out block-diagonally, entries in their order. A node in
// two partitions appears once per block. Every forward op is row-local or goes
// through an adjacency, so one forward over the union computes each block's
// rows exactly as a forward over that partition alone would — at the row counts
// where the dense kernels pay, and for one pass of tape dispatch.
//
// A Union is scratch: Build overwrites it in place and keeps every array, so a
// warm round builds its union without allocating. What it hands out is valid
// until the next Build.
type Union struct {
	// Nodes maps union row -> global node id.
	Nodes []int
	// Offsets[b] is block b's first row; the last entry is N().
	Offsets []int

	subs  []*Subgraph
	norm  tensor.CSR
	fwd   tensor.CSR // rows: the active set; FwdIn of rw
	rev   tensor.CSR
	fwdAA tensor.CSR
	revAA tensor.CSR
	rw    tensor.Diffusion // zero until Diffusion is asked for
	// active is rw.Active; fwdCols/revCols the renumbered columns of the A×A
	// blocks, which share row pointers and values with fwd and rev.
	active           []int
	fwdCols, revCols []int
	typed            []*tensor.CSR
}

// Build lays out the union of subs (at least one, all of one graph).
func (u *Union) Build(subs []*Subgraph) {
	u.subs, u.rw = append(u.subs[:0], subs...), tensor.Diffusion{}
	u.Nodes, u.Offsets = u.Nodes[:0], append(u.Offsets[:0], 0)
	for _, s := range subs {
		u.Nodes = append(u.Nodes, s.Nodes...)
		u.Offsets = append(u.Offsets, len(u.Nodes))
	}
	resetCSR(&u.norm, u.N(), u.N())
	for b, s := range subs {
		stackCSR(&u.norm, s.NormAdj(), u.Offsets[b])
	}
}

// Diffusion returns the block-diagonal random-walk adjacencies on the union's
// active rows (see tensor.Diffusion), stacked from the partitions' own on
// first use: a round of a model that reads none builds none.
func (u *Union) Diffusion() *tensor.Diffusion {
	if u.rw.FwdIn != nil {
		return &u.rw
	}
	n, k := u.N(), 0
	for _, s := range u.subs {
		k += s.Diffusion().ActiveRows()
	}
	resetCSR(&u.fwd, k, n)
	resetCSR(&u.rev, k, n)
	// The active block follows tensor.Diffusion's contract: the blocks'
	// active sets concatenated, and the all-active form only when every block
	// is all-active.
	compact := k < n
	u.active, u.fwdCols, u.revCols = u.active[:0], u.fwdCols[:0], u.revCols[:0]
	for b, s := range u.subs {
		row, rw := u.Offsets[b], s.Diffusion()
		stackCSR(&u.fwd, rw.FwdIn, row)
		stackCSR(&u.rev, rw.RevIn, row)
		if !compact {
			continue
		}
		pos := len(u.active)
		if rw.ActiveRows() == s.N() {
			for i := range s.Nodes {
				u.active = append(u.active, row+i)
			}
		} else {
			for _, i := range rw.Active {
				u.active = append(u.active, row+i)
			}
		}
		for _, c := range rw.FwdAA.ColIdx {
			u.fwdCols = append(u.fwdCols, pos+c)
		}
		for _, c := range rw.RevAA.ColIdx {
			u.revCols = append(u.revCols, pos+c)
		}
	}
	if compact {
		u.fwdAA = tensor.CSR{NRows: k, NCols: k, RowPtr: u.fwd.RowPtr, ColIdx: u.fwdCols, Val: u.fwd.Val}
		u.revAA = tensor.CSR{NRows: k, NCols: k, RowPtr: u.rev.RowPtr, ColIdx: u.revCols, Val: u.rev.Val}
		u.rw = tensor.Diffusion{Active: u.active, FwdIn: &u.fwd, RevIn: &u.rev, FwdAA: &u.fwdAA, RevAA: &u.revAA}
	} else {
		u.rw = tensor.Diffusion{FwdIn: &u.fwd, RevIn: &u.rev, FwdAA: &u.fwd, RevAA: &u.rev}
	}
	return &u.rw
}

// resetCSR empties c to a rows×cols matrix that stackCSR fills, keeping its
// arrays.
func resetCSR(c *tensor.CSR, rows, cols int) {
	c.NRows, c.NCols = rows, cols
	if cap(c.RowPtr) <= rows {
		c.RowPtr = make([]int, 0, rows+1)
	}
	c.RowPtr, c.ColIdx, c.Val = append(c.RowPtr[:0], 0), c.ColIdx[:0], c.Val[:0]
}

// stackCSR appends src's rows below dst's, columns shifted by colOff: the next
// diagonal block.
func stackCSR(dst, src *tensor.CSR, colOff int) {
	base := len(dst.ColIdx)
	for _, p := range src.RowPtr[1:] {
		dst.RowPtr = append(dst.RowPtr, base+p)
	}
	for _, c := range src.ColIdx {
		dst.ColIdx = append(dst.ColIdx, colOff+c)
	}
	dst.Val = append(dst.Val, src.Val...)
}

// N returns the number of rows: the partitions' sizes summed.
func (u *Union) N() int { return len(u.Nodes) }

// NormAdj returns the block-diagonal symmetric GCN-normalized adjacency.
func (u *Union) NormAdj() *tensor.CSR { return &u.norm }

// TypedAdj returns the block-diagonal per-type normalized adjacencies, stacked
// from the partitions' cached ones.
func (u *Union) TypedAdj(ntypes int) []*tensor.CSR {
	for len(u.typed) < ntypes {
		u.typed = append(u.typed, new(tensor.CSR))
	}
	for _, c := range u.typed[:ntypes] {
		resetCSR(c, u.N(), u.N())
	}
	for b, s := range u.subs {
		for t, c := range s.TypedAdj(ntypes) {
			stackCSR(u.typed[t], c, u.Offsets[b])
		}
	}
	return u.typed[:ntypes]
}

// Features returns the N()×FeatDim attribute matrix of the union's rows.
func (u *Union) Features() *tensor.Matrix { return u.subs[0].r.g.featureRows(u.Nodes) }
