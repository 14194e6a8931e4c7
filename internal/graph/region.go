package graph

import (
	"fmt"
	"sort"

	"streamgnn/internal/tensor"
)

// Region is the subgraph a node set induces, with local (dense) row numbers:
// the one carrier of a node set's adjacencies. A training partition
// (Subgraph), the whole snapshot and an incremental forward's compute region
// are all Regions, and each entry of each adjacency is written by one of the
// three row appenders below, so the views agree bit for bit by construction.
//
// The rows are laid out in demand order: the rows whose result is wanted
// first, then the rows one hop from them, two hops, and so on, each layer
// ascending. A row's neighbours are at most one layer further out, so the rows
// a d-deep intermediate must cover are a prefix — Frontier[d] — and every
// adjacency row of that prefix names columns below Frontier[d+1]: the forward
// runs the ordinary kernels on leading blocks (tensor.CSR.Head,
// autodiff.Tape.Head) instead of the whole region. With nothing wanted the
// order is plain ascending: a partition's.
//
// The order does not move a bit. A row holds its node's entries — self loop,
// out-edges, in-edges, values from global degrees — in that order, and a
// sparse product sums a row in entry order; only the column numbers differ.
//
// Build overwrites a Region in place and keeps every array, so a pooled one
// lays out warm without allocating, and what it hands out is valid until the
// next Build. The random-walk and typed adjacencies are built on first use
// (DCRNN alone reads the first, RTGCN the second); a Region reached from
// several goroutines needs a lock around those two (Subgraph has it).
type Region struct {
	// Nodes maps region row -> global node id.
	Nodes []int
	// Frontier[d], d = 0..depth, is the number of rows within d hops of the
	// wanted ones inside the region. Rows beyond Frontier[depth] — farther out,
	// or not connected to a wanted row at all — follow in ascending order and
	// belong to no prefix: nothing wanted reads them within depth hops.
	Frontier []int

	g        *Dynamic
	norm     tensor.CSR
	fwd, rev tensor.CSR
	rw       *tensor.Diffusion // nil until Diffusion is asked for
	typed    []*tensor.CSR
	ntypes   int // how many of typed are built for this layout; 0: none
}

// Marks in the global->row scratch while Build orders the nodes; a placed
// node holds its row + 1.
const (
	regionUnplaced int32 = -1
	regionQueued   int32 = -2
)

// Build lays out the subgraph g induces on nodes, ordered by hop distance from
// want inside it, distances counted up to depth. want must be distinct members
// of nodes and comes first in the order given (callers pass it ascending);
// nodes may be in any order.
func (r *Region) Build(g *Dynamic, nodes, want []int, depth int) {
	r.g, r.rw, r.ntypes = g, nil, 0
	loc := getScratch(g.N())
	for _, v := range nodes {
		g.checkNode(v)
		loc[v] = regionUnplaced
	}
	if cap(r.Nodes) < len(nodes) {
		r.Nodes = make([]int, 0, len(nodes))
	}
	order := r.Nodes[:0]
	for _, v := range want {
		if loc[v] != regionUnplaced {
			panic(fmt.Sprintf("graph: wanted node %d is repeated or outside the region", v))
		}
		order = append(order, v)
		loc[v] = int32(len(order))
	}
	r.Frontier = append(r.Frontier[:0], len(order))
	lo := 0
	for d := 1; d <= depth; d++ {
		hi := len(order)
		for _, u := range order[lo:hi] {
			for _, es := range [2][]Edge{g.out[u], g.in[u]} {
				for _, e := range es {
					if loc[e.To] == regionUnplaced {
						loc[e.To] = regionQueued
						order = append(order, e.To)
					}
				}
			}
		}
		place(loc, order[hi:], hi)
		r.Frontier = append(r.Frontier, len(order))
		lo = hi
	}
	placed := len(order)
	for _, v := range nodes {
		if loc[v] == regionUnplaced {
			loc[v] = regionQueued
			order = append(order, v)
		}
	}
	place(loc, order[placed:], placed)
	r.Nodes = order

	n := len(r.Nodes)
	resetCSR(&r.norm, n, n)
	for i, v := range r.Nodes {
		g.appendNormRow(&r.norm, v, i, loc)
	}
	r.unlocate(loc)
}

// col returns the row of global node v under loc (row + 1 per node, 0 for a
// node outside), or -1.
func col(loc []int32, v int) int { return int(loc[v]) - 1 }

// appendNormRow appends node v's row of D^{-1/2}(A+Aᵀ+I)D^{-1/2} to c — the
// self loop at column self, then v's out-edges and in-edges that stay inside
// loc — and closes the row. THE symmetric-normalized entry.
func (g *Dynamic) appendNormRow(c *tensor.CSR, v, self int, loc []int32) {
	c.ColIdx = append(c.ColIdx, self)
	c.Val = append(c.Val, 1/g.normDeg(v))
	for _, es := range [2][]Edge{g.out[v], g.in[v]} {
		for _, e := range es {
			if j := col(loc, e.To); j >= 0 {
				c.ColIdx = append(c.ColIdx, j)
				c.Val = append(c.Val, 1/(g.root[v]*g.root[e.To]))
			}
		}
	}
	c.RowPtr = append(c.RowPtr, len(c.ColIdx))
}

// appendWalkRow appends a node's random-walk row over its edges es in one
// direction — the ones that stay inside loc, each weighted by the node's
// global degree in that direction — and closes the row. THE walk entry.
func appendWalkRow(c *tensor.CSR, es []Edge, loc []int32) {
	for _, e := range es {
		if j := col(loc, e.To); j >= 0 {
			c.ColIdx = append(c.ColIdx, j)
			c.Val = append(c.Val, 1/float64(len(es)))
		}
	}
	c.RowPtr = append(c.RowPtr, len(c.ColIdx))
}

// appendTypedRow appends node v's row of every per-relation normalized
// adjacency in typed — no self loop: relation-aware layers add an explicit
// self-transform — and closes them; edges of a type beyond typed are ignored.
// THE typed entry. Normalization uses the node's total degree across all
// types, so the per-type matrices sum to (roughly) the untyped one.
func (g *Dynamic) appendTypedRow(typed []*tensor.CSR, v int, loc []int32) {
	for _, es := range [2][]Edge{g.out[v], g.in[v]} {
		for _, e := range es {
			if j := col(loc, e.To); j >= 0 && int(e.Type) < len(typed) {
				c := typed[e.Type]
				c.ColIdx = append(c.ColIdx, j)
				c.Val = append(c.Val, 1/(g.root[v]*g.root[e.To]))
			}
		}
	}
	for _, c := range typed {
		c.RowPtr = append(c.RowPtr, len(c.ColIdx))
	}
}

// place sorts a queued layer ascending and numbers it from row base on.
func place(loc []int32, layer []int, base int) {
	sort.Ints(layer)
	for i, v := range layer {
		loc[v] = int32(base + i + 1)
	}
}

// locate returns the pooled global->row scratch filled for the current layout
// (row + 1; 0 = outside the region); unlocate zeroes and returns it.
func (r *Region) locate() []int32 {
	loc := getScratch(r.g.N())
	for i, v := range r.Nodes {
		loc[v] = int32(i + 1)
	}
	return loc
}

func (r *Region) unlocate(loc []int32) {
	for _, v := range r.Nodes {
		loc[v] = 0
	}
	putScratch(loc)
}

// N returns the number of rows.
func (r *Region) N() int { return len(r.Nodes) }

// NormAdj returns the region's symmetric GCN-normalized adjacency.
func (r *Region) NormAdj() *tensor.CSR { return &r.norm }

// Features returns the N()×FeatDim attribute matrix of the region's rows.
func (r *Region) Features() *tensor.Matrix { return r.g.featureRows(r.Nodes) }

// Diffusion returns the region's random-walk adjacencies on its active rows
// (see tensor.Diffusion), built on first use.
func (r *Region) Diffusion() *tensor.Diffusion {
	if r.rw != nil {
		return r.rw
	}
	g, n := r.g, len(r.Nodes)
	loc := r.locate()
	resetCSR(&r.fwd, n, n)
	resetCSR(&r.rev, n, n)
	var active activeRows
	for i, v := range r.Nodes {
		appendWalkRow(&r.fwd, g.out[v], loc)
		appendWalkRow(&r.rev, g.in[v], loc)
		active.row(r.fwd.RowNNZ(i)+r.rev.RowNNZ(i) > 0)
	}
	r.unlocate(loc)
	rw := g.newDiffusion(&r.fwd, &r.rev, active)
	r.rw = &rw
	return r.rw
}

// TypedAdj returns the region's per-type normalized adjacencies (ntypes
// matrices), built on first use. A second width over one layout gets arrays of
// its own: the first's may be in a reader's hands.
func (r *Region) TypedAdj(ntypes int) []*tensor.CSR {
	if r.ntypes == ntypes {
		return r.typed[:ntypes]
	}
	if r.ntypes != 0 {
		r.typed = nil
	}
	for len(r.typed) < ntypes {
		r.typed = append(r.typed, new(tensor.CSR))
	}
	typed, n := r.typed[:ntypes], len(r.Nodes)
	for _, c := range typed {
		resetCSR(c, n, n)
	}
	loc := r.locate()
	for _, v := range r.Nodes {
		r.g.appendTypedRow(typed, v, loc)
	}
	r.unlocate(loc)
	r.ntypes = ntypes
	return typed
}
