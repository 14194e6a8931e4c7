package graph

import (
	"fmt"
	"math"
	"sort"

	"streamgnn/internal/tensor"
)

// Region is an incremental forward's compute region laid out in demand order:
// the rows whose result is wanted first, then the rows one hop from them, two
// hops, and so on, each layer ascending. A row's neighbours are at most one
// layer further out, so the rows a d-deep intermediate must cover are a
// prefix — Frontier[d] — and every adjacency row of that prefix names columns
// below Frontier[d+1]: the forward runs the ordinary kernels on leading blocks
// (tensor.CSR.Head, autodiff.Tape.Head) instead of the whole region.
//
// The order does not move a bit. A row of the adjacency holds the entries
// Subgraph.build gives that node — self loop, out-edges, in-edges, values from
// global degrees — in that order, and a sparse product sums a row in entry
// order; only the column numbers differ.
//
// A Region is scratch like Union: Build overwrites it in place and keeps every
// array, and what it hands out is valid until the next Build.
type Region struct {
	// Nodes maps region row -> global node id.
	Nodes []int
	// Frontier[d], d = 0..depth, is the number of rows within d hops of the
	// wanted ones inside the region. Rows beyond Frontier[depth] — farther out,
	// or not connected to a wanted row at all — follow in ascending order and
	// belong to no prefix: nothing wanted reads them within depth hops.
	Frontier []int

	g        *Dynamic
	sqrt     []float64 // per row: the root of the global degree + self loop
	norm     tensor.CSR
	fwd, rev tensor.CSR
	rw       *tensor.Diffusion // nil until Diffusion is asked for
	typed    []*tensor.CSR
	ntypes   int // how many of typed are built for this layout
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
	r.sqrt = r.sqrt[:0]
	for _, v := range r.Nodes {
		r.sqrt = append(r.sqrt, math.Sqrt(g.normDeg(v)))
	}
	resetCSR(&r.norm, n, n)
	for i, v := range r.Nodes {
		r.norm.ColIdx = append(r.norm.ColIdx, i)
		r.norm.Val = append(r.norm.Val, 1/g.normDeg(v))
		for _, es := range [2][]Edge{g.out[v], g.in[v]} {
			for _, e := range es {
				if j := int(loc[e.To]) - 1; j >= 0 {
					r.norm.ColIdx = append(r.norm.ColIdx, j)
					r.norm.Val = append(r.norm.Val, 1/(r.sqrt[i]*r.sqrt[j]))
				}
			}
		}
		r.norm.RowPtr = append(r.norm.RowPtr, len(r.norm.ColIdx))
	}
	r.unlocate(loc)
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

// NormAdj returns the region's symmetric GCN-normalized adjacency, entry for
// entry Induced(nodes).NormAdj() with rows and columns renumbered.
func (r *Region) NormAdj() *tensor.CSR { return &r.norm }

// Features returns the N()×FeatDim attribute matrix of the region's rows.
func (r *Region) Features() *tensor.Matrix { return r.g.featureRows(r.Nodes) }

// Diffusion returns the region's random-walk adjacencies on its active rows
// (see tensor.Diffusion), built on first use: of the models only DCRNN reads
// them.
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
		appendWalkRow(&r.fwd, loc, g.out[v])
		appendWalkRow(&r.rev, loc, g.in[v])
		active.row(r.fwd.RowNNZ(i)+r.rev.RowNNZ(i) > 0)
	}
	r.unlocate(loc)
	rw := g.newDiffusion(&r.fwd, &r.rev, active)
	r.rw = &rw
	return r.rw
}

// appendWalkRow appends a node's random-walk row over its edges es — the ones
// that stay inside the region, each weighted by the node's global degree in
// that direction.
func appendWalkRow(c *tensor.CSR, loc []int32, es []Edge) {
	for _, e := range es {
		if j := int(loc[e.To]) - 1; j >= 0 {
			c.ColIdx = append(c.ColIdx, j)
			c.Val = append(c.Val, 1/float64(len(es)))
		}
	}
	c.RowPtr = append(c.RowPtr, len(c.ColIdx))
}

// TypedAdj returns the region's per-type normalized adjacencies, entry for
// entry Induced(nodes).TypedAdj(ntypes) renumbered; built on first use
// (RTGCN alone reads them).
func (r *Region) TypedAdj(ntypes int) []*tensor.CSR {
	if r.ntypes == ntypes {
		return r.typed[:ntypes]
	}
	for len(r.typed) < ntypes {
		r.typed = append(r.typed, new(tensor.CSR))
	}
	typed, n := r.typed[:ntypes], len(r.Nodes)
	for _, c := range typed {
		resetCSR(c, n, n)
	}
	loc := r.locate()
	for i, v := range r.Nodes {
		for _, es := range [2][]Edge{r.g.out[v], r.g.in[v]} {
			for _, e := range es {
				if j := int(loc[e.To]) - 1; j >= 0 && int(e.Type) < ntypes {
					c := typed[e.Type]
					c.ColIdx = append(c.ColIdx, j)
					c.Val = append(c.Val, 1/(r.sqrt[i]*r.sqrt[j]))
				}
			}
		}
		for _, c := range typed {
			c.RowPtr = append(c.RowPtr, len(c.ColIdx))
		}
	}
	r.unlocate(loc)
	r.ntypes = ntypes
	return typed
}
