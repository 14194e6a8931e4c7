package graph

import (
	"math"

	"streamgnn/internal/tensor"
)

// Typed adjacency support for relation-aware (RGCN-style) convolutions over
// the heterogeneous graph streams of the paper's Example 1: one normalized
// adjacency per edge type, so a layer can learn a separate transform per
// relation (lab event vs. prescription vs. diagnosis, ...).

// NumEdgeTypes returns 1 + the largest edge type present (0 for an edgeless
// graph).
func (g *Dynamic) NumEdgeTypes() int {
	maxType := -1
	for v := range g.out {
		for _, e := range g.out[v] {
			if int(e.Type) > maxType {
				maxType = int(e.Type)
			}
		}
	}
	return maxType + 1
}

// TypedAdj returns one symmetric-normalized adjacency per edge type
// (ntypes matrices; edges with types >= ntypes are ignored). Unlike
// NormAdj, no self loop is included — relation-aware layers add an explicit
// self-transform instead. Normalization uses each node's total degree
// across all types, so the per-type matrices sum to (roughly) the untyped
// normalized adjacency. Degrees and edge types are topology, so the result is
// cached per EdgeVersion like the other adjacencies: attribute and label
// writes leave it standing.
func (g *Dynamic) TypedAdj(ntypes int) []*tensor.CSR {
	if g.typedVersion == g.edgeVersion && g.typedNTypes == ntypes && g.typedAdj != nil {
		return g.typedAdj
	}
	n := g.N()
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = float64(g.Degree(v)) + 1
	}
	per := make([][][]tensor.CSREntry, ntypes)
	for t := range per {
		per[t] = make([][]tensor.CSREntry, n)
	}
	add := func(v int, e Edge) {
		if int(e.Type) >= ntypes {
			return
		}
		per[e.Type][v] = append(per[e.Type][v],
			tensor.CSREntry{Col: e.To, Val: 1 / (math.Sqrt(deg[v]) * math.Sqrt(deg[e.To]))})
	}
	for v := 0; v < n; v++ {
		for _, e := range g.out[v] {
			add(v, e)
		}
		for _, e := range g.in[v] {
			add(v, e)
		}
	}
	out := make([]*tensor.CSR, ntypes)
	for t := range out {
		out[t] = tensor.NewCSR(n, n, per[t])
	}
	g.typedAdj = out
	g.typedVersion = g.edgeVersion
	g.typedNTypes = ntypes
	return out
}

// TypedAdj returns the subgraph's per-type normalized adjacencies, using
// global degrees like the untyped case so interior propagation matches the
// full graph exactly. A Subgraph is immutable, so they are built once (per
// ntypes) and shared; the lock is for partitions cached across worker
// goroutines.
func (s *Subgraph) TypedAdj(ntypes int) []*tensor.CSR {
	s.typedMu.Lock()
	defer s.typedMu.Unlock()
	if s.typed == nil || len(s.typed) != ntypes {
		s.typed = s.buildTyped(ntypes)
	}
	return s.typed
}

func (s *Subgraph) buildTyped(ntypes int) []*tensor.CSR {
	n := len(s.Nodes)
	deg := make([]float64, n)
	for li, v := range s.Nodes {
		deg[li] = float64(s.g.Degree(v)) + 1
	}
	per := make([][][]tensor.CSREntry, ntypes)
	for t := range per {
		per[t] = make([][]tensor.CSREntry, n)
	}
	for li, v := range s.Nodes {
		dv := math.Sqrt(deg[li])
		add := func(e Edge) {
			if int(e.Type) >= ntypes {
				return
			}
			lj := s.LocalID(e.To)
			if lj < 0 {
				return
			}
			per[e.Type][li] = append(per[e.Type][li],
				tensor.CSREntry{Col: lj, Val: 1 / (dv * math.Sqrt(deg[lj]))})
		}
		for _, e := range s.g.out[v] {
			add(e)
		}
		for _, e := range s.g.in[v] {
			add(e)
		}
	}
	out := make([]*tensor.CSR, ntypes)
	for t := range out {
		out[t] = tensor.NewCSR(n, n, per[t])
	}
	return out
}
