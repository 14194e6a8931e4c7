package graph

import "streamgnn/internal/tensor"

// Typed adjacency support for relation-aware (RGCN-style) convolutions over
// the heterogeneous graph streams of the paper's Example 1: one normalized
// adjacency per edge type, so a layer can learn a separate transform per
// relation (lab event vs. prescription vs. diagnosis, ...).

// TypedAdj returns one symmetric-normalized adjacency per edge type (ntypes
// matrices; see Region.TypedAdj). Degrees and edge types are topology, so the
// result is cached per edge version like the other adjacencies: attribute and
// label writes leave it standing.
func (g *Dynamic) TypedAdj(ntypes int) []*tensor.CSR { return g.snapshot().TypedAdj(ntypes) }
