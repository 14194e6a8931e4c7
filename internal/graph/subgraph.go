package graph

import (
	"fmt"
	"sort"
	"sync"

	"streamgnn/internal/tensor"
)

// Subgraph is the induced subgraph on a node subset in ascending order — a
// Region with nothing wanted. It is the unit of a node's training partition:
// forward and backward passes during weighted training run on a Subgraph
// instead of the full snapshot, which is where the paper's O(d^L) vs O(n)
// resource saving comes from.
//
// A Subgraph is built once and never laid out again. A training round owns
// the partitions it extracts; the whole snapshot's Subgraph can be read by
// both halves of a step, so the lock is for the region's two lazy builds.
// Features and LabeledEdges read through to the live graph.
type Subgraph struct {
	// Nodes maps local index -> global node id (ascending, unique).
	Nodes []int
	// Center is the local index of the partition's center node, or -1.
	Center int

	mu sync.Mutex // guards r's walk and typed builds
	r  Region
}

// Induced returns the subgraph induced by the given global node ids
// (deduplicated, ascending). center, if non-negative, must be among nodes.
func (g *Dynamic) Induced(nodes []int, center int) *Subgraph {
	s := &Subgraph{Center: -1}
	s.r.Build(g, nodes, nil, 0)
	s.Nodes = s.r.Nodes
	if center >= 0 {
		if s.Center = s.LocalID(center); s.Center < 0 {
			panic(fmt.Sprintf("graph: center %d not in induced node set", center))
		}
	}
	return s
}

// Partition returns node v's training partition: the induced subgraph of
// v's L-hop neighborhood with v as center (Section III-C), extracted fresh
// on every call.
func (g *Dynamic) Partition(v, L int) *Subgraph {
	return g.Induced(g.Ball([]int{v}, L), v)
}

// N returns the number of nodes in the subgraph.
func (s *Subgraph) N() int { return len(s.Nodes) }

// LocalID returns the local index of global node v, or -1. Nodes is sorted,
// so this is a binary search — no per-subgraph map is kept.
func (s *Subgraph) LocalID(v int) int {
	li := sort.SearchInts(s.Nodes, v)
	if li < len(s.Nodes) && s.Nodes[li] == v {
		return li
	}
	return -1
}

// NormAdj returns the subgraph's symmetric GCN-normalized adjacency.
func (s *Subgraph) NormAdj() *tensor.CSR { return s.r.NormAdj() }

// Diffusion returns the subgraph's two random-walk adjacencies restricted to
// the rows with an edge inside the subgraph (see tensor.Diffusion).
func (s *Subgraph) Diffusion() *tensor.Diffusion {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Diffusion()
}

// RWAdj returns the subgraph's row-normalized random-walk adjacency over all
// its rows; reverse selects the in-edge direction.
func (s *Subgraph) RWAdj(reverse bool) *tensor.CSR {
	s.Diffusion()
	if reverse {
		return &s.r.rev
	}
	return &s.r.fwd
}

// TypedAdj returns the subgraph's per-type normalized adjacencies.
func (s *Subgraph) TypedAdj(ntypes int) []*tensor.CSR {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.TypedAdj(ntypes)
}

// Features returns the |S|×FeatDim attribute matrix of the subgraph nodes.
func (s *Subgraph) Features() *tensor.Matrix { return s.r.Features() }

// LabeledEdges returns local (src, dst) pairs and labels for labeled edges
// fully inside the subgraph.
func (s *Subgraph) LabeledEdges() (src, dst []int, labels []float64) {
	for li, v := range s.Nodes {
		for _, e := range s.r.g.out[v] {
			if !e.HasLabel() {
				continue
			}
			if lj := s.LocalID(e.To); lj >= 0 {
				src = append(src, li)
				dst = append(dst, lj)
				labels = append(labels, e.Label)
			}
		}
	}
	return src, dst, labels
}
