package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"streamgnn/internal/tensor"
)

// Subgraph is the induced subgraph on a node subset with local (dense)
// indexing. It is the unit of a node's training partition: forward and
// backward passes during weighted training run on a Subgraph instead of the
// full snapshot, which is where the paper's O(d^L) vs O(n) resource saving
// comes from.
//
// A Subgraph is immutable once built (the structural fields below are never
// rewritten), so instances may be cached and shared across goroutines.
// Features, LabeledNodes and LabeledEdges read through to the live graph.
type Subgraph struct {
	// Nodes maps local index -> global node id (ascending, unique).
	Nodes []int
	// Center is the local index of the partition's center node, or -1.
	Center int

	g       *Dynamic
	version int64

	normAdj *tensor.CSR
	rwFwd   *tensor.CSR
	rwRev   *tensor.CSR
	rw      tensor.Diffusion

	typedMu sync.Mutex
	typed   []*tensor.CSR // TypedAdj's result, built on first use
}

// Induced returns the subgraph induced by the given global node ids
// (deduplicated, ascending). center, if non-negative, must be among nodes.
func (g *Dynamic) Induced(nodes []int, center int) *Subgraph {
	s := &Subgraph{g: g, version: g.version, Center: -1}
	owned := append([]int(nil), nodes...)
	if !sortedUnique(owned) {
		sort.Ints(owned)
		owned = dedupSorted(owned)
	}
	for _, v := range owned {
		g.checkNode(v)
	}
	s.Nodes = owned
	if center >= 0 {
		li := s.LocalID(center)
		if li < 0 {
			panic(fmt.Sprintf("graph: center %d not in induced node set", center))
		}
		s.Center = li
	}
	s.build()
	return s
}

// sortedUnique reports whether ids is strictly ascending (the order KHopBall
// already produces, letting Induced skip its sort+dedup pass).
func sortedUnique(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

func dedupSorted(ids []int) []int {
	k := 0
	for i, v := range ids {
		if i == 0 || v != ids[k-1] {
			ids[k] = v
			k++
		}
	}
	return ids[:k]
}

// Partition returns node v's training partition: the induced subgraph of
// v's L-hop neighborhood with v as center (Section III-C). When a partition
// cache is attached (EnablePartitionCache), warm extractions are served from
// it; invalidation is handled by the mutation path (see PartitionCache).
func (g *Dynamic) Partition(v, L int) *Subgraph {
	if g.cache != nil {
		if s := g.cache.get(v, L); s != nil {
			return s
		}
		s := g.Induced(g.KHopBall(v, L), v)
		g.cache.put(v, L, s)
		return s
	}
	return g.Induced(g.KHopBall(v, L), v)
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

// GlobalID returns the global node id at local index li.
func (s *Subgraph) GlobalID(li int) int { return s.Nodes[li] }

// Overlaps reports whether the two subgraphs share any node. Both Nodes
// slices are sorted ascending unique, so this is a two-pointer merge —
// O(|s|+|o|) worst case, and it exits at the first common node. Used by the
// dependency-aware training scheduler to decide whether two partitions'
// receptive fields conflict.
func (s *Subgraph) Overlaps(o *Subgraph) bool {
	a, b := s.Nodes, o.Nodes
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// build assembles the subgraph's normalized adjacencies. Normalization uses
// each node's GLOBAL degree, not its degree inside the subgraph: message
// weights then match the full-graph convolution exactly, so the embedding of
// the center of an L-hop partition computed on the subgraph equals its
// full-graph embedding — edges to nodes outside the subgraph simply
// contribute nothing (they are outside the center's receptive field anyway).
//
// The global->local index map is a pooled scratch slice (value = local index
// + 1, 0 = absent) rather than a per-call map[int]int.
func (s *Subgraph) build() {
	n := len(s.Nodes)
	loc := getScratch(s.g.N())
	for li, v := range s.Nodes {
		loc[v] = int32(li + 1)
	}
	deg := make([]float64, n)
	for li, v := range s.Nodes {
		deg[li] = float64(len(s.g.out[v])+len(s.g.in[v])) + 1 // global degree + self loop
	}
	sym := make([][]tensor.CSREntry, n)
	fwd := make([][]tensor.CSREntry, n)
	rev := make([][]tensor.CSREntry, n)
	var active activeRows
	for li, v := range s.Nodes {
		dv := math.Sqrt(deg[li])
		sym[li] = append(sym[li], tensor.CSREntry{Col: li, Val: 1 / deg[li]})
		outDeg := len(s.g.out[v])
		inDeg := len(s.g.in[v])
		for _, e := range s.g.out[v] {
			if lj := loc[e.To]; lj != 0 {
				j := int(lj - 1)
				sym[li] = append(sym[li], tensor.CSREntry{Col: j, Val: 1 / (dv * math.Sqrt(deg[j]))})
				fwd[li] = append(fwd[li], tensor.CSREntry{Col: j, Val: 1 / float64(max(1, outDeg))})
			}
		}
		for _, e := range s.g.in[v] {
			if lj := loc[e.To]; lj != 0 {
				j := int(lj - 1)
				sym[li] = append(sym[li], tensor.CSREntry{Col: j, Val: 1 / (dv * math.Sqrt(deg[j]))})
				rev[li] = append(rev[li], tensor.CSREntry{Col: j, Val: 1 / float64(max(1, inDeg))})
			}
		}
		active.row(len(fwd[li])+len(rev[li]) > 0)
	}
	s.normAdj = tensor.NewCSR(n, n, sym)
	s.rwFwd = tensor.NewCSR(n, n, fwd)
	s.rwRev = tensor.NewCSR(n, n, rev)
	for _, v := range s.Nodes {
		loc[v] = 0
	}
	putScratch(loc)
	s.rw = s.g.newDiffusion(s.rwFwd, s.rwRev, active)
}

// NormAdj returns the subgraph's symmetric GCN-normalized adjacency.
func (s *Subgraph) NormAdj() *tensor.CSR { return s.normAdj }

// RWAdj returns the subgraph's row-normalized random-walk adjacency.
func (s *Subgraph) RWAdj(reverse bool) *tensor.CSR {
	if reverse {
		return s.rwRev
	}
	return s.rwFwd
}

// Diffusion returns the subgraph's two random-walk adjacencies restricted to
// the rows with an edge inside the subgraph (see tensor.Diffusion).
func (s *Subgraph) Diffusion() *tensor.Diffusion { return &s.rw }

// Features returns the |S|×FeatDim attribute matrix of the subgraph nodes.
func (s *Subgraph) Features() *tensor.Matrix { return s.g.featureRows(s.Nodes) }

// LabeledNodes returns the local indices and labels of labeled nodes.
func (s *Subgraph) LabeledNodes() (idx []int, labels []float64) {
	for li, v := range s.Nodes {
		if y, ok := s.g.Label(v); ok {
			idx = append(idx, li)
			labels = append(labels, y)
		}
	}
	return idx, labels
}

// LabeledEdges returns local (src, dst) pairs and labels for labeled edges
// fully inside the subgraph.
func (s *Subgraph) LabeledEdges() (src, dst []int, labels []float64) {
	for li, v := range s.Nodes {
		for _, e := range s.g.out[v] {
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
