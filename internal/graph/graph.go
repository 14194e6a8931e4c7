// Package graph implements the dynamic heterogeneous graph model of the
// paper's Section II: typed nodes carrying attribute vectors, typed
// timestamped edges, snapshot views with cached (normalized) adjacency
// matrices, L-hop induced subgraphs for node-level training partitions, and
// tracking of the update set U used by Algorithm 1's GetSampleNode.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"streamgnn/internal/shard"
	"streamgnn/internal/tensor"
)

// NodeType identifies the entity type of a node (patient, transaction, ...).
type NodeType uint8

// EdgeType identifies the relation type of an edge (lab event, flow, ...).
type EdgeType uint8

// Edge is one stored directed edge.
type Edge struct {
	To   int
	Type EdgeType
	Time int64
	// Label is an optional edge label used as a self-supervision target
	// (e.g. post sentiment in the Reddit workload). NaN means unlabeled.
	Label float64
}

// HasLabel reports whether the edge carries a self-supervision label.
func (e Edge) HasLabel() bool { return !math.IsNaN(e.Label) }

// Dynamic is a mutable graph snapshot. It is the state of the graph stream
// "as of now": the stream layer applies events to it between training steps.
//
// Dynamic is not safe for concurrent mutation; the engine serializes stream
// application and training.
type Dynamic struct {
	featDim int
	ntype   []NodeType
	feat    []float64 // n × featDim, row-major
	label   []float64 // node labels; NaN = unlabeled

	out [][]Edge
	in  [][]Edge

	updated map[int]struct{}

	// actDirty accumulates nodes whose incident edges or attributes changed
	// since the last TakeActivityDirty. Unlike updated (the algorithmic set
	// U, which window expiry deliberately does not feed), actDirty also
	// records expiry-driven degree changes, so activity refreshes can be
	// incremental.
	actDirty map[int]struct{}

	// fwdDirty accumulates forward-inference dirty nodes between TakeDirty
	// calls (see dirty.go); nil until EnableDirtyTracking.
	fwdDirty map[int]struct{}

	// sh is the node-space partition (see sharding.go); nil until
	// AttachSharding.
	sh *shard.Sharding

	// root[v] is the square root of v's normalization degree (see setRoot),
	// kept current by the three mutations that change a degree.
	root []float64

	// edgeVersion increases only on topology mutations (node adds, edge
	// inserts, window expiry) — not on feature or label writes. The cached
	// adjacencies key on it, so feature-churn-heavy streams never rebuild them.
	edgeVersion int64
	// full is the whole snapshot as an induced subgraph — the carrier of the
	// normalized, random-walk and typed adjacencies — built at fullVersion,
	// under fullMu.
	fullMu      sync.Mutex
	full        *Subgraph
	fullVersion int64
	walkVersion int64
	walkAdj     *tensor.CSR
}

// NewDynamic returns an empty dynamic graph whose nodes carry featDim
// attributes.
func NewDynamic(featDim int) *Dynamic {
	if featDim <= 0 {
		panic(fmt.Sprintf("graph: feature dimension must be positive, got %d", featDim))
	}
	return &Dynamic{
		featDim:  featDim,
		updated:  make(map[int]struct{}),
		actDirty: make(map[int]struct{}),
	}
}

// N returns the number of nodes.
func (g *Dynamic) N() int { return len(g.ntype) }

// FeatDim returns the per-node attribute dimension.
func (g *Dynamic) FeatDim() int { return g.featDim }

func (g *Dynamic) touch(v int) {
	g.updated[v] = struct{}{}
	g.actDirty[v] = struct{}{}
}

// markFwdDirty records v as forward-inference dirty (see dirty.go). Only
// mutations that change what Forward computes — features, incident edges,
// degrees — call it; label-only writes (delayed supervision) do not, so a
// step whose sole activity is truth reveal stays a quiet step.
func (g *Dynamic) markFwdDirty(v int) {
	if g.fwdDirty != nil {
		g.fwdDirty[v] = struct{}{}
	}
}

// AddNode appends a node of type t with the given attribute vector (padded
// or truncated to FeatDim) and returns its id. New nodes start unlabeled.
func (g *Dynamic) AddNode(t NodeType, feat []float64) int {
	id := len(g.ntype)
	g.edgeVersion++
	g.ntype = append(g.ntype, t)
	row := make([]float64, g.featDim)
	copy(row, feat)
	g.feat = append(g.feat, row...)
	g.label = append(g.label, math.NaN())
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.root = append(g.root, 0)
	g.setRoot(id)
	g.touch(id)
	g.markFwdDirty(id)
	return id
}

// Type returns node v's type.
func (g *Dynamic) Type(v int) NodeType { return g.ntype[v] }

// AddEdge inserts a directed edge u→v of type et at time ts with no label.
func (g *Dynamic) AddEdge(u, v int, et EdgeType, ts int64) {
	g.AddLabeledEdge(u, v, et, ts, math.NaN())
}

// AddLabeledEdge inserts a directed edge carrying a self-supervision label.
func (g *Dynamic) AddLabeledEdge(u, v int, et EdgeType, ts int64, label float64) {
	g.checkNode(u)
	g.checkNode(v)
	g.edgeVersion++
	g.out[u] = append(g.out[u], Edge{To: v, Type: et, Time: ts, Label: label})
	g.in[v] = append(g.in[v], Edge{To: u, Type: et, Time: ts, Label: label})
	g.setRoot(u)
	g.setRoot(v)
	g.touch(u)
	g.touch(v)
	g.markFwdDirty(u)
	g.markFwdDirty(v)
}

// AddUndirectedEdge inserts edges in both directions.
func (g *Dynamic) AddUndirectedEdge(u, v int, et EdgeType, ts int64) {
	g.AddEdge(u, v, et, ts)
	g.AddEdge(v, u, et, ts)
}

func (g *Dynamic) checkNode(v int) {
	if v < 0 || v >= len(g.ntype) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, len(g.ntype)))
	}
}

// SetFeature replaces node v's attribute vector.
func (g *Dynamic) SetFeature(v int, feat []float64) {
	g.checkNode(v)
	row := g.feat[v*g.featDim : (v+1)*g.featDim]
	for i := range row {
		if i < len(feat) {
			row[i] = feat[i]
		} else {
			row[i] = 0
		}
	}
	g.touch(v)
	g.markFwdDirty(v)
}

// Feature returns a view of node v's attribute vector.
func (g *Dynamic) Feature(v int) []float64 {
	g.checkNode(v)
	return g.feat[v*g.featDim : (v+1)*g.featDim]
}

// SetLabel attaches a self-supervision label to node v.
func (g *Dynamic) SetLabel(v int, y float64) {
	g.checkNode(v)
	g.label[v] = y
	g.touch(v)
}

// Label returns node v's label and whether one is set.
func (g *Dynamic) Label(v int) (float64, bool) {
	g.checkNode(v)
	y := g.label[v]
	return y, !math.IsNaN(y)
}

// OutEdges returns a view of v's outgoing edges.
func (g *Dynamic) OutEdges(v int) []Edge { g.checkNode(v); return g.out[v] }

// InEdges returns a view of v's incoming edges (Edge.To is the source).
func (g *Dynamic) InEdges(v int) []Edge { g.checkNode(v); return g.in[v] }

// Degree returns the total (in+out) degree of v.
func (g *Dynamic) Degree(v int) int { g.checkNode(v); return len(g.out[v]) + len(g.in[v]) }

// NumEdges returns the number of directed edges in the graph.
func (g *Dynamic) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// ExpireEdgesBefore drops every edge with Time < ts, implementing the
// sliding-window view of the stream. Nodes are kept. Expiry does not feed
// the update set U (Algorithm 1 reacts to new data, not to data aging out),
// but it does mark affected nodes activity-dirty and forward-dirty.
func (g *Dynamic) ExpireEdgesBefore(ts int64) {
	changed := false
	filter := func(es []Edge) ([]Edge, bool) {
		k := 0
		for _, e := range es {
			if e.Time >= ts {
				es[k] = e
				k++
			}
		}
		return es[:k], k != len(es)
	}
	for v := range g.out {
		var co, ci bool
		g.out[v], co = filter(g.out[v])
		g.in[v], ci = filter(g.in[v])
		if co || ci {
			changed = true
			g.setRoot(v)
			g.actDirty[v] = struct{}{}
			g.markFwdDirty(v)
		}
	}
	if changed {
		g.edgeVersion++
	}
}

// Updated returns the set of nodes touched (added, re-attributed, relabeled,
// or incident to a new edge) since the last ResetUpdated, in ascending order.
// This is the set U in Algorithm 1.
func (g *Dynamic) Updated() []int {
	ids := make([]int, 0, len(g.updated))
	for v := range g.updated {
		ids = append(ids, v)
	}
	sort.Ints(ids)
	return ids
}

// ResetUpdated clears the update set (called once per training step).
func (g *Dynamic) ResetUpdated() {
	g.updated = make(map[int]struct{})
}

// TakeActivityDirty drains and returns, in ascending order, the nodes whose
// incident edges or attributes changed since the previous call (including
// window expiry). AdaptiveLearner.refreshActivity uses it to update sampling
// eligibility incrementally instead of rescanning all n nodes per step.
func (g *Dynamic) TakeActivityDirty() []int {
	if len(g.actDirty) == 0 {
		return nil
	}
	ids := make([]int, 0, len(g.actDirty))
	for v := range g.actDirty {
		ids = append(ids, v)
	}
	g.actDirty = make(map[int]struct{})
	sort.Ints(ids)
	return ids
}

// Features returns the n×FeatDim attribute matrix without copying it: a
// read-only view of the graph's own store, current until the graph next
// changes (between steps). Nothing may write into it or recycle it.
func (g *Dynamic) Features() *tensor.Matrix {
	n := g.N() * g.featDim
	return tensor.FromSlice(g.N(), g.featDim, g.feat[:n:n])
}

// featureRows returns the attribute rows of nodes, in their order (copy):
// the Features of every view that is not the whole graph.
func (g *Dynamic) featureRows(nodes []int) *tensor.Matrix {
	m := tensor.NewUninit(len(nodes), g.featDim)
	for i, v := range nodes {
		copy(m.Row(i), g.Feature(v))
	}
	return m
}

// normDeg returns the GCN normalization degree of v: in+out degree plus the
// self loop. It is a GLOBAL degree wherever it is read: an induced subgraph's
// message weights then match the full-graph convolution exactly, so the
// embedding of the center of an L-hop partition computed on the subgraph
// equals its full-graph embedding — edges to nodes outside the subgraph simply
// contribute nothing (they are outside the center's receptive field anyway).
func (g *Dynamic) normDeg(v int) float64 {
	return float64(len(g.out[v])+len(g.in[v])) + 1 // +1 self loop
}

// setRoot records the root of v's normalization degree after a mutation
// changed it. This is the one place the root is taken: every normalized entry
// of every view — snapshot, partition, region — multiplies two
// elements of g.root, so the views agree to the last bit by construction.
func (g *Dynamic) setRoot(v int) { g.root[v] = math.Sqrt(g.normDeg(v)) }

// Live returns, ascending, the nodes with a live in- or out-edge together with
// the members of extra (any order, repeats allowed): the rows a step's forward
// advances. The set is closed under Ball — an edgeless node has no neighbours
// — so every row in it sees its whole receptive field inside it.
func (g *Dynamic) Live(extra []int) []int {
	mark := getScratch(len(g.ntype))
	for _, v := range extra {
		g.checkNode(v)
		mark[v] = 1
	}
	ids := make([]int, 0, len(extra))
	for v, r := range g.root {
		if r > 1 || mark[v] != 0 {
			ids = append(ids, v)
			mark[v] = 0
		}
	}
	putScratch(mark)
	return ids
}

// snapshot returns the whole graph as an induced subgraph, rebuilt — into
// fresh arrays, so what an earlier version handed out stays as it was — when
// the topology moved. The lazy build is locked: a step's inference forward and
// a full-graph training pass beside it both ask for the snapshot.
func (g *Dynamic) snapshot() *Subgraph {
	g.fullMu.Lock()
	defer g.fullMu.Unlock()
	if g.full == nil || g.fullVersion != g.edgeVersion {
		all := make([]int, g.N())
		for i := range all {
			all[i] = i
		}
		g.full = g.Induced(all, -1)
		g.fullVersion = g.edgeVersion
	}
	return g.full
}

// activeRows collects the active set of a pair of transition matrices — the
// rows, ascending, with an entry in either — while the pass that builds the
// pair visits its rows in order. Until the first inactive row the set is
// 0..next-1 and nothing is allocated: list stays nil, which is how a pair
// whose every row is active ends.
type activeRows struct {
	next int
	list []int
}

func (a *activeRows) row(active bool) {
	switch {
	case active && a.list != nil:
		a.list = append(a.list, a.next)
	case !active && a.list == nil:
		a.list = make([]int, a.next)
		for i := range a.list {
			a.list[i] = i
		}
	}
	a.next++
}

// newDiffusion restricts the transition matrices fwd and rev — g's own or an
// induced subgraph's — to their active rows, sharing their storage: an
// inactive row has no entries, so the entries of the active rows are all of
// ColIdx and Val in order, and a restricted row's extent is the original's.
// The position scratch is sized to g like every other, so the pool keeps one
// size.
func (g *Dynamic) newDiffusion(fwd, rev *tensor.CSR, active activeRows) tensor.Diffusion {
	rows := active.list
	if rows == nil {
		return tensor.Diffusion{FwdIn: fwd, RevIn: rev, FwdAA: fwd, RevAA: rev}
	}
	n, k := fwd.NRows, len(rows)
	pos := getScratch(g.N())
	for i, v := range rows {
		pos[v] = int32(i)
	}
	// One allocation each for the four matrices, the two row-pointer arrays
	// and the two renumbered column arrays: a training partition around an
	// isolated node comes through here once per cold extraction.
	cs := new([4]tensor.CSR)
	ptrs := make([]int, 2*(k+1))
	cols := make([]int, fwd.NNZ()+rev.NNZ())
	restrict := func(c *tensor.CSR, in, aa *tensor.CSR, ptr, col []int) {
		for i, v := range rows {
			ptr[i] = c.RowPtr[v]
		}
		ptr[k] = c.NNZ()
		for p, j := range c.ColIdx {
			col[p] = int(pos[j])
		}
		*in = tensor.CSR{NRows: k, NCols: n, RowPtr: ptr, ColIdx: c.ColIdx, Val: c.Val}
		*aa = tensor.CSR{NRows: k, NCols: k, RowPtr: ptr, ColIdx: col, Val: c.Val}
	}
	restrict(fwd, &cs[0], &cs[1], ptrs[:k+1], cols[:fwd.NNZ()])
	restrict(rev, &cs[2], &cs[3], ptrs[k+1:], cols[fwd.NNZ():])
	for _, v := range rows {
		pos[v] = 0
	}
	putScratch(pos)
	return tensor.Diffusion{Active: rows, FwdIn: &cs[0], FwdAA: &cs[1], RevIn: &cs[2], RevAA: &cs[3]}
}

// WalkAdj returns the unweighted undirected walk adjacency used by the
// graph-KDE density: row v lists v's out-edge targets then in-edge sources,
// each with unit value, so RowNNZ(v) == Degree(v) and the entry order matches
// iterating OutEdges then InEdges. The CSR is cached per edge version and
// rebuilt into a fresh allocation, so a pointer captured by a serving
// snapshot stays immutable while the graph keeps mutating.
func (g *Dynamic) WalkAdj() *tensor.CSR {
	if g.walkAdj != nil && g.walkVersion == g.edgeVersion && g.walkAdj.NRows == g.N() {
		return g.walkAdj
	}
	// Every edge is an entry of both its endpoints' rows, all of value 1.
	n, nnz := g.N(), 2*g.NumEdges()
	w := &tensor.CSR{NRows: n, NCols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, nnz), Val: make([]float64, nnz)}
	for i := range w.Val {
		w.Val[i] = 1
	}
	for v := 0; v < n; v++ {
		for _, e := range g.out[v] {
			w.ColIdx = append(w.ColIdx, e.To)
		}
		for _, e := range g.in[v] {
			w.ColIdx = append(w.ColIdx, e.To)
		}
		w.RowPtr[v+1] = len(w.ColIdx)
	}
	g.walkAdj = w
	g.walkVersion = g.edgeVersion
	return g.walkAdj
}

// NormAdj returns the symmetric GCN-normalized adjacency
// D^{-1/2}(A+Aᵀ+I)D^{-1/2} of the current snapshot (cached per edge version).
func (g *Dynamic) NormAdj() *tensor.CSR { return g.snapshot().NormAdj() }

// RWAdj returns the row-normalized random-walk adjacency. reverse selects
// the in-edge direction (used by DCRNN's bidirectional diffusion).
func (g *Dynamic) RWAdj(reverse bool) *tensor.CSR { return g.snapshot().RWAdj(reverse) }

// Diffusion returns the two random-walk adjacencies of RWAdj restricted to
// the rows with a live edge (see tensor.Diffusion), built on first use per
// edge version.
func (g *Dynamic) Diffusion() *tensor.Diffusion { return g.snapshot().Diffusion() }
