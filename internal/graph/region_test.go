package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streamgnn/internal/tensor"
)

// hopsInside is the reference distance: BFS from want over the edges both of
// whose ends are in nodes, -1 for a node it never reaches.
func hopsInside(g *Dynamic, nodes, want []int) map[int]int {
	dist := make(map[int]int, len(nodes))
	for _, v := range nodes {
		dist[v] = -1
	}
	frontier := append([]int(nil), want...)
	for _, v := range want {
		dist[v] = 0
	}
	for d := 1; len(frontier) > 0; d++ {
		var next []int
		for _, u := range frontier {
			for _, es := range [][]Edge{g.OutEdges(u), g.InEdges(u)} {
				for _, e := range es {
					if old, in := dist[e.To]; in && old < 0 {
						dist[e.To] = d
						next = append(next, e.To)
					}
				}
			}
		}
		frontier = next
	}
	return dist
}

// checkRegion builds r over (nodes, want, depth) and checks the order, the
// frontiers and the closure the leading blocks rest on. What the adjacencies
// hold is TestAdjacenciesMatchDenseOracle's.
func checkRegion(t *testing.T, r *Region, g *Dynamic, nodes, want []int, depth int) {
	t.Helper()
	r.Build(g, nodes, want, depth)
	sub := g.Induced(nodes, -1)
	n := sub.N()
	if r.N() != n {
		t.Fatalf("region has %d rows, the induced subgraph %d", r.N(), n)
	}
	sorted := append([]int(nil), r.Nodes...)
	sort.Ints(sorted)
	if !reflect.DeepEqual(sorted, sub.Nodes) {
		t.Fatalf("region rows %v are not a reordering of %v", r.Nodes, sub.Nodes)
	}
	if !reflect.DeepEqual(append([]int{}, r.Nodes[:len(want)]...), append([]int{}, want...)) {
		t.Fatalf("region starts %v, want the wanted rows %v", r.Nodes[:len(want)], want)
	}

	// Frontiers: one per depth, monotone, each layer ascending and exactly the
	// nodes at that distance; what is farther or unreachable follows, ascending.
	if len(r.Frontier) != depth+1 || r.Frontier[0] != len(want) {
		t.Fatalf("Frontier = %v for %d wanted rows at depth %d", r.Frontier, len(want), depth)
	}
	dist := hopsInside(g, sub.Nodes, want)
	lo, covered := 0, true
	for d := 0; d <= depth+1; d++ {
		hi := n
		if d <= depth {
			hi = r.Frontier[d]
		}
		if hi < lo || hi > n {
			t.Fatalf("Frontier = %v is not monotone within %d rows", r.Frontier, n)
		}
		layer := r.Nodes[lo:hi]
		if d > 0 && !sort.IntsAreSorted(layer) {
			t.Fatalf("layer %d = %v is not ascending", d, layer)
		}
		for _, v := range layer {
			if far := dist[v] < 0 || dist[v] > depth; d <= depth && dist[v] != d || d > depth && !far {
				t.Fatalf("node %d at distance %d sits in layer %d (depth %d)", v, dist[v], d, depth)
			}
			covered = covered && d <= depth
		}
		lo = hi
	}
	if covered != (r.Frontier[depth] == n) {
		t.Fatalf("Frontier = %v over %d rows, every node within depth: %v", r.Frontier, n, covered)
	}

	// The closure the leading blocks rest on.
	for d := 0; d < depth; d++ {
		for _, c := range append([]*tensor.CSR{r.NormAdj()}, r.TypedAdj(3)...) {
			for _, j := range c.ColIdx[:c.RowPtr[r.Frontier[d]]] {
				if j >= r.Frontier[d+1] {
					t.Fatalf("a row within %d hops names column %d, beyond Frontier[%d] = %d", d, j, d+1, r.Frontier[d+1])
				}
			}
		}
	}
	for i, v := range r.Nodes {
		if !reflect.DeepEqual(r.Features().Row(i), g.Feature(v)) {
			t.Fatalf("feature row %d is not node %d's", i, v)
		}
	}
}

func TestRegionHopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var r Region
	for trial := 0; trial < 60; trial++ {
		// A third of the nodes isolated, the rest in a few loose components.
		g := typedDirected(rng, 20+rng.Intn(40), 0.35)
		all := make([]int, g.N())
		for i := range all {
			all[i] = i
		}
		depth := trial % 4
		want := all[:0:0]
		for _, v := range all {
			if rng.Intn(6) == 0 {
				want = append(want, v)
			}
		}
		// The engine's shape: everything within depth hops; then a ball one
		// hop short with strays the wanted rows never reach; then every node.
		checkRegion(t, &r, g, g.Ball(want, depth), want, depth)
		short := g.Ball(want, max(depth-1, 0))
		for _, v := range all {
			if rng.Intn(5) == 0 {
				short = append(short, v)
			}
		}
		checkRegion(t, &r, g, short, want, depth) // unsorted, with repeats
		checkRegion(t, &r, g, all, want, depth)
		checkRegion(t, &r, g, all, all, depth)
		checkRegion(t, &r, g, all, nil, depth)
	}
}

// A Region reused for a smaller build is the Region a fresh one builds: no
// row, entry or frontier of the larger layout survives.
func TestRegionRebuildLeavesNothingStale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := typedDirected(rng, 80, 0.2)
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	var used Region
	used.Build(g, all, all[:30], 3)
	used.TypedAdj(3)
	used.Diffusion()
	small, want := g.Ball([]int{4, 9}, 2), []int{4, 9}
	used.Build(g, small, want, 1)
	var fresh Region
	fresh.Build(g, small, want, 1)
	same := func(what string, a, b *tensor.CSR) {
		t.Helper()
		if a.NRows != b.NRows || a.NCols != b.NCols || !reflect.DeepEqual(a.RowPtr, b.RowPtr) ||
			!reflect.DeepEqual(a.ColIdx, b.ColIdx) || !reflect.DeepEqual(a.Val, b.Val) {
			t.Fatalf("%s of the reused region differs from a fresh build", what)
		}
	}
	if !reflect.DeepEqual(used.Nodes, fresh.Nodes) || !reflect.DeepEqual(used.Frontier, fresh.Frontier) {
		t.Fatalf("reused region is %v / %v, fresh %v / %v", used.Nodes, used.Frontier, fresh.Nodes, fresh.Frontier)
	}
	same("normalized adjacency", used.NormAdj(), fresh.NormAdj())
	for ty, c := range used.TypedAdj(2) {
		same("typed adjacency", c, fresh.TypedAdj(2)[ty])
	}
	ua, fa := used.Diffusion(), fresh.Diffusion()
	if !reflect.DeepEqual(ua.Active, fa.Active) {
		t.Fatalf("active rows %v, fresh %v", ua.Active, fa.Active)
	}
	same("forward walk", ua.FwdIn, fa.FwdIn)
	same("reverse walk, active block", ua.RevAA, fa.RevAA)
}

func TestRegionRejectsWantOutsideNodes(t *testing.T) {
	g := typedDirected(rand.New(rand.NewSource(7)), 10, 0)
	for _, want := range [][]int{{5}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Build accepted wanted rows %v over nodes {1, 2}", want)
				}
			}()
			new(Region).Build(g, []int{1, 2}, want, 1)
		}()
	}
}
