package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamgnn/internal/tensor"
)

// denseAdj is the oracle: the adjacencies of a whole graph as dense n×n
// matrices, written out from their definitions with global degrees.
type denseAdj struct {
	norm, fwd, rev [][]float64
	typed          [][][]float64
}

func newDenseAdj(g *Dynamic, ntypes int) denseAdj {
	n := g.N()
	zeros := func() [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	d := denseAdj{norm: zeros(), fwd: zeros(), rev: zeros()}
	for t := 0; t < ntypes; t++ {
		d.typed = append(d.typed, zeros())
	}
	deg := func(v int) float64 { return float64(len(g.OutEdges(v))+len(g.InEdges(v))) + 1 }
	for i := 0; i < n; i++ {
		d.norm[i][i] = 1 / deg(i)
		// Every stored edge at i, out then in, is one term of row i; parallel
		// edges and self-loops are terms like any other.
		for dir, es := range [2][]Edge{g.OutEdges(i), g.InEdges(i)} {
			for _, e := range es {
				j := e.To
				a := 1 / (math.Sqrt(deg(i)) * math.Sqrt(deg(j)))
				d.norm[i][j] += a
				if int(e.Type) < ntypes {
					d.typed[e.Type][i][j] += a
				}
				if dir == 0 {
					d.fwd[i][j] += 1 / float64(len(g.OutEdges(i)))
				} else {
					d.rev[i][j] += 1 / float64(len(g.InEdges(i)))
				}
			}
		}
	}
	return d
}

// mustMatchOracle checks that got, whose rows and columns stand for nodes, is
// want restricted to those nodes, to the last bit.
func mustMatchOracle(t *testing.T, what string, got *tensor.CSR, nodes []int, want [][]float64) {
	t.Helper()
	if got.NRows != len(nodes) || got.NCols != len(nodes) {
		t.Fatalf("%s is %dx%d over %d nodes", what, got.NRows, got.NCols, len(nodes))
	}
	d := got.Dense()
	for i, u := range nodes {
		for j, v := range nodes {
			if math.Float64bits(d.At(i, j)) != math.Float64bits(want[u][v]) {
				t.Fatalf("%s: entry (%d,%d) is %v, the definition gives %v", what, u, v, d.At(i, j), want[u][v])
			}
		}
	}
}

// multigraph draws n nodes, the last share of them isolated, with random
// typed edges among the rest: self-loops and parallel edges included.
func multigraph(rng *rand.Rand, n int, isolated float64) *Dynamic {
	g := NewDynamic(1)
	for i := 0; i < n; i++ {
		g.AddNode(nil)
	}
	if m := int(float64(n) * (1 - isolated)); m > 0 {
		for e := 0; e < 2*m; e++ {
			u := rng.Intn(m)
			switch v := rng.Intn(m); rng.Intn(6) {
			case 0:
				g.AddEdge(u, u, EdgeType(rng.Intn(4)), int64(e))
			case 1:
				g.AddEdge(u, v, 0, int64(e))
				g.AddEdge(u, v, EdgeType(rng.Intn(4)), int64(e))
			default:
				g.AddEdge(u, v, EdgeType(rng.Intn(4)), int64(e))
			}
		}
	}
	return g
}

// Every view of a node set S — the ascending induced subgraph, a hop-ordered
// region, the whole snapshot restricted to S — carries the
// definition's normalized, forward-walk, reverse-walk and per-type matrices to
// the last bit. One builder writes all of them, so they cannot disagree with
// each other; this is the check that the builder is not wrong everywhere.
func TestAdjacenciesMatchDenseOracle(t *testing.T) {
	const ntypes = 3 // one type short of what multigraph draws: the fourth is ignored
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := multigraph(rng, 2+rng.Intn(30), []float64{0, 0.3, 0.9}[rng.Intn(3)])
		g.ExpireEdgesBefore(int64(rng.Intn(8))) // roots follow an expiry too
		want := newDenseAdj(g, ntypes)
		check := func(view string, nodes []int, norm, fwd, rev *tensor.CSR, typed []*tensor.CSR) {
			t.Helper()
			mustMatchOracle(t, view+": normalized adjacency", norm, nodes, want.norm)
			mustMatchOracle(t, view+": forward walk", fwd, nodes, want.fwd)
			mustMatchOracle(t, view+": reverse walk", rev, nodes, want.rev)
			for ty, c := range typed {
				mustMatchOracle(t, view+": typed adjacency", c, nodes, want.typed[ty])
			}
		}

		all := make([]int, g.N())
		for i := range all {
			all[i] = i
		}
		check("snapshot", all, g.NormAdj(), g.RWAdj(false), g.RWAdj(true), g.TypedAdj(ntypes))

		var s, wanted []int
		for _, v := range all {
			if rng.Intn(2) == 0 {
				s = append(s, v)
				if rng.Intn(3) == 0 {
					wanted = append(wanted, v)
				}
			}
		}
		sub := g.Induced(s, -1)
		check("induced subgraph", sub.Nodes, sub.NormAdj(), sub.RWAdj(false), sub.RWAdj(true), sub.TypedAdj(ntypes))
		var r Region
		r.Build(g, s, wanted, rng.Intn(3))
		rw := r.Diffusion()
		check("hop-ordered region", r.Nodes, r.NormAdj(), &r.fwd, &r.rev, r.TypedAdj(ntypes))
		checkDiffusion(t, "hop-ordered region", rw, &r.fwd, &r.rev)
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
