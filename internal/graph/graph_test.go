package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamgnn/internal/tensor"
)

// chain builds 0-1-2-...-n-1 as undirected edges.
func chain(n int) *Dynamic {
	g := NewDynamic(2)
	for i := 0; i < n; i++ {
		g.AddNode([]float64{float64(i), 1})
	}
	for i := 0; i+1 < n; i++ {
		g.AddUndirectedEdge(i, i+1, 0, int64(i))
	}
	return g
}

func TestAddNodeAndFeatures(t *testing.T) {
	g := NewDynamic(3)
	a := g.AddNode([]float64{1, 2, 3})
	b := g.AddNode([]float64{4}) // padded
	if a != 0 || b != 1 || g.N() != 2 {
		t.Fatalf("ids/N wrong: %d %d %d", a, b, g.N())
	}
	f := g.Features()
	if f.At(0, 2) != 3 || f.At(1, 0) != 4 || f.At(1, 1) != 0 {
		t.Fatalf("features wrong: %v", f)
	}
	g.SetFeature(b, []float64{9, 9, 9, 99}) // truncated
	if g.Feature(b)[2] != 9 {
		t.Fatal("SetFeature failed")
	}
}

func TestLabels(t *testing.T) {
	g := NewDynamic(1)
	v := g.AddNode(nil)
	if _, ok := g.Label(v); ok {
		t.Fatal("new node should be unlabeled")
	}
	g.SetLabel(v, 0.5)
	if y, ok := g.Label(v); !ok || y != 0.5 {
		t.Fatalf("label = %v %v", y, ok)
	}
}

func TestEdgesAndDegree(t *testing.T) {
	g := NewDynamic(1)
	a := g.AddNode(nil)
	b := g.AddNode(nil)
	c := g.AddNode(nil)
	g.AddEdge(a, b, 1, 10)
	g.AddEdge(c, a, 2, 20)
	if len(g.OutEdges(a)) != 1 || g.OutEdges(a)[0].To != b {
		t.Fatal("out edges wrong")
	}
	if len(g.InEdges(a)) != 1 || g.InEdges(a)[0].To != c {
		t.Fatal("in edges wrong")
	}
	if g.Degree(a) != 2 || g.Degree(b) != 1 {
		t.Fatal("degree wrong")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

func TestEdgeLabels(t *testing.T) {
	g := NewDynamic(1)
	a := g.AddNode(nil)
	b := g.AddNode(nil)
	g.AddLabeledEdge(a, b, 0, 0, 1.0)
	g.AddEdge(a, b, 0, 1)
	if !g.OutEdges(a)[0].HasLabel() || g.OutEdges(a)[1].HasLabel() {
		t.Fatal("edge label flags wrong")
	}
}

func TestUpdatedSet(t *testing.T) {
	g := NewDynamic(1)
	a := g.AddNode(nil)
	b := g.AddNode(nil)
	g.ResetUpdated()
	if len(g.Updated()) != 0 {
		t.Fatal("update set not cleared")
	}
	g.AddEdge(a, b, 0, 0)
	got := g.Updated()
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Updated = %v", got)
	}
	g.ResetUpdated()
	g.SetLabel(b, 1)
	if got := g.Updated(); len(got) != 1 || got[0] != b {
		t.Fatalf("Updated after SetLabel = %v", got)
	}
}

func TestExpireEdges(t *testing.T) {
	g := chain(4) // edge times 0,1,2
	g.ExpireEdgesBefore(2)
	// Only edge 2-3 (time 2) remains, in both directions.
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges after expiry = %d", g.NumEdges())
	}
	if g.Degree(0) != 0 || g.Degree(2) != 2 {
		t.Fatal("expiry left wrong edges")
	}
}

func TestNormAdjRowSumsAndSymmetry(t *testing.T) {
	g := chain(5)
	adj := g.NormAdj()
	d := adj.Dense()
	// Symmetric normalization of a symmetric graph must be symmetric.
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if math.Abs(d.At(i, j)-d.At(j, i)) > 1e-12 {
				t.Fatalf("NormAdj not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Every diagonal entry positive (self loops).
	for i := 0; i < 5; i++ {
		if d.At(i, i) <= 0 {
			t.Fatal("missing self loop")
		}
	}
}

func TestRWAdjRowStochastic(t *testing.T) {
	g := NewDynamic(1)
	for i := 0; i < 4; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(0, 2, 0, 0)
	g.AddEdge(3, 0, 0, 0)
	fwd := g.RWAdj(false).Dense()
	for r := 0; r < 4; r++ {
		var sum float64
		for c := 0; c < 4; c++ {
			sum += fwd.At(r, c)
		}
		wantSum := 0.0
		if len(g.OutEdges(r)) > 0 {
			wantSum = 1.0
		}
		if math.Abs(sum-wantSum) > 1e-12 {
			t.Fatalf("row %d of forward RW adj sums to %v, want %v", r, sum, wantSum)
		}
	}
	rev := g.RWAdj(true).Dense()
	if rev.At(0, 3) != 1 {
		t.Fatalf("reverse RW adj wrong: %v", rev)
	}
}

func TestAdjCacheInvalidation(t *testing.T) {
	g := chain(3)
	a1 := g.NormAdj()
	if g.NormAdj() != a1 {
		t.Fatal("cache should return the same CSR for unchanged graph")
	}
	g.AddUndirectedEdge(0, 2, 0, 99)
	a2 := g.NormAdj()
	if a2 == a1 {
		t.Fatal("cache not invalidated after mutation")
	}
	if a2.NNZ() <= a1.NNZ() {
		t.Fatal("new adjacency should have more entries")
	}
}

func TestKHopBallOnChain(t *testing.T) {
	g := chain(7)
	cases := []struct {
		v, L int
		want []int
	}{
		{3, 0, []int{3}},
		{3, 1, []int{2, 3, 4}},
		{3, 2, []int{1, 2, 3, 4, 5}},
		{0, 2, []int{0, 1, 2}},
		{6, 3, []int{3, 4, 5, 6}},
	}
	for _, c := range cases {
		got := g.Ball([]int{c.v}, c.L)
		if len(got) != len(c.want) {
			t.Fatalf("Ball({%d},%d) = %v, want %v", c.v, c.L, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Ball({%d},%d) = %v, want %v", c.v, c.L, got, c.want)
			}
		}
	}
}

func TestKHopBallUsesBothDirections(t *testing.T) {
	g := NewDynamic(1)
	a := g.AddNode(nil)
	b := g.AddNode(nil)
	g.AddEdge(b, a, 0, 0) // only incoming at a
	ball := g.Ball([]int{a}, 1)
	if len(ball) != 2 {
		t.Fatalf("ball should include in-neighbor: %v", ball)
	}
}

// Property: for random graphs the L-hop ball is exactly the set of nodes
// with BFS distance <= L.
func TestKHopBallMatchesBFSDistances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := NewDynamic(1)
		for i := 0; i < n; i++ {
			g.AddNode(nil)
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 0, 0)
		}
		v := rng.Intn(n)
		L := rng.Intn(4)
		// Reference BFS over the undirected view.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[v] = 0
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.OutEdges(u) {
				if dist[e.To] < 0 {
					dist[e.To] = dist[u] + 1
					queue = append(queue, e.To)
				}
			}
			for _, e := range g.InEdges(u) {
				if dist[e.To] < 0 {
					dist[e.To] = dist[u] + 1
					queue = append(queue, e.To)
				}
			}
		}
		want := map[int]bool{}
		for u, d := range dist {
			if d >= 0 && d <= L {
				want[u] = true
			}
		}
		got := g.Ball([]int{v}, L)
		if len(got) != len(want) {
			return false
		}
		for _, u := range got {
			if !want[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadNode(t *testing.T) {
	g := NewDynamic(1)
	g.AddNode(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(0, 5, 0, 0)
}

func TestTypedAdjCacheAndCoverage(t *testing.T) {
	g := NewDynamic(1)
	for i := 0; i < 4; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 2, 1, 0)
	g.AddEdge(2, 3, 5, 0) // beyond the requested budget: ignored
	typed := g.TypedAdj(2)
	if len(typed) != 2 {
		t.Fatalf("typed = %d", len(typed))
	}
	// Each directed edge contributes symmetric (out+in) entries.
	if typed[0].NNZ() != 2 || typed[1].NNZ() != 2 {
		t.Fatalf("nnz = %d/%d", typed[0].NNZ(), typed[1].NNZ())
	}
	// Cache: same slice until mutation or different budget.
	if got := g.TypedAdj(2); &got[0] != &typed[0] && got[0] != typed[0] {
		t.Fatal("typed adjacency not cached")
	}
	g.AddEdge(3, 0, 0, 1)
	if got := g.TypedAdj(2); got[0].NNZ() == typed[0].NNZ() {
		t.Fatal("cache not invalidated after mutation")
	}
}

// RWAdj returns the row-normalized random-walk adjacency. reverse selects
// the in-edge direction.
func (g *Dynamic) RWAdj(reverse bool) *tensor.CSR { return g.snapshot().RWAdj(reverse) }

// RWAdj returns the subgraph's row-normalized random-walk adjacency over all
// its rows; reverse selects the in-edge direction.
func (s *Subgraph) RWAdj(reverse bool) *tensor.CSR {
	s.Diffusion()
	if reverse {
		return &s.r.rev
	}
	return &s.r.fwd
}
