package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamgnn/internal/tensor"
)

func TestInducedBasics(t *testing.T) {
	g := chain(6)
	s := g.Induced([]int{4, 2, 3, 2}, 3) // dedup, sorted
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Nodes[0] != 2 || s.Nodes[1] != 3 || s.Nodes[2] != 4 {
		t.Fatalf("Nodes = %v", s.Nodes)
	}
	if s.LocalID(3) != 1 || s.LocalID(5) != -1 {
		t.Fatal("LocalID wrong")
	}
	if s.Center != 1 {
		t.Fatalf("Center = %d", s.Center)
	}
}

func TestPartitionIsKHopBall(t *testing.T) {
	g := chain(9)
	s := g.Partition(4, 2)
	want := g.Ball([]int{4}, 2)
	if s.N() != len(want) {
		t.Fatalf("partition size %d want %d", s.N(), len(want))
	}
	for i, v := range want {
		if s.Nodes[i] != v {
			t.Fatalf("partition nodes %v want %v", s.Nodes, want)
		}
	}
	if s.Nodes[s.Center] != 4 {
		t.Fatal("center not preserved")
	}
}

func TestSubgraphAdjacencyOnlyInside(t *testing.T) {
	g := chain(6)
	s := g.Induced([]int{2, 3}, -1)
	d := s.NormAdj().Dense()
	// 2-3 are connected; entries off the 2x2 block don't exist by shape.
	if d.Rows != 2 || d.Cols != 2 {
		t.Fatalf("shape %dx%d", d.Rows, d.Cols)
	}
	if d.At(0, 1) <= 0 || d.At(1, 0) <= 0 {
		t.Fatal("internal edge missing from subgraph adjacency")
	}
}

func TestSubgraphFeaturesMatchGlobal(t *testing.T) {
	g := chain(5)
	s := g.Induced([]int{1, 3}, -1)
	f := s.Features()
	if f.At(0, 0) != 1 || f.At(1, 0) != 3 {
		t.Fatalf("features %v", f)
	}
}

func TestSubgraphLabeledEdges(t *testing.T) {
	g := NewDynamic(1)
	for i := 0; i < 4; i++ {
		g.AddNode(0, nil)
	}
	g.AddLabeledEdge(0, 1, 0, 0, 1)
	g.AddLabeledEdge(1, 3, 0, 0, 0) // 3 outside subgraph
	g.AddEdge(1, 2, 0, 0)           // unlabeled
	s := g.Induced([]int{0, 1, 2}, -1)
	src, dst, labels := s.LabeledEdges()
	if len(src) != 1 || src[0] != 0 || dst[0] != 1 || labels[0] != 1 {
		t.Fatalf("labeled edges %v %v %v", src, dst, labels)
	}
}

func TestInducedCenterMustBeMember(t *testing.T) {
	g := chain(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Induced([]int{0, 1}, 2)
}

// Property: subgraph normalization uses global degrees, so on the full node
// set the subgraph adjacency equals the graph's own.
func TestSubgraphOfWholeGraphMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := NewDynamic(1)
		all := make([]int, n)
		for i := 0; i < n; i++ {
			all[i] = g.AddNode(0, nil)
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 0, 0)
		}
		s := g.Induced(all, -1)
		return s.NormAdj().Dense().AllClose(g.NormAdj().Dense(), 1e-12) &&
			s.RWAdj(false).Dense().AllClose(g.RWAdj(false).Dense(), 1e-12) &&
			s.RWAdj(true).Dense().AllClose(g.RWAdj(true).Dense(), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the center of an L-hop partition receives exactly the same
// L-step propagated signal on the subgraph as on the full graph — the
// correctness foundation of node-level training partitions (Section III-C).
func TestPartitionCenterPropagationExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(15)
		g := NewDynamic(1)
		for i := 0; i < n; i++ {
			g.AddNode(0, []float64{rng.NormFloat64()})
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 0, 0)
		}
		v := rng.Intn(n)
		const L = 2
		sub := g.Partition(v, L)
		// Propagate features L times with the symmetric normalized
		// adjacency on both representations.
		full := g.Features()
		for i := 0; i < L; i++ {
			full = tensor.SpMM(g.NormAdj(), full)
		}
		local := sub.Features()
		for i := 0; i < L; i++ {
			local = tensor.SpMM(sub.NormAdj(), local)
		}
		want := full.At(v, 0)
		got := local.At(sub.Center, 0)
		return math.Abs(want-got) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
