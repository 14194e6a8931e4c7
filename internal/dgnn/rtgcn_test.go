package dgnn

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

// typedRing builds a ring alternating between two edge types.
func typedRing(n, featDim int) *graph.Dynamic {
	g := graph.NewDynamic(featDim)
	for i := 0; i < n; i++ {
		f := make([]float64, featDim)
		f[0] = float64(i%3) - 1
		g.AddNode(f)
	}
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n, graph.EdgeType(i%2), int64(i))
	}
	return g
}

func TestRTGCNRelations(t *testing.T) {
	g := typedRing(8, 3)
	rng := rand.New(rand.NewSource(1))
	m := NewRTGCN(rng, 3, 4, 2)
	if m.Relations() != 2 {
		t.Fatalf("Relations = %d", m.Relations())
	}
	m.BeginStep(0)
	tp := autodiff.NewTape()
	out := m.Forward(tp, FullView(g))
	loss := mse(tp, out, tensor.New(8, 4))
	tp.Backward(loss)
	for i, p := range m.Params() {
		if p.Grad == nil {
			t.Fatalf("param %d detached (both relations present in graph)", i)
		}
	}
}

func TestRTGCNDistinguishesRelations(t *testing.T) {
	// Two graphs with identical topology but different edge types must
	// produce different embeddings whenever the encoder is alive (a plain
	// GCN could not tell them apart). A ReLU can zero the encoder for an
	// unlucky seed, so several seeds are tried.
	g1 := graph.NewDynamic(2)
	g2 := graph.NewDynamic(2)
	for i := 0; i < 4; i++ {
		g1.AddNode([]float64{1, -0.5})
		g2.AddNode([]float64{1, -0.5})
	}
	for i := 0; i < 4; i++ {
		g1.AddUndirectedEdge(i, (i+1)%4, 0, 0)
		g2.AddUndirectedEdge(i, (i+1)%4, 1, 0)
	}
	alive, distinguished := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewRTGCN(rng, 2, 4, 2)
		m.BeginStep(0)
		tp := autodiff.NewTape()
		v1 := FullView(g1)
		v1.NoCommit = true
		out1 := m.Forward(tp, v1).Value.Clone()
		tp = autodiff.NewTape()
		v2 := FullView(g2)
		v2.NoCommit = true
		out2 := m.Forward(tp, v2).Value
		if out1.MaxAbs() == 0 && out2.MaxAbs() == 0 {
			continue // dead ReLU for this seed
		}
		alive++
		if !out1.AllClose(out2, 1e-9) {
			distinguished++
		}
	}
	if alive == 0 {
		t.Fatal("every seed produced a dead encoder")
	}
	if distinguished != alive {
		t.Fatalf("RTGCN ignored edge types on %d/%d alive seeds", alive-distinguished, alive)
	}
}

func TestRTGCNFallsBackWithoutTypedAdj(t *testing.T) {
	g := typedRing(6, 3)
	rng := rand.New(rand.NewSource(3))
	m := NewRTGCN(rng, 3, 4, 2)
	m.BeginStep(0)
	v := FullView(g)
	v.TypedFn = nil // view without typed support
	v.NoCommit = true
	tp := autodiff.NewTape()
	out := m.Forward(tp, v)
	if out.Value.Rows != 6 || out.Value.Cols != 4 {
		t.Fatal("fallback forward wrong shape")
	}
}

func TestRTGCNRelationBudgetClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewRTGCN(rng, 2, 3, 0)
	if m.Relations() != 1 {
		t.Fatalf("relations not clamped: %d", m.Relations())
	}
}

// TypedAdj per-type matrices must cover exactly the typed edges, with the
// same normalization scale as the untyped adjacency.
func TestTypedAdjPartition(t *testing.T) {
	g := typedRing(8, 2)
	typed := g.TypedAdj(2)
	if len(typed) != 2 {
		t.Fatalf("typed count %d", len(typed))
	}
	// Every off-diagonal entry of NormAdj appears in exactly one type.
	total := typed[0].NNZ() + typed[1].NNZ()
	// NormAdj has self loops (8) plus 4 entries per node (2 out, 2 in).
	if total != g.NormAdj().NNZ()-8 {
		t.Fatalf("typed entries %d, want %d", total, g.NormAdj().NNZ()-8)
	}
	// Subgraph typed adjacency matches the full one on interior nodes.
	sub := g.Partition(3, 2)
	st := sub.TypedAdj(2)
	li := sub.Center
	full := typed[1].Dense()
	sb := st[1].Dense()
	for lj, vj := range sub.Nodes {
		if d := sb.At(li, lj) - full.At(3, vj); d > 1e-12 || d < -1e-12 {
			t.Fatalf("subgraph typed entry differs at (%d,%d)", li, lj)
		}
	}
}

// Relations returns the edge-type budget.
func (m *RTGCNModel) Relations() int { return m.relations }
