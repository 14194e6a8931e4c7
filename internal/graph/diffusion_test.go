package graph

import (
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

// sparseDirected is n nodes with random directed edges among the first
// n·(1−isolated) of them; with few edges some of those end up out-only, in-only
// or untouched as well.
func sparseDirected(rng *rand.Rand, n int, isolated float64) *Dynamic {
	g := NewDynamic(2)
	for i := 0; i < n; i++ {
		g.AddNode([]float64{rng.Float64(), rng.Float64()})
	}
	if m := int(float64(n) * (1 - isolated)); m > 1 {
		for e := 0; e < m; e++ {
			g.AddEdge(rng.Intn(m), rng.Intn(m), 0, int64(e))
		}
	}
	return g
}

// checkDiffusion compares d against the n×n matrices it restricts: Active is
// exactly the rows with an entry in either, the In pair is those rows, the AA
// pair those rows and columns, and nothing outside the block is non-zero.
func checkDiffusion(t *testing.T, what string, d *tensor.Diffusion, fwd, rev *tensor.CSR) {
	t.Helper()
	n := fwd.NRows
	var want []int
	for r := 0; r < n; r++ {
		if fwd.RowNNZ(r)+rev.RowNNZ(r) > 0 {
			want = append(want, r)
		}
	}
	if d.Rows() != n || d.ActiveRows() != len(want) {
		t.Fatalf("%s: block is %d of %d rows, want %d of %d", what, d.ActiveRows(), d.Rows(), len(want), n)
	}
	if len(want) == n {
		if d.FwdIn != fwd || d.FwdAA != fwd || d.RevIn != rev || d.RevAA != rev {
			t.Fatalf("%s: every row active, but the block is not the matrices themselves", what)
		}
		return
	}
	for i, r := range want {
		if d.Active[i] != r {
			t.Fatalf("%s: Active = %v, want %v", what, d.Active, want)
		}
	}
	for _, c := range []struct {
		name     string
		full     *tensor.CSR
		in, aa   *tensor.CSR
		nonzeros int
	}{{"fwd", fwd, d.FwdIn, d.FwdAA, fwd.NNZ()}, {"rev", rev, d.RevIn, d.RevAA, rev.NNZ()}} {
		full, in, aa := c.full.Dense(), c.in.Dense(), c.aa.Dense()
		if c.in.NNZ() != c.nonzeros || c.aa.NNZ() != c.nonzeros {
			t.Fatalf("%s %s: restriction lost entries", what, c.name)
		}
		for i, r := range want {
			for col := 0; col < n; col++ {
				if in.At(i, col) != full.At(r, col) {
					t.Fatalf("%s %s: In row %d differs from row %d", what, c.name, i, r)
				}
			}
			for j, col := range want {
				if aa.At(i, j) != full.At(r, col) {
					t.Fatalf("%s %s: AA (%d,%d) differs from (%d,%d)", what, c.name, i, j, r, col)
				}
			}
		}
	}
}

func TestDiffusionIsTheActiveBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, isolated := range []float64{0, 0.5, 0.97, 1} {
		for trial := 0; trial < 5; trial++ {
			g := sparseDirected(rng, 40, isolated)
			checkDiffusion(t, "full graph", g.Diffusion(), g.RWAdj(false), g.RWAdj(true))
			var nodes []int
			for v := 0; v < g.N(); v++ {
				if rng.Intn(2) == 0 {
					nodes = append(nodes, v)
				}
			}
			s := g.Induced(nodes, -1)
			checkDiffusion(t, "induced subgraph", s.Diffusion(), s.RWAdj(false), s.RWAdj(true))
		}
	}
	ring := chain(6)
	checkDiffusion(t, "chain", ring.Diffusion(), ring.RWAdj(false), ring.RWAdj(true))
}

// The cached adjacencies depend on topology alone: feature and label writes
// keep them, every kind of topology change replaces them.
func TestAdjCachesKeyOnTopology(t *testing.T) {
	g := chain(4)
	type caches struct {
		norm, fwd, rev *tensor.CSR
		rw             *tensor.Diffusion
	}
	read := func() caches { return caches{g.NormAdj(), g.RWAdj(false), g.RWAdj(true), g.Diffusion()} }
	c0 := read()
	g.SetFeature(1, []float64{3})
	g.SetLabel(2, 1)
	if read() != c0 {
		t.Fatal("a feature or label write rebuilt the cached adjacencies")
	}
	for name, mutate := range map[string]func(){
		"AddEdge":       func() { g.AddEdge(0, 3, 0, 9) },
		"AddNode":       func() { g.AddNode(nil) },
		"window expiry": func() { g.ExpireEdgesBefore(1) },
	} {
		before := read()
		mutate()
		after := read()
		if after.norm == before.norm || after.fwd == before.fwd || after.rev == before.rev || after.rw == before.rw {
			t.Fatalf("%s kept a cached adjacency", name)
		}
		if after.norm.NRows != g.N() || after.rw.Rows() != g.N() {
			t.Fatalf("%s: rebuilt adjacency has the wrong size", name)
		}
	}
}
