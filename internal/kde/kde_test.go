package kde

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/graph"
	"streamgnn/internal/kde/kdetest"
)

func chainGraph(n int) *graph.Dynamic {
	g := graph.NewDynamic(1)
	for i := 0; i < n; i++ {
		g.AddNode(nil)
	}
	for i := 0; i+1 < n; i++ {
		g.AddUndirectedEdge(i, i+1, 0, 0)
	}
	return g
}

func TestEmpiricalDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := kdetest.EmpiricalDensity(3, 90000, func() int {
		r := rng.Float64()
		switch {
		case r < 0.5:
			return 0
		case r < 0.8:
			return 1
		default:
			return 2
		}
	})
	wants := []float64{0.5, 0.3, 0.2}
	for i, w := range wants {
		if math.Abs(p[i]-w) > 0.02 {
			t.Fatalf("density[%d] = %v, want %v", i, p[i], w)
		}
	}
}

func TestBFSDistancesAndHopProfile(t *testing.T) {
	g := chainGraph(5)
	d := kdetest.BFSDistances(g, 2)
	want := []int{2, 1, 0, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist = %v", d)
		}
	}
	p := []float64{0.05, 0.15, 0.6, 0.15, 0.05}
	prof := kdetest.HopProfile(g, 2, p, 3)
	if prof[0] != 0.6 || prof[1] != 0.15 || prof[2] != 0.05 {
		t.Fatalf("HopProfile = %v", prof)
	}
	if !math.IsNaN(prof[3]) {
		t.Fatal("empty ring should be NaN")
	}
}

func TestEdgeSmoothness(t *testing.T) {
	g := chainGraph(3)
	smooth := kdetest.EdgeSmoothness(g, []float64{0.33, 0.34, 0.33})
	spiky := kdetest.EdgeSmoothness(g, []float64{0.0, 1.0, 0.0})
	if smooth >= spiky {
		t.Fatalf("smoothness ordering wrong: %v vs %v", smooth, spiky)
	}
	empty := graph.NewDynamic(1)
	empty.AddNode(nil)
	if kdetest.EdgeSmoothness(empty, []float64{1}) != 0 {
		t.Fatal("edgeless graph should have 0 smoothness")
	}
}

func TestTotalVariation(t *testing.T) {
	if tv := kdetest.TotalVariation([]float64{1, 0}, []float64{0, 1}); math.Abs(tv-1) > 1e-12 {
		t.Fatalf("TV = %v, want 1", tv)
	}
	if tv := kdetest.TotalVariation([]float64{0.5, 0.5}, []float64{0.5, 0.5}); tv != 0 {
		t.Fatalf("TV = %v, want 0", tv)
	}
}
