package kde

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/graph"
	"streamgnn/internal/kde/kdetest"
)

func TestGraphKDEDensityIsDistribution(t *testing.T) {
	g := chainGraph(9)
	d, err := GraphKDEDensity(g, []int{4}, []float64{1}, 0.5, 64, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range d {
		if p < 0 {
			t.Fatal("negative density")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("density sums to %v", sum)
	}
}

func TestGraphKDEDensityDecaysFromSeed(t *testing.T) {
	g := chainGraph(11)
	d, err := GraphKDEDensity(g, []int{5}, []float64{1}, 0.5, 64, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	prof := kdetest.HopProfile(g, 5, d, 4)
	for h := 0; h+1 < len(prof); h++ {
		if prof[h] <= prof[h+1] {
			t.Fatalf("density not decaying: %v", prof)
		}
	}
}

func TestGraphKDEDensitySmallerQSpreadsFarther(t *testing.T) {
	g := chainGraph(15)
	at := func(q float64, v int) float64 {
		d, err := GraphKDEDensity(g, []int{7}, []float64{1}, q, 128, 1e-14)
		if err != nil {
			t.Fatal(err)
		}
		return d[v]
	}
	// Mass 4 hops away should be larger with a smaller stop probability.
	if at(0.2, 11) <= at(0.8, 11) {
		t.Fatal("smaller q should carry more mass to distant nodes")
	}
}

func TestGraphKDEDensityWeightedSeeds(t *testing.T) {
	g := chainGraph(9)
	d, err := GraphKDEDensity(g, []int{1, 7}, []float64{9, 1}, 0.6, 64, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if d[1] <= d[7] {
		t.Fatalf("heavier seed should dominate: %v vs %v", d[1], d[7])
	}
}

func TestGraphKDEDensityIsolatedSeed(t *testing.T) {
	g := graph.NewDynamic(1)
	g.AddNode(nil)
	g.AddNode(nil) // isolated pair
	d, err := GraphKDEDensity(g, []int{0}, []float64{1}, 0.3, 16, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-1) > 1e-12 || d[1] != 0 {
		t.Fatalf("isolated seed density wrong: %v", d)
	}
}

func TestGraphKDEDensityMatchesMonteCarlo(t *testing.T) {
	g := chainGraph(7)
	seeds := []int{1, 5}
	weights := []float64{2, 1}
	const q = 0.5
	d, err := GraphKDEDensity(g, seeds, weights, q, 128, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate Algorithm 2's walk with the same fixed seeds.
	rng := rand.New(rand.NewSource(8))
	emp := kdetest.EmpiricalDensity(g.N(), 300000, func() int {
		s := seeds[0]
		if rng.Float64()*3 >= 2 {
			s = seeds[1]
		}
		for rng.Float64() >= q {
			deg := g.Degree(s)
			if deg == 0 {
				break
			}
			i := rng.Intn(deg)
			if i < len(g.OutEdges(s)) {
				s = g.OutEdges(s)[i].To
			} else {
				s = g.InEdges(s)[i-len(g.OutEdges(s))].To
			}
		}
		return s
	})
	for v := range d {
		if math.Abs(d[v]-emp[v]) > 0.01 {
			t.Fatalf("node %d: closed form %v vs Monte Carlo %v", v, d[v], emp[v])
		}
	}
}

func TestGraphKDEDensityValidation(t *testing.T) {
	g := chainGraph(3)
	cases := []struct {
		seeds   []int
		weights []float64
		q       float64
	}{
		{nil, nil, 0.5},
		{[]int{0}, []float64{1, 2}, 0.5},
		{[]int{0}, []float64{1}, 0},
		{[]int{0}, []float64{1}, 1.5},
		{[]int{9}, []float64{1}, 0.5},
		{[]int{0}, []float64{-1}, 0.5},
		{[]int{0, 1}, []float64{0, 0}, 0.5},
	}
	for i, c := range cases {
		if _, err := GraphKDEDensity(g, c.seeds, c.weights, c.q, 8, 1e-9); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}
