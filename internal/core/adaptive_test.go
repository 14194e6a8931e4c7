package core

import (
	"math/rand"
	"testing"
)

// TestIncrementalActivityMatchesFullScan mutates the graph through several
// steps and asserts the incrementally maintained active set always equals
// what a from-scratch scan of the snapshot would produce.
func TestIncrementalActivityMatchesFullScan(t *testing.T) {
	g, tr, _ := testSetup(t, 10, Weighted)
	a := NewAdaptiveLearner(tr, DefaultConfig(), Weighted, rand.New(rand.NewSource(3)))
	check := func(when string) {
		t.Helper()
		a.refreshActivity()
		anyActive := false
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) > 0 {
				anyActive = true
			}
		}
		for v := 0; v < g.N(); v++ {
			want := g.Degree(v) > 0 || !anyActive
			if got := a.Chips.EffectiveWeight(v) > 0; got != want {
				t.Fatalf("%s: node %d active=%v want %v", when, v, got, want)
			}
		}
	}
	check("initial")
	g.AddNode([]float64{1, 0, 1}) // isolated node 10
	check("after isolated add")
	g.AddUndirectedEdge(10, 3, 0, 100)
	check("after connecting")
	g.ExpireEdgesBefore(101) // everything but the new edge expires
	check("after mass expiry")
	g.ExpireEdgesBefore(200) // fully edgeless: degenerate fallback
	check("edgeless fallback")
	g.AddUndirectedEdge(0, 1, 0, 300) // leave the fallback again
	check("after recovery")
}
