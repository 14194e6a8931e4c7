package core

import (
	"math/rand"
	"testing"

	"streamgnn/internal/graph"
	"streamgnn/internal/query"
	"streamgnn/internal/sampling"
)

func mkAnchorQuery(anchor int) query.EventQuery {
	return query.EventQuery{
		Name:    "anchored",
		Anchors: []int{anchor},
		Delta:   1,
		Labeler: func(_ *graph.Dynamic, a, s int) (float64, bool) { return 0, true },
	}
}

// Regression: on a graph dominated by isolated (window-expired) nodes, the
// KDE seed window must neither collapse onto a single node nor sample
// isolated nodes while connected ones exist.
func TestKDESamplerResistsIsolationCollapse(t *testing.T) {
	g := graph.NewDynamic(1)
	const connected = 10
	const isolated = 200
	for i := 0; i < connected+isolated; i++ {
		g.AddNode(nil)
	}
	for i := 0; i < connected; i++ {
		g.AddUndirectedEdge(i, (i+1)%connected, 0, 0)
	}
	chips := sampling.NewChips(g.N(), 5)
	for v := connected; v < g.N(); v++ {
		chips.SetActive(v, false)
	}
	cfg := DefaultConfig()
	s := NewKDESampler(g, chips, cfg, rand.New(rand.NewSource(1)))
	for i := 0; i < 500; i++ {
		v := s.SampleNode()
		if v >= connected {
			t.Fatalf("sampled isolated node %d", v)
		}
	}
	// The window must hold more than one distinct seed.
	distinct := map[int]bool{}
	for _, v := range s.Seeds() {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("seed window collapsed: %v", s.Seeds())
	}
}

// Regression: duplicate samples must not crowd the seed window.
func TestKDESamplerSeedsStayDiverse(t *testing.T) {
	g := graph.NewDynamic(1)
	// Star graph: every walk gravitates to the hub.
	hub := g.AddNode(nil)
	for i := 0; i < 30; i++ {
		v := g.AddNode(nil)
		g.AddUndirectedEdge(hub, v, 0, 0)
	}
	chips := sampling.NewChips(g.N(), 5)
	cfg := DefaultConfig()
	cfg.SeedKeep = 1 // never teleport voluntarily; dedup must still protect
	s := NewKDESampler(g, chips, cfg, rand.New(rand.NewSource(2)))
	for i := 0; i < 2000; i++ {
		s.SampleNode()
	}
	counts := map[int]int{}
	for _, v := range s.Seeds() {
		counts[v]++
	}
	for v, c := range counts {
		if c > 1 {
			t.Fatalf("seed %d appears %d times in the window", v, c)
		}
	}
}

// Anchors of the workload stay sampleable even when isolated.
func TestAnchorsRemainActive(t *testing.T) {
	g, tr, cfg := testSetup(t, 10, Weighted)
	// Isolate node 9 by expiring everything, then re-add edges elsewhere.
	g.ExpireEdgesBefore(100)
	for i := 0; i < 8; i++ {
		g.AddUndirectedEdge(i, (i+1)%8, 0, 200)
	}
	// Register a workload anchored at the isolated node 9.
	q9 := mkAnchorQuery(9)
	tr.Workload.AddQuery(&q9)
	a := NewAdaptiveLearner(tr, cfg, Weighted, rand.New(rand.NewSource(3)))
	a.Step(nil)
	if a.Chips.EffectiveWeight(9) == 0 {
		t.Fatal("isolated anchor was deactivated")
	}
	// A non-anchor isolated node is deactivated.
	if a.Chips.EffectiveWeight(8) > 0 {
		t.Fatal("isolated non-anchor stayed active")
	}
}

// Inactive nodes never appear as weighted samples.
func TestAdaptiveSamplingSkipsInactive(t *testing.T) {
	g, tr, cfg := testSetup(t, 12, Weighted)
	g.ExpireEdgesBefore(100)
	for i := 0; i < 6; i++ {
		g.AddUndirectedEdge(i, (i+1)%6, 0, 200)
	}
	a := NewAdaptiveLearner(tr, cfg, Weighted, rand.New(rand.NewSource(4)))
	a.refreshActivity()
	for i := 0; i < 200; i++ {
		if v := a.sampler.SampleNode(); v >= 6 {
			t.Fatalf("sampled expired node %d", v)
		}
	}
}
