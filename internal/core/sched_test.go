package core

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/query"
)

// ringsGraph builds k disjoint rings of ringN labeled nodes each — a sparse
// topology whose 2-hop partitions never cross ring boundaries.
func ringsGraph(k, ringN int) *graph.Dynamic {
	g := graph.NewDynamic(3)
	for r := 0; r < k; r++ {
		base := r * ringN
		for i := 0; i < ringN; i++ {
			g.AddNode(0, []float64{float64(i % 2), float64(r % 3), 1})
			g.SetLabel(base+i, float64(i%2))
		}
		for i := 0; i < ringN; i++ {
			g.AddUndirectedEdge(base+i, base+(i+1)%ringN, 0, 0)
		}
	}
	return g
}

// starGraph builds one hub connected to n-1 spokes: every 2-hop partition
// contains the hub, so all training units conflict.
func starGraph(n int) *graph.Dynamic {
	g := graph.NewDynamic(3)
	for i := 0; i < n; i++ {
		g.AddNode(0, []float64{float64(i % 2), 0, 1})
		g.SetLabel(i, float64(i%2))
	}
	for i := 1; i < n; i++ {
		g.AddUndirectedEdge(0, i, 0, 0)
	}
	return g
}

// partitionsOf extracts the L-hop partitions of the given centers.
func partitionsOf(g *graph.Dynamic, centers []int, L int) []*graph.Subgraph {
	subs := make([]*graph.Subgraph, len(centers))
	for i, v := range centers {
		subs[i] = g.Partition(v, L)
	}
	return subs
}

// TestConflictBuildGroupsDisjointRings checks the conflict build on the
// sparse topology: units centered in distinct rings land in distinct groups,
// units sharing a ring share a group, groups come out ordered by minimum
// unit index with ascending unit indices inside, and the grouping is
// reproducible (it depends only on the inputs).
func TestConflictBuildGroupsDisjointRings(t *testing.T) {
	g := ringsGraph(4, 8)
	// Units: ring0, ring1, ring0 again (conflicts with unit 0), ring2, ring3.
	centers := []int{2, 9, 4, 17, 27}
	subs := partitionsOf(g, centers, 2)
	var cs conflictScratch
	offsets, units, numGroups := cs.build(subs, g.N())
	if numGroups != 4 {
		t.Fatalf("numGroups = %d, want 4", numGroups)
	}
	wantGroups := [][]int{{0, 2}, {1}, {3}, {4}}
	for gi, want := range wantGroups {
		got := units[offsets[gi]:offsets[gi+1]]
		if len(got) != len(want) {
			t.Fatalf("group %d = %v, want %v", gi, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group %d = %v, want %v", gi, got, want)
			}
		}
	}
	// Cross-group receptive fields must be pairwise disjoint (the property
	// that makes concurrent apply safe), checked with the exact Overlaps
	// intersection rather than the build's stamps.
	groupOf := make([]int, len(subs))
	for gi := 0; gi < numGroups; gi++ {
		for _, u := range units[offsets[gi]:offsets[gi+1]] {
			groupOf[u] = gi
		}
	}
	for i := range subs {
		for j := i + 1; j < len(subs); j++ {
			overlaps := subs[i].Overlaps(subs[j])
			sameGroup := groupOf[i] == groupOf[j]
			if overlaps && !sameGroup {
				t.Fatalf("units %d and %d overlap but are in groups %d and %d", i, j, groupOf[i], groupOf[j])
			}
		}
	}
	// Rebuild from the same inputs: identical output (worker count and
	// timing never enter the build, so this is the full determinism surface).
	offsets2, units2, numGroups2 := cs.build(subs, g.N())
	if numGroups2 != numGroups {
		t.Fatalf("rebuild numGroups = %d, want %d", numGroups2, numGroups)
	}
	for i := 0; i <= numGroups; i++ {
		if offsets2[i] != offsets[i] {
			t.Fatalf("rebuild offsets diverged at %d", i)
		}
	}
	for i := range units {
		if units2[i] != units[i] {
			t.Fatalf("rebuild units diverged at %d", i)
		}
	}
}

// TestConflictBuildHubCollapse checks the documented degenerate case: on a
// hub-heavy graph every partition contains the hub, so all units collapse
// into a single group (the schedule then degenerates to the serial path).
func TestConflictBuildHubCollapse(t *testing.T) {
	g := starGraph(12)
	subs := partitionsOf(g, []int{1, 4, 7, 10}, 2)
	var cs conflictScratch
	offsets, units, numGroups := cs.build(subs, g.N())
	if numGroups != 1 {
		t.Fatalf("numGroups = %d, want 1 (hub collapse)", numGroups)
	}
	if offsets[1]-offsets[0] != len(subs) {
		t.Fatalf("collapsed group holds %d units, want %d", offsets[1]-offsets[0], len(subs))
	}
	for i, u := range units {
		if u != i {
			t.Fatalf("collapsed group order = %v, want ascending unit indices", units)
		}
	}
}

// TestConflictBuildTransitiveClosure checks that conflicts chain: A∩B and
// B∩C nonempty puts A, B, C in one group even when A∩C is empty.
func TestConflictBuildTransitiveClosure(t *testing.T) {
	// A path graph: partitions of nodes 0, 2, 4 with L=1 are {0,1}, {1,2,3},
	// {3,4,5} — 0 and 4 don't touch, but both touch the middle unit.
	g := graph.NewDynamic(3)
	for i := 0; i < 6; i++ {
		g.AddNode(0, []float64{1, 0, 1})
	}
	for i := 0; i < 5; i++ {
		g.AddUndirectedEdge(i, i+1, 0, 0)
	}
	subs := partitionsOf(g, []int{0, 2, 4}, 1)
	if subs[0].Overlaps(subs[2]) {
		t.Fatal("test topology broken: end partitions should be disjoint")
	}
	var cs conflictScratch
	_, _, numGroups := cs.build(subs, g.N())
	if numGroups != 1 {
		t.Fatalf("numGroups = %d, want 1 (transitive closure through the middle unit)", numGroups)
	}
}

// TestScheduledStepCounters drives full adaptive steps through both
// topologies and checks the observability counters: the sparse stream forms
// more than one group per step, the hub stream collapses every step.
func TestScheduledStepCounters(t *testing.T) {
	newLearner := func(g *graph.Dynamic) *AdaptiveLearner {
		rng := rand.New(rand.NewSource(11))
		cfg := DefaultConfig()
		cfg.DependencySchedule = true
		cfg.Workers = 4
		cfg.PairsPerStep = 3
		g.EnablePartitionCache(PartitionCacheCap)
		m := dgnn.NewTGCN(rng, 3, 4)
		heads := query.NewHeads(rng, 4)
		w := query.NewWorkload(heads)
		opt := m.WrapOptimizer(autodiff.NewAdam(cfg.LR, append(m.Params(), heads.Params()...)))
		return NewAdaptiveLearner(NewTrainer(g, m, w, opt, cfg, rng), cfg, Weighted, rng)
	}

	sparse := newLearner(ringsGraph(12, 8))
	for i := 0; i < 6; i++ {
		sparse.Step(nil)
	}
	if sparse.SchedSteps != 6 || sparse.SchedUnits != 36 {
		t.Fatalf("sparse counters: steps=%d units=%d, want 6/36", sparse.SchedSteps, sparse.SchedUnits)
	}
	if sparse.SchedGroups <= sparse.SchedSteps {
		t.Fatalf("sparse stream formed %d groups over %d steps — expected real parallelism", sparse.SchedGroups, sparse.SchedSteps)
	}

	hub := newLearner(starGraph(24))
	for i := 0; i < 6; i++ {
		hub.Step(nil)
	}
	if hub.SchedGroups != hub.SchedSteps {
		t.Fatalf("hub stream formed %d groups over %d steps, want full collapse", hub.SchedGroups, hub.SchedSteps)
	}
	if hub.SchedCollapsed != hub.SchedSteps {
		t.Fatalf("hub SchedCollapsed = %d, want %d", hub.SchedCollapsed, hub.SchedSteps)
	}
}
