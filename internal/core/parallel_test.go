package core

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/query"
)

// adaptiveFingerprint runs a seeded adaptive learner for several steps over a
// mutating graph and returns everything observable: final chip counts, the
// Trained/Moves counters, and every model parameter value. mutate, when
// non-nil, adjusts the config before the learner is built.
func adaptiveFingerprint(t *testing.T, workers, pairs int, mutate func(*Config)) ([]int, int, int, []float64) {
	t.Helper()
	const n = 16
	rng := rand.New(rand.NewSource(7))
	g := graph.NewDynamic(3)
	for i := 0; i < n; i++ {
		g.AddNode(0, []float64{float64(i % 2), float64(i % 3), 1})
		g.SetLabel(i, float64(i%2))
	}
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n, 0, int64(i))
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.PairsPerStep = pairs
	if mutate != nil {
		mutate(&cfg)
	}
	g.EnablePartitionCache(PartitionCacheCap)
	m := dgnn.NewTGCN(rng, 3, 4)
	heads := query.NewHeads(rng, 4)
	w := query.NewWorkload(heads)
	params := append(m.Params(), heads.Params()...)
	opt := m.WrapOptimizer(autodiff.NewAdam(cfg.LR, params))
	tr := NewTrainer(g, m, w, opt, cfg, rng)
	a := NewAdaptiveLearner(tr, cfg, Weighted, rng)

	for step := 0; step < 8; step++ {
		// Mutate the stream deterministically: new chords, then a window
		// expiry, exercising cache invalidation and dirty-activity tracking.
		g.AddUndirectedEdge(step, (step+5)%n, 0, int64(n+step))
		if step == 4 {
			g.ExpireEdgesBefore(3)
		}
		a.Step(g.Updated())
		g.ResetUpdated()
	}

	var flat []float64
	for _, p := range params {
		flat = append(flat, p.Value.Data...)
	}
	return a.Chips.Counts(), a.Trained, a.Moves, flat
}

// TestStepDeterministicAcrossWorkers is the headline determinism guarantee:
// a seeded run produces bit-identical chips, counters and parameters whether
// pair units are evaluated serially or on 4 worker goroutines.
func TestStepDeterministicAcrossWorkers(t *testing.T) {
	for _, pairs := range []int{1, 3} {
		c1, t1, m1, p1 := adaptiveFingerprint(t, 1, pairs, nil)
		c4, t4, m4, p4 := adaptiveFingerprint(t, 4, pairs, nil)
		compareFingerprints(t, "pairs", pairs, c1, t1, m1, p1, c4, t4, m4, p4)
	}
}

// compareFingerprints asserts two adaptive fingerprints are bit-identical.
func compareFingerprints(t *testing.T, label string, key int,
	c1 []int, t1, m1 int, p1 []float64, c2 []int, t2, m2 int, p2 []float64) {
	t.Helper()
	if t1 != t2 || m1 != m2 {
		t.Fatalf("%s=%d: counters diverged: trained %d vs %d, moves %d vs %d", label, key, t1, t2, m1, m2)
	}
	if len(c1) != len(c2) {
		t.Fatalf("%s=%d: chip vector length %d vs %d", label, key, len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("%s=%d: chip counts diverged at node %d: %d vs %d", label, key, i, c1[i], c2[i])
		}
	}
	if len(p1) != len(p2) {
		t.Fatalf("%s=%d: parameter count %d vs %d", label, key, len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("%s=%d: parameter %d diverged: %v vs %v", label, key, i, p1[i], p2[i])
		}
	}
}

// TestStepDeterministicAcrossWorkersDependencySchedule extends the headline
// guarantee to the conflict-group scheduler: with DependencySchedule on,
// seeded runs are bit-identical across Workers ∈ {1,2,4,8}. The grouping,
// the unit-index merge order, and the chip-move rng stream are all
// worker-count independent, so everything observable must match the
// single-worker run bit for bit.
func TestStepDeterministicAcrossWorkersDependencySchedule(t *testing.T) {
	schedOn := func(cfg *Config) { cfg.DependencySchedule = true }
	c1, t1, m1, p1 := adaptiveFingerprint(t, 1, 3, schedOn)
	for _, workers := range []int{2, 4, 8} {
		cw, tw, mw, pw := adaptiveFingerprint(t, workers, 3, schedOn)
		compareFingerprints(t, "workers", workers, c1, t1, m1, p1, cw, tw, mw, pw)
	}
}

// TestDependencyScheduleSelfConsistent pins down that the scheduled
// trajectory is a pure function of the seed: two identical runs (same
// workers) match bit for bit, and the schedule trains exactly as many
// partitions as the serial path. Scheduled runs are NOT expected to equal
// unscheduled ones bitwise: the sum association differs (interleaved += into
// the shared gradients vs. per-unit sinks merged in order, see DESIGN.md §15)
// — a deterministic, not a bitwise, equivalence.
func TestDependencyScheduleSelfConsistent(t *testing.T) {
	schedOn := func(cfg *Config) { cfg.DependencySchedule = true }
	c1, t1, m1, p1 := adaptiveFingerprint(t, 4, 3, schedOn)
	c2, t2, m2, p2 := adaptiveFingerprint(t, 4, 3, schedOn)
	compareFingerprints(t, "rerun", 4, c1, t1, m1, p1, c2, t2, m2, p2)
	_, tOff, _, _ := adaptiveFingerprint(t, 1, 3, nil)
	if t1 != tOff {
		t.Fatalf("scheduled run trained %d partitions, serial %d", t1, tOff)
	}
}

// TestParallelUnitsCounter checks the observability counter: conflict groups
// run on the worker pool count their units, serial runs stay at zero.
func TestParallelUnitsCounter(t *testing.T) {
	_, tr, _ := testSetup(t, 12, Weighted)
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.PairsPerStep = 2
	cfg.DependencySchedule = true
	a := NewAdaptiveLearner(tr, cfg, Weighted, rand.New(rand.NewSource(1)))
	for i := 0; i < 50 && a.SchedGroups == a.SchedSteps; i++ { // until a step forms two groups
		a.Step(nil)
	}
	if want := 4 * a.SchedSteps; a.ParallelUnits < 4 || a.ParallelUnits > want {
		t.Fatalf("ParallelUnits = %d after %d steps, want 4..%d", a.ParallelUnits, a.SchedSteps, want)
	}
	_, tr2, _ := testSetup(t, 12, Weighted)
	s := NewAdaptiveLearner(tr2, DefaultConfig(), Weighted, rand.New(rand.NewSource(1)))
	s.Step(nil)
	if s.ParallelUnits != 0 {
		t.Fatalf("serial ParallelUnits = %d, want 0", s.ParallelUnits)
	}
}

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
			if got := a.Chips.Active(v); got != want {
				t.Fatalf("%s: node %d active=%v want %v", when, v, got, want)
			}
		}
	}
	check("initial")
	g.AddNode(0, []float64{1, 0, 1}) // isolated node 10
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
