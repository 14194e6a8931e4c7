package streamgnn

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"streamgnn/internal/workload"
)

// incStream drives two engines through an identical sparse-update stream:
// per step, a couple of feature updates and an occasional new edge, touching
// a small fraction of the graph.
type incStream struct{ n int }

func (d incStream) init(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < d.n; i++ {
		e.AddNode(0, []float64{float64(i % 3), 0, 1})
		e.SetNodeLabel(i, float64(i%2))
	}
	for i := 0; i < d.n; i++ {
		e.AddUndirectedEdge(i, (i+1)%d.n, 0)
	}
	err := e.AddQuery(Query{
		Name: "act", Anchors: []int{0, d.n / 2}, Delta: 1, Threshold: 0.5,
		Labeler: func(anchor, step int) (float64, bool) {
			return float64((anchor+step)%2) * 0.8, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (d incStream) mutate(e *Engine, s int) {
	v := (s * 7) % d.n
	e.SetFeature(v, []float64{float64(s%5) * 0.2, 1, 1})
	if s%3 == 0 {
		e.AddEdge((s*11)%d.n, (s*13)%d.n, 0)
	}
}

func sameMatrix(t *testing.T, step int, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("step %d: embedding lengths differ: %d vs %d", step, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: embeddings differ at %d: %v vs %v", step, i, a[i], b[i])
		}
	}
}

// The tentpole guarantee: for a memoryless model, incremental dirty-region
// inference is bit-identical to the full forward at every step of a long
// mutated stream — including steps right after training invalidated the
// cache, quiet regions, and splices into grown matrices.
func TestIncrementalForwardBitExactMemoryless(t *testing.T) {
	base := DefaultConfig()
	base.Model = "WinGNN"
	base.Strategy = StrategyWeighted
	base.Hidden = 8
	base.Seed = 7
	base.Interval = 25 // train occasionally: cache must survive invalidation

	inc := base
	inc.IncrementalForward = true
	inc.DirtyFullThreshold = 1 // never fall back on region size

	const n, steps = 80, 200
	d := incStream{n: n}
	eFull, err := NewEngine(3, base)
	if err != nil {
		t.Fatal(err)
	}
	eInc, err := NewEngine(3, inc)
	if err != nil {
		t.Fatal(err)
	}
	d.init(t, eFull)
	d.init(t, eInc)

	for s := 0; s < steps; s++ {
		d.mutate(eFull, s)
		d.mutate(eInc, s)
		if err := eFull.Step(); err != nil {
			t.Fatal(err)
		}
		if err := eInc.Step(); err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, s, eFull.lastEmb.Data, eInc.lastEmb.Data)
	}

	tele := eInc.Telemetry()
	if tele.IncrementalForwards == 0 {
		t.Fatal("incremental path never ran; test proved nothing")
	}
	// Training every 25 steps forces ~steps/25 full forwards (plus step 0);
	// everything else must have gone incremental.
	if tele.FullForwards > steps/25+2 {
		t.Fatalf("too many full forwards: %d of %d steps", tele.FullForwards, steps)
	}
	if tele.SkippedRows == 0 {
		t.Fatal("no rows were skipped")
	}
	if eFull.Telemetry().IncrementalForwards != 0 {
		t.Fatal("baseline engine took the incremental path")
	}
}

// Quiet steps — no graph mutations since the last forward — must serve the
// cached matrix without recomputing anything.
func TestIncrementalForwardQuietStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "WinGNN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 8
	cfg.Interval = 1000 // no training inside the run
	cfg.IncrementalForward = true

	d := incStream{n: 20}
	e, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.init(t, e)
	// Step 0 is a full forward (cold cache) and also trains (0 % Interval
	// == 0), invalidating the cache; step 1 rebuilds it with another full
	// forward. Steps 2-4 are quiet: no mutations, no training.
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	before := e.lastEmb
	for s := 2; s <= 4; s++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.lastEmb != before {
		t.Fatal("quiet steps rebuilt the embedding matrix")
	}
	tele := e.Telemetry()
	if tele.IncrementalForwards != 3 || tele.FullForwards != 2 {
		t.Fatalf("forwards = %d inc / %d full, want 3/2", tele.IncrementalForwards, tele.FullForwards)
	}
	if tele.SkippedRows != 3*20 {
		t.Fatalf("SkippedRows = %d, want 60", tele.SkippedRows)
	}
}

// A tiny DirtyFullThreshold must push every dirty step onto the full path.
func TestIncrementalForwardThresholdFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "WinGNN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 8
	cfg.Interval = 1000
	cfg.IncrementalForward = true
	cfg.DirtyFullThreshold = 1e-9

	d := incStream{n: 20}
	e, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.init(t, e)
	for s := 0; s < 5; s++ {
		d.mutate(e, s)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	tele := e.Telemetry()
	if tele.FullForwards != 5 || tele.IncrementalForwards != 0 {
		t.Fatalf("forwards = %d full / %d inc, want 5/0", tele.FullForwards, tele.IncrementalForwards)
	}
}

func TestIncrementalForwardRejectsNegativeThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DirtyFullThreshold = -0.5
	if _, err := NewEngine(3, cfg); err == nil {
		t.Fatal("negative DirtyFullThreshold accepted")
	}
}

func TestNewEngineRejectsDirtyFullThresholdAboveOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DirtyFullThreshold = 1.5
	if _, err := NewEngine(3, cfg); err == nil {
		t.Fatal("DirtyFullThreshold > 1 accepted (it is a fraction of the graph)")
	}
	cfg.DirtyFullThreshold = 1 // the documented never-fall-back value stays legal
	if _, err := NewEngine(3, cfg); err != nil {
		t.Fatalf("DirtyFullThreshold = 1 rejected: %v", err)
	}
}

// TestRetiredDeltaKnobIsNoOp pins the deprecated DeltaForward shim the
// benchmark harness still sets: a Bitcoin×TGCN run with it writes the bytes
// and resolves the outcomes of the same run without it, and never counts a
// delta forward.
func TestRetiredDeltaKnobIsNoOp(t *testing.T) {
	run := func(delta bool) (*Engine, []byte) {
		cfg := DefaultConfig()
		cfg.Hidden = 8
		cfg.IncrementalForward = true
		cfg.Interval = 3
		cfg.DirtyFullThreshold = 1
		cfg.DeltaForward = delta
		r := newHalvesRun(t, workload.Bitcoin(workload.GenConfig{Seed: 1, Steps: 15}), cfg)
		r.run(t, 14, runtime.GOMAXPROCS(0))
		return r.e, saved(t, r.e)
	}
	eOff, want := run(false)
	eOn, got := run(true)
	if !bytes.Equal(got, want) {
		t.Error("DeltaForward: checkpoint differs from the run without it")
	}
	if len(eOff.Outcomes()) == 0 || !reflect.DeepEqual(eOn.Outcomes(), eOff.Outcomes()) {
		t.Errorf("DeltaForward: %d outcomes, %d without it, or they differ", len(eOn.Outcomes()), len(eOff.Outcomes()))
	}
	if tel := eOn.Telemetry(); tel.DeltaForwards != 0 || tel.IncrementalForwards == 0 {
		t.Errorf("DeltaForward: %d delta and %d incremental forwards, want 0 and some", tel.DeltaForwards, tel.IncrementalForwards)
	}
}

// RefreshEverySteps=1 degenerates incremental mode into a full forward per
// step, which must reproduce the baseline exactly even for a recurrent
// model — the bounded-staleness knob at its tightest.
func TestIncrementalRefreshEveryStepMatchesBaselineTGCN(t *testing.T) {
	base := DefaultConfig()
	base.Model = "TGCN"
	base.Strategy = StrategyWeighted
	base.Hidden = 8
	base.Seed = 3

	inc := base
	inc.IncrementalForward = true
	inc.RefreshEverySteps = 1

	d := incStream{n: 30}
	e1, err := NewEngine(3, base)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(3, inc)
	if err != nil {
		t.Fatal(err)
	}
	d.init(t, e1)
	d.init(t, e2)
	for s := 0; s < 30; s++ {
		d.mutate(e1, s)
		d.mutate(e2, s)
		if err := e1.Step(); err != nil {
			t.Fatal(err)
		}
		if err := e2.Step(); err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, s, e1.lastEmb.Data, e2.lastEmb.Data)
	}
	if got := e2.Telemetry().FullForwards; got != 30 {
		t.Fatalf("FullForwards = %d, want 30", got)
	}
}

// Recurrent models run the incremental path without error and keep
// embedding shapes consistent; their semantics are bounded-staleness, so
// only structure is asserted here.
func TestIncrementalForwardStatefulRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "TGCN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 8
	cfg.Interval = 10
	cfg.IncrementalForward = true
	cfg.DirtyFullThreshold = 1

	d := incStream{n: 40}
	e, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.init(t, e)
	for s := 0; s < 40; s++ {
		d.mutate(e, s)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.lastEmb.Rows != e.NumNodes() || e.lastEmb.Cols != 8 {
			t.Fatalf("step %d: embedding shape %dx%d", s, e.lastEmb.Rows, e.lastEmb.Cols)
		}
	}
	if e.Telemetry().IncrementalForwards == 0 {
		t.Fatal("incremental path never ran")
	}
}
