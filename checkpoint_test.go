package streamgnn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	e1 := endToEnd(t, cfg, 8)

	var buf bytes.Buffer
	if err := e1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh engine over an identical graph; load the checkpoint.
	e2, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		e2.AddNode(0, []float64{float64(i % 2), 0, 1})
	}
	for i := 0; i < n; i++ {
		e2.AddUndirectedEdge(i, (i+1)%n, 0)
	}
	if err := e2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if e2.CurrentStep() != e1.CurrentStep() {
		t.Fatalf("step not restored: %d vs %d", e2.CurrentStep(), e1.CurrentStep())
	}
	// Parameters restored bit-for-bit.
	p1, p2 := e1.allParams(), e2.allParams()
	for i := range p1 {
		if !p1[i].Value.Equal(p2[i].Value) {
			t.Fatalf("param %d differs after restore", i)
		}
	}
	// Recurrent state restored: the next inference on the same graph must
	// produce identical embeddings... after one step on identical inputs.
	lab := func(anchor, step int) (float64, bool) { return 1, true }
	if err := e2.AddQuery(Query{Name: "q", Anchors: []int{0}, Delta: 1, Labeler: lab}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Step(); err != nil {
		t.Fatal(err)
	}
	if len(e2.Embedding(0)) != 8 {
		t.Fatal("restored engine cannot step")
	}
}

// detStream is a precomputed deterministic mutation schedule: the same
// stream can drive an uninterrupted run and, separately, rebuild the exact
// graph of an interrupted run before resuming — which is what checkpoint
// resume requires (the snapshot is not part of the checkpoint).
type detStream struct {
	n     int
	truth map[[2]int]float64 // (anchor, step) -> revealed value
	acts  []float64          // per-step anchor activity feature
	edges [][2]int           // per-step random extra edge
}

func newDetStream(seed int64, n, steps int) *detStream {
	r := rand.New(rand.NewSource(seed))
	d := &detStream{n: n, truth: make(map[[2]int]float64)}
	for s := 0; s < steps; s++ {
		act := 0.5 + 0.4*float64(s%2)
		d.acts = append(d.acts, act)
		for _, a := range []int{0, 5} {
			d.truth[[2]int{a, s}] = act + 0.1*r.Float64()
		}
		d.edges = append(d.edges, [2]int{r.Intn(n), r.Intn(n)})
	}
	return d
}

// init populates a fresh engine with the base graph and the stream's query.
func (d *detStream) init(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < d.n; i++ {
		e.AddNode(0, []float64{float64(i % 2), 0, 1})
		e.SetNodeLabel(i, float64(i%2))
	}
	for i := 0; i < d.n; i++ {
		e.AddUndirectedEdge(i, (i+1)%d.n, 0)
	}
	err := e.AddQuery(Query{
		Name: "activity", Anchors: []int{0, 5}, Delta: 1, Threshold: 0.5,
		Labeler: func(anchor, step int) (float64, bool) {
			v, ok := d.truth[[2]int{anchor, step}]
			return v, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mutate applies step s's mutations (call immediately before Step s).
func (d *detStream) mutate(e *Engine, s int) {
	for _, a := range []int{0, 5} {
		e.SetFeature(a, []float64{d.acts[s], 1, 1})
	}
	e.AddEdge(d.edges[s][0], d.edges[s][1], 0)
}

// resumeEquality runs the stream uninterrupted on one engine and
// save/rebuild/load/resume on another, then asserts that the resumed run's
// stats, chips and metrics are indistinguishable from the uninterrupted
// one. Partition-cache counters are necessarily excluded: the resumed
// engine starts with a cold cache, so its hit/miss split differs even
// though the trained content is identical.
func resumeEquality(t *testing.T, cfg Config) {
	t.Helper()
	const n, saveAt, total = 12, 6, 10
	d := newDetStream(99, n, total)

	e1, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.init(t, e1)
	for s := 0; s < saveAt; s++ {
		d.mutate(e1, s)
		if err := e1.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: fresh engine, rebuild the graph by replaying the
	// stream's mutations (no stepping), then load and resume. The load lands
	// before the engine's first Step, exercising the pending-restore path.
	e2, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.init(t, e2)
	for s := 0; s < saveAt; s++ {
		d.mutate(e2, s)
	}
	if err := e2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if e2.CurrentStep() != saveAt {
		t.Fatalf("resumed at step %d, want %d", e2.CurrentStep(), saveAt)
	}
	// Restored observability counters are visible before the first Step.
	if s1, s2 := e1.Stats(), e2.Stats(); s2.TrainedPartitions != s1.TrainedPartitions ||
		s2.SelfNodeTargets != s1.SelfNodeTargets {
		t.Fatalf("pre-step restored stats differ: %+v vs %+v", s1, s2)
	}

	for s := saveAt; s < total; s++ {
		d.mutate(e1, s)
		if err := e1.Step(); err != nil {
			t.Fatal(err)
		}
		d.mutate(e2, s)
		if err := e2.Step(); err != nil {
			t.Fatal(err)
		}
	}

	s1, s2 := e1.Stats(), e2.Stats()
	s1.CacheHits, s1.CacheMisses, s1.CacheInvalidations, s1.CacheHitRate = 0, 0, 0, 0
	s2.CacheHits, s2.CacheMisses, s2.CacheInvalidations, s2.CacheHitRate = 0, 0, 0, 0
	if fmt.Sprintf("%+v", s1) != fmt.Sprintf("%+v", s2) {
		t.Fatalf("stats diverged after resume:\n  uninterrupted: %+v\n  resumed:       %+v", s1, s2)
	}
	if e1.sched.Adaptive != nil {
		c1 := e1.sched.Adaptive.Chips.Counts()
		c2 := e2.sched.Adaptive.Chips.Counts()
		for v := range c1 {
			if c1[v] != c2[v] {
				t.Fatalf("chip counts differ at node %d: %d vs %d", v, c1[v], c2[v])
			}
		}
	}
	// Compare via formatting: AUC is NaN when all outcomes share one class,
	// and NaN != NaN would fail a struct comparison.
	m1, m2 := e1.Metrics(), e2.Metrics()
	if fmt.Sprintf("%+v", m1) != fmt.Sprintf("%+v", m2) {
		t.Fatalf("metrics diverged after resume:\n  uninterrupted: %+v\n  resumed:       %+v", m1, m2)
	}
	// The final inference embeddings must be bit-identical too — in
	// incremental mode this proves the restored cache spliced exactly like
	// the uninterrupted run's.
	if !e1.lastEmb.Equal(e2.lastEmb) {
		t.Fatal("final embeddings diverged after resume")
	}
}

func TestCheckpointResumeEqualityWeighted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	resumeEquality(t, cfg)
}

func TestCheckpointResumeEqualityKDE(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKDE
	cfg.Hidden = 6
	resumeEquality(t, cfg)
}

// Resume equality with the incremental forward path: the checkpoint carries
// the embedding cache (v3), and the resumed run must splice into it exactly
// as the uninterrupted run did. Interval 3 mixes trained steps (cache
// invalidated, full forward) with incremental ones across the save point;
// DirtyFullThreshold 1 keeps every non-trained step incremental.
func TestCheckpointResumeEqualityIncremental(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	cfg.Interval = 3
	cfg.IncrementalForward = true
	cfg.DirtyFullThreshold = 1
	resumeEquality(t, cfg)
}

// Resume equality under the conflict-group scheduler: the scheduler keeps no
// persistent state beyond its observability counters (v7) — conflict scratch
// and gradient sinks are rebuilt every step — so a resumed scheduled run must
// match the uninterrupted one bit for bit, counters included (Stats are
// compared verbatim above). Workers 4 keeps the group pool genuinely
// concurrent across the save point.
func TestCheckpointResumeEqualityDependencySchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	cfg.DependencySchedule = true
	cfg.Workers = 4
	resumeEquality(t, cfg)
}

// WinGNN resume equality: the winOptimizer's gradient-window history and
// random stream ride along in the checkpoint's optimizer state (v4), so a
// resumed WinGNN run must match the uninterrupted one bit for bit — the
// randomized suffix draws continue the exact same stream and the window
// contents are identical. This used to be a documented gap; it is now a
// hard-equality requirement.
func TestCheckpointResumeEqualityWinGNN(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "WinGNN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	resumeEquality(t, cfg)
}

// The same requirement holds on the incremental forward path (WinGNN is
// memoryless, so incremental inference is exact for it).
func TestCheckpointResumeEqualityWinGNNIncremental(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "WinGNN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	cfg.Interval = 3
	cfg.IncrementalForward = true
	cfg.DirtyFullThreshold = 1
	resumeEquality(t, cfg)
}

func TestPeekCheckpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	e := endToEnd(t, cfg, 5)
	var buf bytes.Buffer
	if err := e.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := PeekCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := CheckpointInfo{Version: checkpointVersion, Model: cfg.Model,
		Strategy: cfg.Strategy, Hidden: 8, Step: 5, Shards: 1}
	if info != want {
		t.Fatalf("peek = %+v, want %+v", info, want)
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	e1 := endToEnd(t, cfg, 4)
	var buf bytes.Buffer
	if err := e1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := DefaultConfig()
	other.Model = "DCRNN"
	other.Hidden = 8
	e2, _ := NewEngine(3, other)
	if err := e2.LoadCheckpoint(&buf); err == nil {
		t.Fatal("model mismatch accepted")
	}
	e3, _ := NewEngine(3, cfg)
	if err := e3.LoadCheckpoint(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A checkpoint written before Config.DisablePooling was retired (by an engine
// that had it set) still loads and steps: checkpoints carry learned and
// runtime state, never the Config, so retiring a knob cannot strand them.
func TestLoadCheckpointFromBeforeKnobRetirement(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint_pr12_v7.gob")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 4
	e, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		e.AddNode(0, []float64{float64(i % 2), 0, 1})
	}
	for i := 0; i < n; i++ {
		e.AddUndirectedEdge(i, (i+1)%n, 0)
	}
	if err := e.LoadCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if e.CurrentStep() != 4 {
		t.Fatalf("resumed at step %d, want 4", e.CurrentStep())
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint whose learner state does not fit the replayed graph — a KDE
// seed past its last node, a chip count below the floor — is refused by
// LoadCheckpoint itself, before anything is restored: parameters, workload
// and step stay those of the engine it was loaded into.
func TestLoadCheckpointRejectsLearnerStateOutsideGraph(t *testing.T) {
	cfg := DefaultConfig() // KDE: the checkpoint carries chips and a seed window
	cfg.Hidden = 8
	e1 := endToEnd(t, cfg, 8)
	var buf bytes.Buffer
	if err := e1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var saved checkpoint
	if err := gob.NewDecoder(&buf).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	if !saved.HasKDESeeds || len(saved.Chips) == 0 {
		t.Fatalf("checkpoint carries no learner state to corrupt: %d seeds, %d chips", len(saved.KDESeeds), len(saved.Chips))
	}
	const n = 12 // the graph endToEnd builds
	for name, corrupt := range map[string]func(*checkpoint){
		"KDE seed outside the graph": func(ck *checkpoint) {
			ck.KDESeeds = append([]int(nil), ck.KDESeeds...)
			ck.KDESeeds[0] = n
		},
		"chip count below the floor": func(ck *checkpoint) {
			ck.Chips = append([]int(nil), ck.Chips...)
			ck.Chips[0] = 0
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := saved
			corrupt(&bad)
			var enc bytes.Buffer
			if err := gob.NewEncoder(&enc).Encode(bad); err != nil {
				t.Fatal(err)
			}
			e2, err := NewEngine(3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				e2.AddNode(0, []float64{float64(i % 2), 0, 1})
			}
			for i := 0; i < n; i++ {
				e2.AddUndirectedEdge(i, (i+1)%n, 0)
			}
			lab := func(anchor, step int) (float64, bool) { return 1, true }
			if err := e2.AddQuery(Query{Name: "activity", Anchors: []int{0, 5}, Delta: 1, Labeler: lab}); err != nil {
				t.Fatal(err)
			}
			var params [][]float64
			for _, p := range e2.allParams() {
				params = append(params, append([]float64(nil), p.Value.Data...))
			}
			workload := fmt.Sprintf("%+v", e2.wl.DumpState())

			if err := e2.LoadCheckpoint(&enc); err == nil {
				t.Fatal("checkpoint accepted")
			}
			if e2.CurrentStep() != 0 {
				t.Fatalf("refused load moved the step to %d", e2.CurrentStep())
			}
			for i, p := range e2.allParams() {
				for j, v := range p.Value.Data {
					if v != params[i][j] {
						t.Fatalf("refused load changed parameter %d", i)
					}
				}
			}
			if got := fmt.Sprintf("%+v", e2.wl.DumpState()); got != workload {
				t.Fatal("refused load changed the workload")
			}
		})
	}
}
