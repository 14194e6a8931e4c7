package streamgnn

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/stream"
	"streamgnn/internal/workload"
)

// halvesRun drives an engine over a generated dataset the way cmd/queryd
// does: the dataset's queries and link task registered on the engine, its
// batches applied by a replayer, the engine owning window expiry.
type halvesRun struct {
	e   *Engine
	rep *stream.Replayer
}

func newHalvesRun(t *testing.T, ds *workload.Dataset, cfg Config) *halvesRun {
	t.Helper()
	cfg.WindowSteps = ds.WindowSteps
	e, err := NewEngine(ds.FeatDim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries {
		err := e.AddQuery(Query{Name: q.Name, Anchors: q.Anchors, Delta: q.Delta, Threshold: q.Threshold,
			Labeler: func(anchor, step int) (float64, bool) { return q.Labeler(e.Graph(), anchor, step) }})
		if err != nil {
			t.Fatal(err)
		}
	}
	if ds.LinkPred {
		e.EnableLinkPrediction()
	}
	return &halvesRun{e: e, rep: stream.NewReplayer(e.Graph(), ds.Source(), 0)}
}

// advance applies the next batch without stepping: how a resumed engine
// rebuilds its graph before loading a checkpoint.
func (r *halvesRun) advance(t *testing.T) {
	t.Helper()
	if !r.rep.Advance() {
		t.Fatal("stream ended early")
	}
}

// run runs n stream steps with the scheduler given procs processors, and
// checks after every step that the live θ equals the learner's copy.
func (r *halvesRun) run(t *testing.T, n, procs int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i := 0; i < n; i++ {
		r.advance(t)
		if err := r.e.Step(); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(r.e.allParams(), r.e.opt.Params()); err != nil {
			t.Fatalf("after step %d the live θ and the learner's differ: %v", r.e.CurrentStep()-1, err)
		}
	}
}

// sameBits compares two parameter lists value for value, bit for bit.
func sameBits(a, b []*autodiff.Node) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d parameters", len(a), len(b))
	}
	for i := range a {
		if err := sameFloats(a[i].Value.Data, b[i].Value.Data); err != nil {
			return fmt.Errorf("parameter %d: %v", i, err)
		}
	}
	return nil
}

func sameFloats(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d values", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("value %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// sameEngineState compares everything a step produces, bit for bit: the
// resolved outcomes, the metrics, the training stats (partition-cache
// counters aside when a run resumed on a cold cache), every parameter, the
// last embeddings and the recurrent state.
func sameEngineState(t *testing.T, a, b *Engine, resumed bool) {
	t.Helper()
	if oa, ob := a.Outcomes(), b.Outcomes(); fmt.Sprintf("%v", oa) != fmt.Sprintf("%v", ob) {
		t.Fatalf("outcomes differ:\n  %v\n  %v", oa, ob)
	}
	// Formatted: an AUC over one class is NaN, and NaN != NaN.
	if ma, mb := a.Metrics(), b.Metrics(); fmt.Sprintf("%+v", ma) != fmt.Sprintf("%+v", mb) {
		t.Fatalf("metrics differ:\n  %+v\n  %+v", ma, mb)
	}
	sa, sb := a.Stats(), b.Stats()
	if resumed {
		sa.CacheHits, sa.CacheMisses, sa.CacheInvalidations, sa.CacheHitRate = 0, 0, 0, 0
		sb.CacheHits, sb.CacheMisses, sb.CacheInvalidations, sb.CacheHitRate = 0, 0, 0, 0
	}
	if fmt.Sprintf("%+v", sa) != fmt.Sprintf("%+v", sb) {
		t.Fatalf("stats differ:\n  %+v\n  %+v", sa, sb)
	}
	if err := sameBits(a.allParams(), b.allParams()); err != nil {
		t.Fatalf("parameters differ: %v", err)
	}
	if a.lastEmb.Rows != b.lastEmb.Rows {
		t.Fatalf("embeddings have %d vs %d rows", a.lastEmb.Rows, b.lastEmb.Rows)
	}
	if err := sameFloats(a.lastEmb.Data, b.lastEmb.Data); err != nil {
		t.Fatalf("embeddings differ: %v", err)
	}
	da, db := a.model.DumpState(), b.model.DumpState()
	if len(da) != len(db) {
		t.Fatalf("%d vs %d state matrices", len(da), len(db))
	}
	for i := range da {
		if err := sameFloats(da[i].Data, db[i].Data); err != nil {
			t.Fatalf("recurrent state %d differs: %v", i, err)
		}
	}
}

// TestStepHalvesIndependentOfSchedule is the property that lets a step's
// inference half and its learner run at once: every answer and every bit of
// learned state is the same however the two are scheduled — interleaved on one
// processor or overlapped on four — for every model kind, an event stream and
// a link stream, the full and the incremental forward, the adaptive and the
// full training strategy, and across a checkpoint resume. After every step
// the live θ equals the learner's copy.
func TestStepHalvesIndependentOfSchedule(t *testing.T) {
	const steps = 8
	datasets := map[string]*workload.Dataset{
		"Bitcoin":       workload.Bitcoin(workload.GenConfig{Seed: 5, Steps: steps + 1}),
		"StackOverflow": workload.StackOverflow(workload.GenConfig{Seed: 5, Steps: steps + 1, Scale: 0.1}),
	}
	for _, kind := range ModelNames() {
		for _, dsName := range []string{"Bitcoin", "StackOverflow"} {
			for _, incremental := range []bool{false, true} {
				for _, strategy := range []string{StrategyKDE, StrategyFull} {
					cfg := Config{Model: kind, Strategy: strategy, Hidden: 6, Seed: 7, PairsPerStep: 2}
					if incremental {
						cfg.IncrementalForward, cfg.Interval = true, 2
					}
					name := fmt.Sprintf("%s/%s/incremental=%v/%s", kind, dsName, incremental, strategy)
					t.Run(name, func(t *testing.T) {
						ds := datasets[dsName]
						one, four := newHalvesRun(t, ds, cfg), newHalvesRun(t, ds, cfg)
						one.run(t, steps, 1)
						four.run(t, steps, 4)
						sameEngineState(t, one.e, four.e, false)
					})
				}
			}
		}
	}

	t.Run("resume", func(t *testing.T) {
		const saveAt = 5
		ds := datasets["Bitcoin"]
		cfg := Config{Model: "GCLSTM", Strategy: StrategyKDE, Hidden: 6, Seed: 7, PairsPerStep: 2,
			IncrementalForward: true, Interval: 2}
		whole := newHalvesRun(t, ds, cfg)
		whole.run(t, saveAt, 4)
		var ckpt bytes.Buffer
		if err := whole.e.SaveCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		whole.run(t, steps-saveAt, 4)

		resumed := newHalvesRun(t, ds, cfg)
		for i := 0; i < saveAt; i++ {
			resumed.advance(t)
		}
		if err := resumed.e.LoadCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(resumed.e.allParams(), resumed.e.opt.Params()); err != nil {
			t.Fatalf("after the load the live θ and the learner's differ: %v", err)
		}
		resumed.run(t, steps-saveAt, 1)
		sameEngineState(t, whole.e, resumed.e, true)
	})
}
