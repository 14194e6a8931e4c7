package streamgnn

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
	"streamgnn/internal/workload"
)

// halvesRun drives an engine over a generated dataset the way cmd/queryd
// does: the dataset's queries and link task registered on the engine, its
// batches applied by a replayer, the engine owning window expiry and watching
// for drift. Its labelers read the engine's graph, as a degree-based labeler
// would, while the forward runs beside them.
type halvesRun struct {
	e   *Engine
	rep *stream.Replayer
	// read collects what the current step's labelers read of the graph: per
	// call, the anchor's degree and then its out-edges' targets.
	read []int
	// steps holds, per step run, those reads and DriftDetected after it.
	steps []halvesStep
}

type halvesStep struct {
	read  []int
	drift bool
}

func newHalvesRun(t *testing.T, ds *workload.Dataset, cfg Config) *halvesRun {
	t.Helper()
	cfg.WindowSteps = ds.WindowSteps
	cfg.DriftDetection = true
	e, err := NewEngine(ds.FeatDim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &halvesRun{e: e, rep: stream.NewReplayer(e.Graph(), ds.Source(), 0)}
	queries := ds.Queries
	if ds.LinkPred {
		// A degree query gives a link stream's reveal an event labeler too,
		// and its drift detector losses to watch.
		queries = append(queries[:len(queries):len(queries)], &query.EventQuery{
			Name: "degree", Anchors: []int{0, 1, 2, 3}, Delta: 1, Threshold: 4,
			Labeler: func(g *graph.Dynamic, anchor, _ int) (float64, bool) { return float64(g.Degree(anchor)), true },
		})
	}
	for _, q := range queries {
		err := e.AddQuery(Query{Name: q.Name, Anchors: q.Anchors, Delta: q.Delta, Threshold: q.Threshold,
			Labeler: func(anchor, step int) (float64, bool) {
				g := e.Graph()
				r.read = append(r.read, g.Degree(anchor))
				for _, ed := range g.OutEdges(anchor) {
					r.read = append(r.read, ed.To)
				}
				return q.Labeler(g, anchor, step)
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if ds.LinkPred {
		e.EnableLinkPrediction()
	}
	return r
}

// advance applies the next batch without stepping: how a resumed engine
// rebuilds its graph before loading a checkpoint.
func (r *halvesRun) advance(t *testing.T) {
	t.Helper()
	if !r.rep.Advance() {
		t.Fatal("stream ended early")
	}
}

// run runs n stream steps with the scheduler given procs processors, records
// each step's labeler reads and drift flag, and checks after every step that
// the live θ equals the learner's copy.
func (r *halvesRun) run(t *testing.T, n, procs int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i := 0; i < n; i++ {
		r.advance(t)
		if err := r.e.Step(); err != nil {
			t.Fatal(err)
		}
		r.steps = append(r.steps, halvesStep{read: r.read, drift: r.e.DriftDetected()})
		r.read = nil
		if err := sameBits(r.e.allParams(), r.e.opt.Params()); err != nil {
			t.Fatalf("after step %d the live θ and the learner's differ: %v", r.e.CurrentStep()-1, err)
		}
	}
}

// sameSteps compares two runs' per-step labeler reads and drift flags; a and
// b hold the same steps, from the first on or from a resume on.
func sameSteps(t *testing.T, a, b []halvesStep) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%d vs %d steps recorded", len(a), len(b))
	}
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Fatalf("step %d of %d: labeler reads and drift flag differ:\n  %v\n  %v", i, len(a), a[i], b[i])
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
// resolved outcomes, the metrics, the training stats, every parameter, the
// last embeddings and the recurrent state.
func sameEngineState(t *testing.T, a, b *Engine) {
	t.Helper()
	if oa, ob := a.Outcomes(), b.Outcomes(); fmt.Sprintf("%v", oa) != fmt.Sprintf("%v", ob) {
		t.Fatalf("outcomes differ:\n  %v\n  %v", oa, ob)
	}
	// Formatted: an AUC over one class is NaN, and NaN != NaN.
	if ma, mb := a.Metrics(), b.Metrics(); fmt.Sprintf("%+v", ma) != fmt.Sprintf("%+v", mb) {
		t.Fatalf("metrics differ:\n  %+v\n  %+v", ma, mb)
	}
	if sa, sb := a.Stats(), b.Stats(); fmt.Sprintf("%+v", sa) != fmt.Sprintf("%+v", sb) {
		t.Fatalf("stats differ:\n  %+v\n  %+v", sa, sb)
	}
	if err := sameBits(a.allParams(), b.allParams()); err != nil {
		t.Fatalf("parameters differ: %v", err)
	}
	if a.lastEmb.Rows() != b.lastEmb.Rows() {
		t.Fatalf("embeddings have %d vs %d rows", a.lastEmb.Rows(), b.lastEmb.Rows())
	}
	if err := sameFloats(a.lastEmb.Dense().Data, b.lastEmb.Dense().Data); err != nil {
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

// sameCheckpoints compares the checkpoint bytes of two engines.
func sameCheckpoints(t *testing.T, a, b *Engine) {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := a.SaveCheckpoint(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveCheckpoint(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatalf("checkpoints differ: %d vs %d bytes", ca.Len(), cb.Len())
	}
}

// TestStepHalvesIndependentOfSchedule is the property that lets a step's
// reveal, its inference half and its learner run at once: every answer, every
// drift flag, every read a labeler makes of the graph and every bit of learned
// state is the same however they are scheduled — interleaved on one processor
// or overlapped on four — for every model kind, an event stream and a link
// stream, the full and the incremental forward, the adaptive and the full
// training strategy, and across a checkpoint resume. After every step the
// live θ equals the learner's copy. On the link stream a twin whose learner
// reads its negatives after prediction, never computing them beside the
// forward, ends in the same state and checkpoint bytes.
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
						sameSteps(t, one.steps, four.steps)
						sameEngineState(t, one.e, four.e)
						if ds.LinkPred {
							// The twin's link learner reads its negatives from
							// the embeddings prediction read, after it, on
							// every step.
							serial := newHalvesRun(t, ds, cfg)
							serial.e.linkBeside = false
							serial.run(t, steps, 4)
							sameSteps(t, four.steps, serial.steps)
							sameEngineState(t, four.e, serial.e)
							sameCheckpoints(t, four.e, serial.e)
						}
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
		sameSteps(t, whole.steps[saveAt:], resumed.steps)
		sameEngineState(t, whole.e, resumed.e)
	})
}
