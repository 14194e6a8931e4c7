package streamgnn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/stream"
	"streamgnn/internal/tensor"
	"streamgnn/internal/workload"
)

// heldKinds are the models whose forward advances per-node recurrent state
// and nothing else, so the live rule holds their edgeless rows.
var heldKinds = []string{"TGCN", "DCRNN", "GCLSTM", "DyGrEncoder", "ROLAND", "RTGCN"}

// referenceForward runs a full forward of a fresh copy of e's model — holding
// params and the recurrent state before — over e's graph, every row committed,
// and returns its embeddings and the state it leaves.
func referenceForward(t *testing.T, e *Engine, params, before []dgnn.StateDump) (*tensor.Matrix, []dgnn.StateDump) {
	t.Helper()
	kind, err := dgnn.ParseKind(e.cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	ref := dgnn.New(kind, rand.New(rand.NewSource(1)), e.g.FeatDim(), e.cfg.Hidden)
	setParams, err := dgnn.RestoreParams(ref.Params(), params)
	if err != nil {
		t.Fatal(err)
	}
	setState, err := ref.RestoreState(before)
	if err != nil {
		t.Fatal(err)
	}
	setParams()
	setState()
	ref.BeginStep(e.CurrentStep() - 1)
	return dgnn.Infer(autodiff.NewInferenceTape(), ref, dgnn.FullView(e.g)), ref.DumpState()
}

// stateRow returns node v's row of every state dump, nil for a node the dump
// does not cover yet.
func stateRow(ds []dgnn.StateDump, v int) []float64 {
	var row []float64
	for _, d := range ds {
		if v >= d.Rows {
			return nil
		}
		row = append(row, d.Data[v*d.Cols:(v+1)*d.Cols]...)
	}
	return row
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// heldStream is a random stream whose edges expire after a window and whose
// new nodes join with or without an edge, so rows go edgeless and come back.
type heldStream struct {
	rng     *rand.Rand
	touched map[int]bool // nodes the mutations since the last step touched
}

func (h *heldStream) addEdge(e *Engine, u, v int) {
	e.AddEdge(u, v, h.rng.Intn(2))
	h.touched[u], h.touched[v] = true, true
}

func (h *heldStream) mutate(e *Engine, s int) {
	h.touched = map[int]bool{}
	if s == 0 {
		for i := 0; i < 24; i++ {
			e.AddNode(0, []float64{h.rng.Float64(), h.rng.Float64(), 1})
		}
	}
	for k := h.rng.Intn(4); k > 0; k-- {
		v := e.AddNode(0, []float64{h.rng.Float64(), 0, 1})
		h.touched[v] = true
		if h.rng.Intn(2) == 0 {
			h.addEdge(e, v, h.rng.Intn(v))
		}
	}
	n := e.NumNodes()
	for k := 2 + h.rng.Intn(5); k > 0; k-- {
		h.addEdge(e, h.rng.Intn(n), h.rng.Intn(n))
	}
	if s == 9 {
		// A burst chains four of every five nodes: most rows are live.
		for u := 0; u+1 < n; u++ {
			if u%5 < 3 {
				h.addEdge(e, u, u+1)
			}
		}
	}
	v := h.rng.Intn(n)
	e.SetFeature(v, []float64{h.rng.Float64(), 1, 0})
	h.touched[v] = true
}

// heldEngine returns an engine over cfg fed by a heldStream seeded with
// cfg.Seed, after the stream's first mutations, with one event query.
func heldEngine(t *testing.T, cfg Config) (*Engine, *heldStream) {
	t.Helper()
	e, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := &heldStream{rng: rand.New(rand.NewSource(cfg.Seed))}
	stream.mutate(e, 0)
	err = e.AddQuery(Query{Name: "q", Anchors: heldAnchors, Delta: 1, Threshold: 0.5,
		Labeler: func(anchor, step int) (float64, bool) { return float64((anchor + step) % 3), true }})
	if err != nil {
		t.Fatal(err)
	}
	return e, stream
}

// heldAnchors are heldEngine's query anchors.
var heldAnchors = []int{0, 7}

// TestHeldRowsMatchFullForward is the live rule's property, for the six
// recurrent kinds on random streams with expiry and edgeless new nodes: on
// every step the live rows — a live edge, touched since the last step, or an
// anchor — are bit-equal to a full forward from the same parameters and state,
// and the held rows keep their state and embedding bits. The streams' live
// steps advance both fewer and more than 0.85 of the rows, so the region
// forward is held to it on sparse and dense live sets alike.
func TestHeldRowsMatchFullForward(t *testing.T) {
	shares := map[bool]int{} // live steps by whether at least 0.85 of the rows were live
	for _, model := range heldKinds {
		for seed := int64(1); seed <= 3; seed++ {
			e, stream := heldEngine(t, Config{Model: model, Strategy: StrategyKDE, Hidden: 6, Seed: seed, WindowSteps: 3, Interval: 4})
			held := 0
			for s := 0; s < 14; s++ {
				if s > 0 {
					stream.mutate(e, s)
				}
				n := e.NumNodes()
				edged := make([]bool, n)
				for v := 0; v < n; v++ {
					edged[v] = e.Graph().Degree(v) > 0
				}
				prevEmb := e.lastEmb
				params, before := dgnn.DumpParams(e.model.Params()), e.model.DumpState()
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				after := e.model.DumpState()
				want, wantState := referenceForward(t, e, params, before)
				live := 0
				for v := 0; v < n; v++ {
					isLive := prevEmb == nil || edged[v] || e.Graph().Degree(v) > 0 ||
						stream.touched[v] || v == heldAnchors[0] || v == heldAnchors[1]
					got := e.lastEmb.Row(v)
					switch {
					case isLive && (!equalBits(got, want.Row(v)) || !equalBits(stateRow(after, v), stateRow(wantState, v))):
						t.Fatalf("%s seed %d step %d: live row %d differs from the full forward's", model, seed, s, v)
					case !isLive && (!equalBits(got, prevEmb.Row(v)) || !equalBits(stateRow(after, v), stateRow(before, v))):
						t.Fatalf("%s seed %d step %d: held row %d moved", model, seed, s, v)
					case isLive:
						live++
					default:
						held++
					}
				}
				if live < n {
					if rows := e.Telemetry().ForwardRows; rows != int64(live) {
						t.Fatalf("%s seed %d step %d: the forward advanced %d rows, %d are live", model, seed, s, rows, live)
					}
					shares[float64(live) >= 0.85*float64(n)]++
				}
			}
			if held == 0 {
				t.Fatalf("%s seed %d: no row was ever held; the test proved nothing", model, seed)
			}
		}
	}
	if shares[true] == 0 || shares[false] == 0 {
		t.Fatalf("%d live steps at or above 0.85 of the rows and %d below, want some of each", shares[true], shares[false])
	}
}

// A link task scores any row — every positive's endpoints and random
// negatives — so an engine running one holds nothing: on a stream whose rows
// go edgeless, each step's embeddings, and so its link scores, stay bit-equal
// to a full forward's, as before rows were held.
func TestLinkTaskHoldsNoRows(t *testing.T) {
	for _, model := range heldKinds {
		e, err := NewEngine(3, Config{Model: model, Strategy: StrategyKDE, Hidden: 6, Seed: 2, WindowSteps: 3, Interval: 4})
		if err != nil {
			t.Fatal(err)
		}
		e.EnableLinkPrediction()
		stream := &heldStream{rng: rand.New(rand.NewSource(2))}
		edgeless := 0
		for s := 0; s < 12; s++ {
			stream.mutate(e, s)
			params, before := dgnn.DumpParams(e.model.Params()), e.model.DumpState()
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			want, _ := referenceForward(t, e, params, before)
			if !equalBits(e.lastEmb.Dense().Data, want.Data) {
				t.Fatalf("%s step %d: embeddings differ from the full forward's", model, s)
			}
			for v := 0; v < e.NumNodes(); v++ {
				if e.Graph().Degree(v) == 0 {
					edgeless++
				}
			}
		}
		if edgeless == 0 {
			t.Fatalf("%s: no row went edgeless; the test proved nothing", model)
		}
		if tel := e.Telemetry(); tel.SkippedRows != 0 || len(e.wl.LinkTask().Ranks()) == 0 {
			t.Fatalf("%s: %d rows held, %d links scored", model, tel.SkippedRows, len(e.wl.LinkTask().Ranks()))
		}
	}
}

// On a stream where every node keeps an edge nothing is held: each step's
// embeddings are bit-equal to dgnn.Infer over the full view from the state
// the step started with.
func TestAllLiveMatchesFullForward(t *testing.T) {
	for _, model := range heldKinds {
		e, err := NewEngine(3, Config{Model: model, Strategy: StrategyKDE, Hidden: 6, Interval: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for v := 0; v < 16; v++ {
			e.AddNode(0, []float64{rng.Float64(), 0, 1})
			if v > 0 {
				e.AddUndirectedEdge(v, rng.Intn(v), 0)
			}
		}
		for s := 0; s < 10; s++ {
			v := e.AddNode(0, []float64{rng.Float64(), 1, 0})
			e.AddEdge(v, rng.Intn(v), 0)
			params, before := dgnn.DumpParams(e.model.Params()), e.model.DumpState()
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			want, _ := referenceForward(t, e, params, before)
			if !equalBits(e.lastEmb.Dense().Data, want.Data) {
				t.Fatalf("%s step %d: embeddings differ from the full forward's", model, s)
			}
		}
		if tel := e.Telemetry(); tel.SkippedRows != 0 {
			t.Fatalf("%s: %d rows held on a stream where every node keeps an edge", model, tel.SkippedRows)
		}
	}
}

// A run resumed from a checkpoint taken while rows were held continues as if
// uninterrupted: Taxi×DCRNN, whose finished trips go edgeless, compared by
// checkpoint bytes.
func TestHeldRowsResumeMatchesUninterrupted(t *testing.T) {
	const saveAt, total = 10, 14
	ds, err := workload.ByName("Taxi", workload.GenConfig{Seed: 2, Steps: total, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	newRun := func() (*Engine, *stream.Replayer) {
		e, err := NewEngine(ds.FeatDim, Config{Model: "DCRNN", Strategy: StrategyKDE, Seed: 2, WindowSteps: ds.WindowSteps})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ds.Queries {
			lab := q.Labeler
			err := e.AddQuery(Query{Name: q.Name, Anchors: q.Anchors, Delta: q.Delta, Threshold: q.Threshold,
				Labeler: func(anchor, step int) (float64, bool) { return lab(e.Graph(), anchor, step) }})
			if err != nil {
				t.Fatal(err)
			}
		}
		return e, stream.NewReplayer(e.Graph(), ds.Source(), 0)
	}
	run := func(e *Engine, rep *stream.Replayer, steps int) {
		for i := 0; i < steps && rep.Advance(); i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	e1, rep1 := newRun()
	run(e1, rep1, saveAt)
	if e1.Telemetry().SkippedRows == 0 {
		t.Fatal("no row was held before the checkpoint; the test proved nothing")
	}
	ckpt := saved(t, e1)
	run(e1, rep1, total)

	e2, rep2 := newRun()
	for i := 0; i < saveAt; i++ {
		rep2.Advance()
	}
	if err := e2.LoadCheckpoint(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	run(e2, rep2, total)
	if e2.CurrentStep() != e1.CurrentStep() {
		t.Fatalf("resumed run stopped at step %d, uninterrupted at %d", e2.CurrentStep(), e1.CurrentStep())
	}
	if !bytes.Equal(saved(t, e1), saved(t, e2)) {
		t.Fatal("resumed run's checkpoint differs from the uninterrupted run's")
	}
}

// inexactSpliceKinds are the kinds whose splice leaves rows that are neither
// a full forward's nor held (ROADMAP item 19): their forward reads inputs
// farther out than Layers() hops, so Ball(dirty, L) misses some of the rows
// a change reaches. The change that fixes the frontier empties this list.
var inexactSpliceKinds = map[string]bool{"TGCN": true, "DCRNN": true, "RTGCN": true}

// TestSpliceRowsExactOrHeld is the splice's property on the bitcoin-serve
// shape (Bitcoin, Interval 5, incremental forwards): on every splice step each
// row is bit-equal, embedding and state, to a full forward from the same
// parameters and state, or held, keeping the previous step's embedding and
// state. It holds for every kind but inexactSpliceKinds, which must still
// break it.
func TestSpliceRowsExactOrHeld(t *testing.T) {
	const steps = 40
	ds, err := workload.ByName("Bitcoin", workload.GenConfig{Seed: 1, Steps: steps, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range dgnn.Kinds() {
		model := kind.String()
		r := newHalvesRun(t, ds, Config{Model: model, Strategy: StrategyKDE, Seed: 1, Interval: 5, IncrementalForward: true})
		e := r.e
		splices, badSteps, badRows := 0, 0, 0
		for r.rep.Advance() {
			prevEmb, incBefore := e.lastEmb, e.Telemetry().IncrementalForwards
			params, before := dgnn.DumpParams(e.model.Params()), e.model.DumpState()
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if tel := e.Telemetry(); tel.IncrementalForwards == incBefore || tel.ForwardRows == 0 {
				continue
			}
			splices++
			want, wantState := referenceForward(t, e, params, before)
			after, bad := e.model.DumpState(), 0
			for v := 0; v < e.NumNodes(); v++ {
				got := e.lastEmb.Row(v)
				exact := equalBits(got, want.Row(v)) && equalBits(stateRow(after, v), stateRow(wantState, v))
				held := v < prevEmb.Rows() && equalBits(got, prevEmb.Row(v)) && equalBits(stateRow(after, v), stateRow(before, v))
				if !exact && !held {
					bad++
				}
			}
			if bad > 0 {
				badSteps++
				badRows += bad
			}
		}
		t.Logf("%s: %d of %d splice steps, %d rows neither exact nor held", model, badSteps, splices, badRows)
		switch {
		case splices == 0:
			t.Errorf("%s: no step spliced; the test proved nothing", model)
		case inexactSpliceKinds[model] && badRows == 0:
			t.Errorf("%s: every spliced row is exact or held; drop it from inexactSpliceKinds", model)
		case !inexactSpliceKinds[model] && badRows > 0:
			t.Errorf("%s: %d of %d splice steps left %d rows neither exact nor held", model, badSteps, splices, badRows)
		}
	}
}
