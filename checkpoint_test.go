package streamgnn

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamgnn/internal/dgnn"
	"streamgnn/internal/query"
	"streamgnn/internal/wire/wiretest"
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
// one.
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
	if !e1.lastEmb.Dense().Equal(e2.lastEmb.Dense()) {
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

// Resume equality with the deprecated DependencySchedule and Workers set:
// a run configured for them must still resume bit for bit, counters
// included (Stats are compared verbatim above).
func TestCheckpointResumeEqualityDependencySchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	cfg.DependencySchedule = true
	cfg.Workers = 4
	resumeEquality(t, cfg)
}

// Resume equality with the incremental forward path: the checkpoint carries
// the embedding cache (v3), and the resumed run must splice into it exactly
// as the uninterrupted run did. Interval 3 mixes trained steps (cache
// invalidated, full forward) with incremental ones across the save point;
// every non-trained step is incremental.
func TestCheckpointResumeEqualityIncremental(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	cfg.Interval = 3
	cfg.IncrementalForward = true
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

// A checkpoint written before a Config knob is retired still loads and
// steps: checkpoints carry learned and runtime state, never the Config, so
// retiring a knob cannot strand them. testdata/checkpoint_v9.ckpt is what
// endToEnd wrote at step 4 with Hidden 4 when v9 became the format.
func TestLoadCheckpointFromBeforeKnobRetirement(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint_v9.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 4
	e := ringEngine(t, cfg)
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

// ringEngine is a fresh engine over endToEnd's 12-node ring, not stepped.
func ringEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
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
	return e
}

// saved returns the engine's checkpoint bytes.
func saved(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The gob checkpoints of v7 and earlier are refused with an error naming
// their format, by PeekCheckpoint and LoadCheckpoint alike, and the refused
// load leaves the engine as it was.
func TestCheckpointRefusesGob(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint_pr12_v7.gob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PeekCheckpoint(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("PeekCheckpoint of a gob checkpoint: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 4
	e := ringEngine(t, cfg)
	before := saved(t, e)
	if err := e.LoadCheckpoint(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("LoadCheckpoint of a gob checkpoint: %v", err)
	}
	if !bytes.Equal(saved(t, e), before) {
		t.Fatal("the refused gob checkpoint changed the engine")
	}
}

// A v8 checkpoint, which carried the conflict-group schedule's counters, is
// refused with an error naming its version, by PeekCheckpoint and
// LoadCheckpoint alike, and the refused load leaves the engine as it was.
func TestCheckpointRefusesV8(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint_v8.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PeekCheckpoint(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version 8") {
		t.Fatalf("PeekCheckpoint of a v8 checkpoint: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 4
	e := ringEngine(t, cfg)
	before := saved(t, e)
	if err := e.LoadCheckpoint(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version 8") {
		t.Fatalf("LoadCheckpoint of a v8 checkpoint: %v", err)
	}
	if !bytes.Equal(saved(t, e), before) {
		t.Fatal("the refused v8 checkpoint changed the engine")
	}
}

// A checkpoint that does not fit the engine it is loaded into — a KDE seed
// past the graph's last node, a chip count below the floor, link-task state
// for an engine without the link task, an embedding cache whose shape is
// negative, a recurrent-state matrix of the wrong width — is refused by
// LoadCheckpoint itself, with an error and before any section installs:
// the engine's own checkpoint (parameters, optimizer moments, chips, seed
// window, workload, step) reads the same bytes after the refusal as before.
func TestLoadCheckpointRejectsLearnerStateOutsideGraph(t *testing.T) {
	cfg := DefaultConfig() // KDE: the checkpoint carries chips and a seed window
	cfg.Hidden = 8
	good, err := decodeCheckpoint(bytes.NewReader(saved(t, endToEnd(t, cfg, 8))))
	if err != nil {
		t.Fatal(err)
	}
	if len(good.KDESeeds) == 0 || len(good.Chips) == 0 || len(good.Opt.Moments) == 0 {
		t.Fatalf("checkpoint carries no learner state to corrupt: %d seeds, %d chips", len(good.KDESeeds), len(good.Chips))
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
		"link-task state without a link task": func(ck *checkpoint) {
			ck.Workload.Link = &query.LinkState{LastStep: 7}
		},
		"embedding cache of a negative shape": func(ck *checkpoint) {
			ck.Emb = &dgnn.StateDump{Rows: -1, Cols: -1, Data: []float64{0}}
		},
		"recurrent state of the wrong width": func(ck *checkpoint) {
			last := ck.States[len(ck.States)-1]
			ck.States = append(ck.States[:len(ck.States)-1:len(ck.States)-1],
				dgnn.StateDump{Rows: last.Rows, Cols: last.Cols + 1, Data: make([]float64, last.Rows*(last.Cols+1))})
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := *good
			corrupt(&bad)
			data, err := bad.encode()
			if err != nil {
				t.Fatal(err)
			}
			e2 := ringEngine(t, cfg)
			lab := func(anchor, step int) (float64, bool) { return 1, true }
			if err := e2.AddQuery(Query{Name: "activity", Anchors: []int{0, 5}, Delta: 1, Labeler: lab}); err != nil {
				t.Fatal(err)
			}
			before := saved(t, e2)
			if err := e2.LoadCheckpoint(bytes.NewReader(data)); err == nil {
				t.Fatal("checkpoint accepted")
			}
			if !bytes.Equal(saved(t, e2), before) {
				t.Fatal("the refused load changed the engine")
			}
		})
	}
}

// canonicalRun drives detStream with the link task and two event queries —
// six anchors, so the revealed targets gob wrote in map order hold six
// nodes — through steps mutations, stepping each one when step is set.
func canonicalRun(t *testing.T, steps int, step bool) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hidden = 4
	e, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableLinkPrediction()
	d := newDetStream(5, 12, steps)
	d.init(t, e)
	err = e.AddQuery(Query{Name: "parity", Anchors: []int{1, 2, 3, 4}, Delta: 1, Threshold: 0.5,
		Labeler: func(anchor, step int) (float64, bool) { return float64((anchor + step) % 2), true }})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		d.mutate(e, s)
		if step {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// A checkpoint is canonical: two identical runs write identical bytes, and
// an engine restored from a checkpoint saves that checkpoint again, byte
// for byte.
func TestCheckpointBytesCanonical(t *testing.T) {
	const steps = 6
	first := saved(t, canonicalRun(t, steps, true))
	if again := saved(t, canonicalRun(t, steps, true)); !bytes.Equal(first, again) {
		t.Fatalf("two identical runs wrote different checkpoints (%d and %d bytes)", len(first), len(again))
	}
	ck, err := decodeCheckpoint(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Workload.Revealed) < 2 || ck.Workload.Link == nil || len(ck.Workload.Pending) == 0 {
		t.Fatalf("the run checkpoints %d revealed targets, %d pending, link %v: too little to prove order",
			len(ck.Workload.Revealed), len(ck.Workload.Pending), ck.Workload.Link != nil)
	}
	resumed := canonicalRun(t, steps, false)
	if err := resumed.LoadCheckpoint(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if again := saved(t, resumed); !bytes.Equal(first, again) {
		t.Fatal("save -> load -> save wrote different bytes")
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzCheckpointDecode from a fresh canonicalRun")

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder under
// the harness every wire decoder shares (wiretest.Check). Its seed corpus is
// canonicalRun's checkpoint; TestCheckpointCorpusDecodes keeps it current.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add(append([]byte(checkpointMagic), checkpointVersion, 0x80, 0x80, 0x80, 0x80, 0x10)) // 2^32-byte model name
	decode := func(data []byte) (func() ([]byte, error), error) {
		ck, err := decodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return ck.encode, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Check(t, data, "checkpoint", decode) })
}

func TestCheckpointCorpusDecodes(t *testing.T) {
	path := "testdata/fuzz/FuzzCheckpointDecode/link-and-events"
	if *updateCorpus {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", saved(t, canonicalRun(t, 6, true)))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var seed []byte
	if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\n[]byte(%q)", &seed); err != nil {
		t.Fatalf("not a one-value corpus file: %v", err)
	}
	if _, err := decodeCheckpoint(bytes.NewReader(seed)); err != nil {
		t.Fatal(err)
	}
}
