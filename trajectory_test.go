package streamgnn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"streamgnn/internal/stream"
	"streamgnn/internal/workload"
)

// trajectoryRuns are the pinned runs of TestTrajectoryDigestsPinned: one per
// model family the benchmark workloads exercise, each on its own generated
// stream, training every step unless its config sets an Interval, and the
// bitcoin-serve ledger workload's configuration, which splices between
// training steps. What each run pins is in trajectoryFile, under its name.
var trajectoryRuns = []struct {
	name, dataset string
	scale         float64
	cfg           Config
}{
	{"Taxi×DCRNN", "Taxi", 1, Config{Model: "DCRNN"}},
	{"Reddit×GCLSTM", "Reddit", 0.5, Config{Model: "GCLSTM", PairsPerStep: 4}},
	{"StackOverflow×EvolveGCN", "StackOverflow", 1, Config{Model: "EvolveGCN"}},
	{"Bitcoin×TGCN/incremental", "Bitcoin", 1, Config{Model: "TGCN", IncrementalForward: true}},
	{"Bitcoin×TGCN/splice", "Bitcoin", 1, Config{Model: "TGCN", IncrementalForward: true, Interval: 5}},
}

// trajectoryFile holds, per run name, the hex SHA-256 digests of the run's
// checkpoint bytes and of its resolved predictions (event outcomes, then link
// scores with their labels), and its quality: pred_mse and pred_auc as the
// benchmark ledger reads them, each as its float64 bits and its value.
const trajectoryFile = "testdata/trajectories.json"

type pinnedTrajectory struct {
	Ckpt     string `json:"ckpt"`
	Outcomes string `json:"outcomes"`
	PredMSE  string `json:"pred_mse"`
	PredAUC  string `json:"pred_auc"`
}

var updateTrajectories = flag.Bool("update", false, "rewrite "+trajectoryFile+" from this build's runs")

// pinnedFloat renders v as its bits, then its shortest decimal.
func pinnedFloat(v float64) string {
	return fmt.Sprintf("%#016x %s", math.Float64bits(v), strconv.FormatFloat(v, 'g', -1, 64))
}

// TestTrajectoryDigestsPinned pins the bits of five short runs across
// versions of the code: each run's canonical checkpoint (parameters,
// optimizer and recurrent state, sampler and workload state) and its
// resolved outcomes hash to digests written into the test. The other
// bit-equality tests compare two runs of one build; this one fails when a
// change to any layer moves a single bit of what a run computes.
//
// A change that means to move those bits re-pins them with
// `go test -run TestTrajectoryDigestsPinned -update .` and states the old and
// new quality of each run it moved.
func TestTrajectoryDigestsPinned(t *testing.T) {
	const steps = 12
	raw, err := os.ReadFile(trajectoryFile)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]pinnedTrajectory{}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	got := map[string]pinnedTrajectory{}
	for _, r := range trajectoryRuns {
		t.Run(r.name, func(t *testing.T) {
			ds, err := workload.ByName(r.dataset, workload.GenConfig{Seed: 1, Steps: steps, Scale: r.scale})
			if err != nil {
				t.Fatal(err)
			}
			cfg := r.cfg
			cfg.Strategy, cfg.Seed, cfg.WindowSteps = StrategyKDE, 1, ds.WindowSteps
			if cfg.Interval == 0 {
				cfg.Interval = 1
			}
			e, err := NewEngine(ds.FeatDim, cfg)
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
			if ds.LinkPred {
				e.EnableLinkPrediction()
			}
			rep := stream.NewReplayer(e.Graph(), ds.Source(), 0)
			for rep.Advance() {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var ckpt bytes.Buffer
			if err := e.SaveCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			put := func(v uint64, flag bool) {
				var b [9]byte
				binary.LittleEndian.PutUint64(b[:8], v)
				if flag {
					b[8] = 1
				}
				h.Write(b[:])
			}
			outs := e.Outcomes()
			for _, o := range outs {
				h.Write([]byte(o.Query))
				put(uint64(o.Anchor), false)
				put(uint64(o.Step), false)
				put(math.Float64bits(o.Truth), false)
				put(math.Float64bits(o.Score), o.Event)
			}
			resolved := len(outs)
			if lt := e.wl.LinkTask(); lt != nil {
				scores, labels := lt.Scores()
				for i, s := range scores {
					put(math.Float64bits(s), labels[i])
				}
				resolved += len(scores)
			}
			if resolved == 0 {
				t.Fatal("the run resolved no prediction")
			}
			gotCkpt := sha256.Sum256(ckpt.Bytes())
			m := e.Metrics()
			mse, auc := m.MSE, m.EventAUC
			if m.LinkN > 0 && m.EventN == 0 {
				mse, auc = 1-m.Accuracy, m.LinkAUC
			}
			run := pinnedTrajectory{Ckpt: hex.EncodeToString(gotCkpt[:]), Outcomes: hex.EncodeToString(h.Sum(nil)),
				PredMSE: pinnedFloat(mse), PredAUC: pinnedFloat(auc)}
			got[r.name] = run
			if *updateTrajectories {
				return
			}
			want, ok := pinned[r.name]
			if !ok {
				t.Fatalf("%s pins nothing for this run", trajectoryFile)
			}
			if run.Ckpt != want.Ckpt {
				t.Errorf("checkpoint digest %s, pinned %s", run.Ckpt, want.Ckpt)
			}
			if run.Outcomes != want.Outcomes {
				t.Errorf("outcome digest %s (%d resolved), pinned %s", run.Outcomes, resolved, want.Outcomes)
			}
			if run.PredMSE != want.PredMSE || run.PredAUC != want.PredAUC {
				t.Errorf("pred_mse %s, pred_auc %s; pinned %s, %s", run.PredMSE, run.PredAUC, want.PredMSE, want.PredAUC)
			}
		})
	}
	if *updateTrajectories && !t.Failed() {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
