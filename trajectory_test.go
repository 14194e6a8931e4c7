package streamgnn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"streamgnn/internal/stream"
	"streamgnn/internal/workload"
)

// trajectoryRuns are the pinned runs of TestTrajectoryDigestsPinned: one per
// model family the benchmark workloads exercise, each on its own generated
// stream, training every step.
var trajectoryRuns = []struct {
	name, dataset string
	scale         float64
	cfg           Config
	// ckpt and outcomes are the hex SHA-256 digests of the run's checkpoint
	// bytes and of its resolved predictions: event outcomes, then link
	// scores with their labels.
	ckpt, outcomes string
}{
	{"Taxi×DCRNN", "Taxi", 1, Config{Model: "DCRNN"},
		"9a24fd7c80510a37b61be9ff6588417730a053fc8a30197604fadba7eca5b599", "85c232e8b68ccf7e98c5653257ee0ba31b5c0674729deeea6c68bc34f6ed6260"},
	{"Reddit×GCLSTM", "Reddit", 0.5, Config{Model: "GCLSTM", PairsPerStep: 4},
		"dd6b2bea307630a4090f3d9cf3c78e47007cce48b7585f2683cde6f250a2293f", "ca55c3f0f7ada1d377ab0a2c919d93a0da4272bbdc47500f562074fe230bd463"},
	{"StackOverflow×EvolveGCN", "StackOverflow", 1, Config{Model: "EvolveGCN"},
		"d3c200df1d2ab68d65c2ca59ab845d09639726920340238f159571d5313d5ada", "7a9ab9d6adfaa58915c210bbbe84b205afce5806a9837b8518bab6cff25e4b55"},
	{"Bitcoin×TGCN/incremental", "Bitcoin", 1, Config{Model: "TGCN", IncrementalForward: true},
		"be8e81ba2c551c932c1fc970837c5789ee7e279dcd5d11865493272301c65873", "e1db596596631ec16a473757daee929eff6f2566b2794e968e94d641117b8c02"},
}

// TestTrajectoryDigestsPinned pins the bits of four short runs across
// versions of the code: each run's canonical checkpoint (parameters,
// optimizer and recurrent state, sampler and workload state) and its
// resolved outcomes hash to digests written into the test. The other
// bit-equality tests compare two runs of one build; this one fails when a
// change to any layer moves a single bit of what a run computes.
func TestTrajectoryDigestsPinned(t *testing.T) {
	const steps = 12
	for _, r := range trajectoryRuns {
		t.Run(r.name, func(t *testing.T) {
			ds, err := workload.ByName(r.dataset, workload.GenConfig{Seed: 1, Steps: steps, Scale: r.scale})
			if err != nil {
				t.Fatal(err)
			}
			cfg := r.cfg
			cfg.Strategy, cfg.Seed, cfg.Interval, cfg.WindowSteps = StrategyKDE, 1, 1, ds.WindowSteps
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
			gotCkpt, gotOut := sha256.Sum256(ckpt.Bytes()), h.Sum(nil)
			if got := hex.EncodeToString(gotCkpt[:]); got != r.ckpt {
				t.Errorf("checkpoint digest %s, pinned %s", got, r.ckpt)
			}
			if got := hex.EncodeToString(gotOut); got != r.outcomes {
				t.Errorf("outcome digest %s (%d resolved), pinned %s", got, resolved, r.outcomes)
			}
		})
	}
}
