package core

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/query"
	"streamgnn/internal/tensor"
)

// workloadSetup builds a ring with anchors, predicts and reveals once so the
// workload has revealed targets and replay material.
func workloadSetup(t *testing.T, cfg Config) (*graph.Dynamic, *Trainer, *query.Workload) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	g := graph.NewDynamic(2)
	const n = 14
	for i := 0; i < n; i++ {
		g.AddNode(0, []float64{float64(i % 2), 1})
		g.SetLabel(i, float64(i%2))
	}
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n, 0, 0)
	}
	m := dgnn.NewTGCN(rng, 2, 4)
	heads := query.NewHeads(rng, 4)
	w := query.NewWorkload(heads)
	w.AddQuery(&query.EventQuery{
		Name:    "q",
		Anchors: []int{0, 3, 7},
		Delta:   1,
		Labeler: func(_ *graph.Dynamic, anchor, step int) (float64, bool) {
			return float64(anchor), true
		},
	})
	opt := autodiff.NewAdam(cfg.LR, append(m.Params(), heads.Params()...))
	tr := NewTrainer(g, m, w, opt, cfg, rng)
	// One predict/reveal cycle to populate targets and replay.
	m.BeginStep(0)
	tp := autodiff.NewTape()
	emb := m.Forward(tp, dgnn.FullView(g))
	w.Predict(emb.Value, 0)
	w.Reveal(g, 1)
	return g, tr, w
}

func TestReplayTrainsHeadsAndCounts(t *testing.T) {
	cfg := DefaultConfig()
	_, tr, _ := workloadSetup(t, cfg)
	if _, ok := tr.TrainPartition(3); !ok {
		t.Fatal("partition should have material")
	}
	if tr.Stats.ReplayTargets == 0 {
		t.Fatal("replay targets not consumed")
	}
	if tr.Stats.SupNodeTargets == 0 {
		t.Fatal("revealed anchor targets not consumed")
	}
}

func TestReplayDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplaySize = 0
	_, tr, _ := workloadSetup(t, cfg)
	tr.TrainPartition(3)
	if tr.Stats.ReplayTargets != 0 {
		t.Fatal("replay ran despite ReplaySize=0")
	}
}

func TestSelfSupervisionIsCenterOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplaySize = 0
	_, tr, _ := workloadSetup(t, cfg)
	tr.TrainPartition(5)
	// The ring is fully labeled; a 2-hop ball holds 5 nodes, but only the
	// center's label may be used.
	if tr.Stats.SelfNodeTargets != 1 {
		t.Fatalf("self node targets = %d, want 1 (center only)", tr.Stats.SelfNodeTargets)
	}
}

func TestLinkSelfSupervisionGlobalNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.NewDynamic(2)
	const n = 20
	for i := 0; i < n; i++ {
		g.AddNode(0, []float64{float64(i % 3), 1})
	}
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n, 0, 0)
	}
	m := dgnn.NewROLAND(rng, 2, 4)
	heads := query.NewHeads(rng, 4)
	w := query.NewWorkload(heads)
	w.SetLinkTask(query.NewLinkPredTask(4))
	cfg := DefaultConfig()
	opt := autodiff.NewAdam(cfg.LR, append(m.Params(), heads.Params()...))
	tr := NewTrainer(g, m, w, opt, cfg, rng)
	// Observe embeddings so EmbeddingRow works.
	m.BeginStep(0)
	tp := autodiff.NewTape()
	emb := m.Forward(tp, dgnn.FullView(g))
	w.Predict(emb.Value, 0)
	if _, ok := tr.TrainPartition(3); !ok {
		t.Fatal("link self-supervision should provide material")
	}
	if tr.Stats.SupPairTargets == 0 {
		t.Fatal("no positive link pairs trained")
	}
	if tr.Stats.SelfEdgeTargets == 0 {
		t.Fatal("no global-negative link examples trained")
	}
}

func TestFullMaterialHasNoReplayFlag(t *testing.T) {
	cfg := DefaultConfig()
	_, tr, _ := workloadSetup(t, cfg)
	before := tr.Stats.ReplayTargets
	tr.TrainFull()
	if tr.Stats.ReplayTargets != before {
		t.Fatal("full training must not consume replay (it already sees all targets)")
	}
}

func TestTrainerStatsAccumulate(t *testing.T) {
	cfg := DefaultConfig()
	_, tr, _ := workloadSetup(t, cfg)
	tr.TrainPartition(0)
	s1 := tr.Stats
	tr.TrainPartition(0)
	if tr.Stats.SelfNodeTargets <= s1.SelfNodeTargets {
		t.Fatal("stats did not accumulate")
	}
	_ = tensor.New(1, 1) // keep tensor import for colVec coverage below
	if colVec([]float64{1, 2}).Rows != 2 {
		t.Fatal("colVec wrong")
	}
}
