package core

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/nn"
	"streamgnn/internal/query"
)

// testSetup builds a small labeled ring graph, model, workload and trainer.
func testSetup(t *testing.T, n int, strategy Strategy) (*graph.Dynamic, *Trainer, Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := graph.NewDynamic(3)
	for i := 0; i < n; i++ {
		g.AddNode([]float64{float64(i % 2), float64(i % 3), 1})
		g.SetLabel(i, float64(i%2))
	}
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n, 0, 0)
	}
	m := dgnn.NewTGCN(rng, 3, 4)
	heads := query.NewHeads(rng, 4)
	w := query.NewWorkload(heads)
	cfg := DefaultConfig()
	params := append(m.Params(), heads.Params()...)
	opt := m.WrapOptimizer(autodiff.NewAdam(cfg.LR, params))
	return g, NewTrainer(g, m, w, opt, cfg, rng), cfg
}

func TestStrategyStringParse(t *testing.T) {
	for _, s := range []Strategy{Full, Weighted, KDE} {
		parsed, err := ParseStrategy(s.String())
		if err != nil || parsed != s {
			t.Fatalf("round trip failed for %v", s)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.PairsPerStep = 0 },
		func(c *Config) { c.PUpdate = 1.5 },
		func(c *Config) { c.Interval = 0 },
		func(c *Config) { c.Seeds = 0 },
		func(c *Config) { c.StopProb = 0 },
		func(c *Config) { c.SeedKeep = -0.1 },
		func(c *Config) { c.LR = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d not rejected", i)
		}
	}
}

func TestTrainPartitionReturnsUtilityAndLearns(t *testing.T) {
	_, tr, _ := testSetup(t, 12, Weighted)
	u0, ok := tr.EvalPartition(3)
	if !ok {
		t.Fatal("no training material in labeled partition")
	}
	for i := 0; i < 50; i++ {
		if _, ok := tr.TrainPartition(3); !ok {
			t.Fatal("training refused")
		}
	}
	u1, _ := tr.EvalPartition(3)
	if u1 >= u0 {
		t.Fatalf("partition training did not reduce loss: %v -> %v", u0, u1)
	}
}

func TestTrainFullLearns(t *testing.T) {
	_, tr, _ := testSetup(t, 12, Full)
	l0, ok := tr.TrainFull()
	if !ok {
		t.Fatal("full training found no material")
	}
	var l1 float64
	for i := 0; i < 50; i++ {
		l1, _ = tr.TrainFull()
	}
	if l1 >= l0 {
		t.Fatalf("full training did not reduce loss: %v -> %v", l0, l1)
	}
}

func TestTrainPartitionNoMaterial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.NewDynamic(2)
	for i := 0; i < 4; i++ {
		g.AddNode(nil) // no labels anywhere
	}
	m := dgnn.NewTGCN(rng, 2, 3)
	heads := query.NewHeads(rng, 3)
	w := query.NewWorkload(heads)
	cfg := DefaultConfig()
	opt := autodiff.NewAdam(cfg.LR, nn.CollectParams(m))
	tr := NewTrainer(g, m, w, opt, cfg, rng)
	if _, ok := tr.TrainPartition(0); ok {
		t.Fatal("training without material should report ok=false")
	}
	if _, ok := tr.TrainFull(); ok {
		t.Fatal("full training without material should report ok=false")
	}
}

func TestAdaptiveLearnerStepMaintainsInvariants(t *testing.T) {
	g, tr, cfg := testSetup(t, 16, Weighted)
	rng := rand.New(rand.NewSource(5))
	a := NewAdaptiveLearner(tr, cfg, Weighted, rng)
	for step := 0; step < 30; step++ {
		a.Step(g.Updated())
		g.ResetUpdated()
	}
	if a.Trained == 0 {
		t.Fatal("no partitions trained")
	}
	total := 0
	for v := 0; v < len(a.Chips.Counts()); v++ {
		cnt := a.Chips.Counts()[v]
		if cnt < a.Chips.MinChips {
			t.Fatalf("node %v dropped below chip floor", v)
		}
		total += cnt
	}
	if total != a.Chips.Total() || total != cfg.K*16 {
		t.Fatalf("chip total drifted: %d", total)
	}
	p := a.Probabilities()
	var sum float64
	for _, x := range p {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestAdaptiveLearnerGrowsWithGraph(t *testing.T) {
	g, tr, cfg := testSetup(t, 8, Weighted)
	rng := rand.New(rand.NewSource(6))
	a := NewAdaptiveLearner(tr, cfg, Weighted, rng)
	a.Step(nil)
	v := g.AddNode([]float64{1, 1, 1})
	g.SetLabel(v, 1)
	g.AddUndirectedEdge(v, 0, 0, 1)
	a.Step(g.Updated())
	if len(a.Chips.Counts()) != 9 || a.Chips.Counts()[v] < a.Chips.MinChips {
		t.Fatal("new node not covered by chips")
	}
}

func TestAdaptiveLearnerUpdateBias(t *testing.T) {
	// With PUpdate = 1 and a single-node update set, every sample must be
	// that node.
	g, tr, cfg := testSetup(t, 10, Weighted)
	cfg.PUpdate = 1
	rng := rand.New(rand.NewSource(7))
	a := NewAdaptiveLearner(tr, cfg, Weighted, rng)
	_ = g
	for i := 0; i < 20; i++ {
		if got := a.getSampleNode([]int{4}); got != 4 {
			t.Fatalf("update bias ignored: sampled %d", got)
		}
	}
}

func TestAdaptiveLearnerRejectsFullStrategy(t *testing.T) {
	_, tr, cfg := testSetup(t, 6, Full)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdaptiveLearner(tr, cfg, Full, rand.New(rand.NewSource(1)))
}

func TestSchedulerInterval(t *testing.T) {
	_, tr, cfg := testSetup(t, 10, Weighted)
	cfg.Interval = 3
	s, err := NewScheduler(tr, cfg, Weighted, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for step := 0; step < 12; step++ {
		if s.OnStep(step, nil) {
			ran++
		}
	}
	if ran != 4 { // steps 0, 3, 6, 9
		t.Fatalf("trained on %d steps, want 4", ran)
	}
	if s.TrainSteps != 4 {
		t.Fatalf("TrainSteps = %d", s.TrainSteps)
	}
}

func TestSchedulerFullStrategy(t *testing.T) {
	_, tr, cfg := testSetup(t, 10, Full)
	s, err := NewScheduler(tr, cfg, Full, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Adaptive != nil {
		t.Fatal("Full strategy should have no adaptive learner")
	}
	if !s.OnStep(0, nil) {
		t.Fatal("training should run at step 0")
	}
}

func TestSchedulerValidatesConfig(t *testing.T) {
	_, tr, cfg := testSetup(t, 6, Full)
	cfg.K = 0
	if _, err := NewScheduler(tr, cfg, Weighted, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// Chips should concentrate on the region where training is persistently
// harder. We fix utilities by giving half the ring large-magnitude labels
// that the model cannot fit (label noise), making those partitions
// persistently high-loss.
func TestChipsConcentrateOnHardRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 20
	g := graph.NewDynamic(2)
	for i := 0; i < n; i++ {
		g.AddNode([]float64{1, 0})
		if i < n/2 {
			g.SetLabel(i, 0) // easy: constant target
		} else {
			g.SetLabel(i, 50) // hard: huge target, persistent loss
		}
	}
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n, 0, 0)
	}
	m := dgnn.NewWinGNN(rng, 2, 4) // stateless: utilities stay comparable
	heads := query.NewHeads(rng, 4)
	w := query.NewWorkload(heads)
	cfg := DefaultConfig()
	cfg.PUpdate = 0
	opt := autodiff.NewAdam(1e-4, append(m.Params(), heads.Params()...))
	tr := NewTrainer(g, m, w, opt, cfg, rng)
	a := NewAdaptiveLearner(tr, cfg, Weighted, rng)
	for i := 0; i < 400; i++ {
		a.Step(nil)
	}
	easy, hard := 0, 0
	for v := 0; v < n/2; v++ {
		easy += a.Chips.Counts()[v]
	}
	for v := n / 2; v < n; v++ {
		hard += a.Chips.Counts()[v]
	}
	if hard <= easy {
		t.Fatalf("chips did not concentrate on hard region: easy=%d hard=%d", easy, hard)
	}
}
