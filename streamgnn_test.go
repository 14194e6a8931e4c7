package streamgnn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestModelNames(t *testing.T) {
	names := ModelNames()
	if len(names) != 8 || names[0] != "TGCN" || names[7] != "RTGCN" {
		t.Fatalf("ModelNames = %v", names)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(2, Config{Model: "Bogus"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewEngine(2, Config{Strategy: "bogus"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for name, set := range map[string]func(*Config){
		"Interval":          func(c *Config) { c.Interval = -2 },
		"PairsPerStep":      func(c *Config) { c.PairsPerStep = -1 },
		"Chips":             func(c *Config) { c.Chips = -1 },
		"Seeds":             func(c *Config) { c.Seeds = -1 },
		"Hidden":            func(c *Config) { c.Hidden = -1 },
		"WindowSteps":       func(c *Config) { c.WindowSteps = -1 },
		"RefreshEverySteps": func(c *Config) { c.RefreshEverySteps = -1 },
		"LearningRate":      func(c *Config) { c.LearningRate = -0.01 },
		"Shards":            func(c *Config) { c.Shards = -1 },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		if _, err := NewEngine(2, cfg); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("negative %s: error %v", name, err)
		}
	}
	if _, err := NewEngine(2, DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestStepOnEmptyGraphFails(t *testing.T) {
	e, _ := NewEngine(2, DefaultConfig())
	if err := e.Step(); err == nil {
		t.Fatal("empty-graph step accepted")
	}
}

func TestAddQueryValidation(t *testing.T) {
	e, _ := NewEngine(2, DefaultConfig())
	lab := func(a, s int) (float64, bool) { return 0, true }
	if err := e.AddQuery(Query{Name: "q", Delta: 1, Labeler: lab}); err == nil {
		t.Fatal("no anchors accepted")
	}
	if err := e.AddQuery(Query{Name: "q", Anchors: []int{0}, Labeler: lab}); err == nil {
		t.Fatal("zero delta accepted")
	}
	if err := e.AddQuery(Query{Name: "q", Anchors: []int{0}, Delta: 1}); err == nil {
		t.Fatal("nil labeler accepted")
	}
	if err := e.AddQuery(Query{Name: "q", Anchors: []int{0}, Delta: 1, Labeler: lab}); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

// endToEnd runs a small drifting stream through the engine and returns it.
func endToEnd(t *testing.T, cfg Config, steps int) *Engine {
	t.Helper()
	e, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	const n = 12
	truth := make(map[[2]int]float64) // (anchor, step) -> value
	for i := 0; i < n; i++ {
		e.AddNode(0, []float64{float64(i % 2), 0, 1})
		e.SetNodeLabel(i, float64(i%2))
	}
	for i := 0; i < n; i++ {
		e.AddUndirectedEdge(i, (i+1)%n, 0)
	}
	err = e.AddQuery(Query{
		Name:      "activity",
		Anchors:   []int{0, 5},
		Delta:     1,
		Threshold: 0.5,
		Labeler: func(anchor, step int) (float64, bool) {
			v, ok := truth[[2]int{anchor, step}]
			return v, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		// Per-step activity: feature-visible and autocorrelated.
		act := 0.5 + 0.4*float64(s%2)
		for _, a := range []int{0, 5} {
			e.SetFeature(a, []float64{act, 1, 1})
			truth[[2]int{a, s}] = act + 0.1*rng.Float64()
		}
		e.AddEdge(rng.Intn(n), rng.Intn(n), 0)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestEngineEndToEndAllStrategies(t *testing.T) {
	for _, strat := range []string{StrategyFull, StrategyWeighted, StrategyKDE} {
		cfg := DefaultConfig()
		cfg.Strategy = strat
		cfg.Hidden = 8
		e := endToEnd(t, cfg, 10)
		if e.CurrentStep() != 10 {
			t.Fatalf("%s: step = %d", strat, e.CurrentStep())
		}
		outs := e.Outcomes()
		if len(outs) == 0 {
			t.Fatalf("%s: no outcomes", strat)
		}
		m := e.Metrics()
		if m.N == 0 || m.MSE < 0 {
			t.Fatalf("%s: metrics empty", strat)
		}
		if emb := e.Embedding(0); len(emb) != 8 {
			t.Fatalf("%s: embedding dim %d", strat, len(emb))
		}
		if e.Embedding(-1) != nil || e.Embedding(10000) != nil {
			t.Fatalf("%s: out-of-range embedding not nil", strat)
		}
	}
}

func TestEngineAllModels(t *testing.T) {
	for _, name := range ModelNames() {
		cfg := DefaultConfig()
		cfg.Model = name
		cfg.Hidden = 6
		e := endToEnd(t, cfg, 6)
		if len(e.Outcomes()) == 0 {
			t.Fatalf("%s: no outcomes", name)
		}
	}
}

func TestEngineAlertsFire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	e, err := NewEngine(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e.AddNode(0, []float64{1, 1})
	}
	for i := 0; i < 6; i++ {
		e.AddUndirectedEdge(i, (i+1)%6, 0)
	}
	// A threshold below any plausible score guarantees alerts.
	err = e.AddQuery(Query{
		Name: "always", Anchors: []int{0}, Delta: 1, Threshold: -1e9,
		Labeler: func(a, s int) (float64, bool) { return 1, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	alerts := e.TakeAlerts()
	if len(alerts) != 1 || alerts[0].Query != "always" || alerts[0].ForStep != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if len(e.TakeAlerts()) != 0 {
		t.Fatal("TakeAlerts did not drain")
	}
}

func TestEngineLinkPrediction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	e, err := NewEngine(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableLinkPrediction()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 15; i++ {
		e.AddNode(0, []float64{float64(i % 3), 1})
	}
	for s := 0; s < 8; s++ {
		for k := 0; k < 6; k++ {
			u, v := rng.Intn(15), rng.Intn(15)
			if u != v {
				e.AddEdge(u, v, 0)
			}
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.N == 0 || m.MRR == 0 {
		t.Fatalf("link prediction produced no metrics: %+v", m)
	}
}

func TestEngineWindowExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowSteps = 2
	cfg.Hidden = 6
	e, err := NewEngine(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.AddNode(0, []float64{1, 1})
	}
	e.AddEdge(0, 1, 0) // stamped step 0
	for s := 0; s < 4; s++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.NumEdges() != 0 {
		t.Fatalf("old edge not expired: %d edges", e.NumEdges())
	}
}

func TestEngineGrowsMidStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 6
	e, err := NewEngine(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := e.AddNode(0, []float64{1, 0})
	b := e.AddNode(0, []float64{0, 1})
	e.AddUndirectedEdge(a, b, 0)
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	c := e.AddNode(0, []float64{1, 1})
	e.SetNodeLabel(c, 1)
	e.AddUndirectedEdge(b, c, 0)
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if e.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", e.NumNodes())
	}
	if len(e.Embedding(c)) == 0 {
		t.Fatal("new node has no embedding")
	}
}

func TestDriftDetectionFiresOnRegimeChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	cfg.DriftDetection = true
	e, err := NewEngine(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		e.AddNode(0, []float64{1, 1})
	}
	for i := 0; i < n; i++ {
		e.AddUndirectedEdge(i, (i+1)%n, 0)
	}
	level := 1.0
	truth := map[int]float64{}
	err = e.AddQuery(Query{
		Name: "q", Anchors: []int{0}, Delta: 1, Threshold: 1e9,
		Labeler: func(anchor, step int) (float64, bool) {
			v, ok := truth[step]
			return v, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for step := 0; step < 40; step++ {
		if step == 25 {
			level = 50 // abrupt regime change the model cannot anticipate
		}
		truth[step] = level
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.DriftDetected() {
			if step < 25 {
				t.Fatalf("false drift alarm at step %d", step)
			}
			fired = true
		}
	}
	if !fired {
		t.Fatal("drift never detected after the regime change")
	}
}

func TestDriftDetectionDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 6
	e := endToEnd(t, cfg, 6)
	if e.DriftDetected() {
		t.Fatal("drift flag set without detection enabled")
	}
}

// TestEngineDeterministicAcrossWorkers checks that the Workers setting does
// not change what the engine predicts, measures or embeds.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Engine {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyWeighted
		cfg.Hidden = 8
		cfg.PairsPerStep = 3
		cfg.Workers = workers
		return endToEnd(t, cfg, 10)
	}
	e1, e4 := run(1), run(4)
	o1, o4 := e1.Outcomes(), e4.Outcomes()
	if len(o1) == 0 || len(o1) != len(o4) {
		t.Fatalf("outcome counts %d vs %d", len(o1), len(o4))
	}
	for i := range o1 {
		if o1[i] != o4[i] {
			t.Fatalf("outcome %d diverged: %+v vs %+v", i, o1[i], o4[i])
		}
	}
	m1, m4 := e1.Metrics(), e4.Metrics()
	sameFloat := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	if m1.N != m4.N || !sameFloat(m1.MSE, m4.MSE) || !sameFloat(m1.Accuracy, m4.Accuracy) ||
		!sameFloat(m1.AUC, m4.AUC) || !sameFloat(m1.MRR, m4.MRR) {
		t.Fatalf("metrics diverged: %+v vs %+v", m1, m4)
	}
	for v := 0; v < e1.NumNodes(); v++ {
		b1, b4 := e1.Embedding(v), e4.Embedding(v)
		for j := range b1 {
			if b1[j] != b4[j] {
				t.Fatalf("embedding of %d diverged at %d: %v vs %v", v, j, b1[j], b4[j])
			}
		}
	}
	s1, s4 := e1.Stats(), e4.Stats()
	if s1.TrainedPartitions != s4.TrainedPartitions || s1.ChipEntropy != s4.ChipEntropy {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s4)
	}
}

// TestRetiredParallelKnobsAreNoOps holds the deprecated Workers and
// DependencySchedule to what their docs promise: any setting of them trains
// exactly as the defaults do — the checkpoint, which carries θ, optimizer
// moments, chips and counters, is the same bytes — and the schedule counters
// stay 0.
func TestRetiredParallelKnobsAreNoOps(t *testing.T) {
	run := func(workers int, sched bool) *Engine {
		cfg := DefaultConfig()
		cfg.Strategy = StrategyWeighted
		cfg.Hidden = 8
		cfg.PairsPerStep = 3
		cfg.Workers = workers
		cfg.DependencySchedule = sched
		return endToEnd(t, cfg, 10)
	}
	want := saved(t, run(0, false))
	for _, workers := range []int{-1, 0, 4} {
		for _, sched := range []bool{false, true} {
			e := run(workers, sched)
			if !bytes.Equal(saved(t, e), want) {
				t.Errorf("Workers %d, DependencySchedule %v: checkpoint differs from the default run's", workers, sched)
			}
			if s := e.Stats(); s.SchedSteps != 0 || s.SchedGroups != 0 || s.SchedCollapsedSteps != 0 {
				t.Errorf("Workers %d, DependencySchedule %v: schedule counters %d/%d/%d, want 0",
					workers, sched, s.SchedSteps, s.SchedGroups, s.SchedCollapsedSteps)
			}
		}
	}
}

// TestEngineCacheStatsObservable pins the deprecated cache shims the
// benchmark harness still reads: partitions are extracted fresh, so the
// cache counters read 0 and the harness's flush finds no cache.
func TestEngineCacheStatsObservable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 8
	e := endToEnd(t, cfg, 10)
	s := e.Stats()
	if s.TrainedPartitions == 0 {
		t.Fatalf("no partitions trained: %+v", s)
	}
	if s.CacheHits != 0 || s.CacheMisses != 0 || s.CacheHitRate != 0 {
		t.Fatalf("partition cache counters reported: %+v", s)
	}
	if e.g.PartitionCache() != nil {
		t.Fatal("a partition cache is attached")
	}
}

func TestEngineStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKDE
	cfg.Hidden = 8
	e := endToEnd(t, cfg, 10)
	s := e.Stats()
	if s.TrainedPartitions == 0 {
		t.Fatal("no partitions reported")
	}
	if s.SupNodeTargets == 0 && s.ReplayTargets == 0 {
		t.Fatal("no supervised material reported")
	}
	if s.ChipEntropy <= 0 || s.ChipEntropy > 1 {
		t.Fatalf("chip entropy %v out of (0,1]", s.ChipEntropy)
	}
	if len(s.TopChipNodes) == 0 || len(s.TopChipNodes) > 5 {
		t.Fatalf("top chip nodes %v", s.TopChipNodes)
	}
	// Full strategy exposes trainer counters but no chip state.
	cfgFull := DefaultConfig()
	cfgFull.Strategy = StrategyFull
	cfgFull.Hidden = 8
	ef := endToEnd(t, cfgFull, 5)
	sf := ef.Stats()
	if sf.TrainedPartitions != 0 || sf.ChipEntropy != 0 || sf.TopChipNodes != nil {
		t.Fatalf("full-strategy stats should carry no chip state: %+v", sf)
	}
	if sf.SelfNodeTargets == 0 {
		t.Fatal("full-strategy trainer counters missing")
	}
	// Before the first step, stats are zero-valued.
	fresh, _ := NewEngine(2, DefaultConfig())
	if s := fresh.Stats(); s.TrainedPartitions != 0 || s.ChipEntropy != 0 {
		t.Fatal("fresh engine should report empty stats")
	}
}
