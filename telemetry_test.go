package streamgnn

import "testing"

func TestTelemetryPopulated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 6
	cfg.WindowSteps = 4
	e := endToEnd(t, cfg, 5)

	tel := e.Telemetry()
	if tel.Steps != 5 {
		t.Fatalf("Steps = %d, want 5", tel.Steps)
	}
	if tel.Step.Count != 5 {
		t.Fatalf("whole-step histogram count = %d, want 5", tel.Step.Count)
	}
	if tel.Step.Sum <= 0 {
		t.Fatalf("whole-step histogram sum = %v, want > 0", tel.Step.Sum)
	}
	for _, name := range StepPhases() {
		h, ok := tel.Phases[name]
		if !ok {
			t.Fatalf("phase %q missing from telemetry", name)
		}
		if h.Count != 5 {
			t.Fatalf("phase %q count = %d, want 5", name, h.Count)
		}
		var bucketed int64
		for _, c := range h.Counts {
			bucketed += c
		}
		if bucketed != h.Count {
			t.Fatalf("phase %q buckets sum to %d, count is %d", name, bucketed, h.Count)
		}
		if len(h.Counts) != len(h.Bounds)+1 {
			t.Fatalf("phase %q has %d counts for %d bounds", name, len(h.Counts), len(h.Bounds))
		}
	}
	// Phase times nest inside the whole-step time: the phases on the step's
	// own goroutine together, and reveal and train, which run beside the
	// forward on another, together.
	var serialSum float64
	for _, name := range []string{PhaseExpire, PhaseForward, PhasePredict} {
		serialSum += tel.Phases[name].Sum
	}
	besideSum := tel.Phases[PhaseReveal].Sum + tel.Phases[PhaseTrain].Sum
	if serialSum > tel.Step.Sum || besideSum > tel.Step.Sum {
		t.Fatalf("phase sums (%v serial, %v reveal + train) exceed whole-step sum (%v)", serialSum, besideSum, tel.Step.Sum)
	}
	// Four of the five steps train beside their inference half; the first
	// keeps the serial order.
	if tel.StepJoinWait.Count != 4 {
		t.Fatalf("join-wait histogram count = %d, want 4", tel.StepJoinWait.Count)
	}
	// The steps above drew their buffers through the pool and recycled them.
	if tel.TensorPoolGets == 0 || tel.TensorPoolHits == 0 || tel.TensorPoolHits > tel.TensorPoolGets || tel.TensorFreshBytes == 0 {
		t.Fatalf("tensor pool counters gets=%d hits=%d fresh=%d", tel.TensorPoolGets, tel.TensorPoolHits, tel.TensorFreshBytes)
	}
	// The window expired the ring at the last step, which made every node
	// dirty: all 12 rows advanced. A node that joins without an edge advances
	// once, as a dirty row; on the step after it is held with every other
	// edgeless row that is no anchor, and SkippedRows counts the held rows.
	if tel.ForwardRows != 12 {
		t.Fatalf("last forward advanced %d rows, want 12", tel.ForwardRows)
	}
	v := e.AddNode(0, []float64{0, 0, 1})
	for s := 0; s < 2; s++ {
		live := 0
		for u := 0; u < e.NumNodes(); u++ {
			if e.Graph().Degree(u) > 0 || u == 0 || u == 5 || u == v && s == 0 {
				live++
			}
		}
		before := e.Telemetry().SkippedRows
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		after := e.Telemetry()
		if after.ForwardRows != int64(live) || after.SkippedRows-before != int64(13-live) {
			t.Fatalf("step %d after an isolated node joined: %d rows advanced and %d held, want %d and %d",
				s, after.ForwardRows, after.SkippedRows-before, live, 13-live)
		}
	}
}

func TestTelemetryZeroBeforeStepping(t *testing.T) {
	e, err := NewEngine(3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tel := e.Telemetry()
	if tel.Steps != 0 || tel.Step.Count != 0 {
		t.Fatalf("fresh engine reports telemetry: %+v", tel)
	}
	if got := len(tel.Phases); got != len(StepPhases()) {
		t.Fatalf("fresh engine has %d phase histograms, want %d", got, len(StepPhases()))
	}
}

// TestTelemetryAccountsForTrainingRounds checks the round accounting sums to
// its parts: rounds, units and union rows count what the scheduler ran, every
// part has time on it, and together the parts are the train phase to within
// 5 % — "why was training slow" is answerable from the running process.
func TestTelemetryAccountsForTrainingRounds(t *testing.T) {
	const steps = 20
	cfg := DefaultConfig()
	cfg.Hidden = 8
	cfg.PairsPerStep = 8
	e := endToEnd(t, cfg, steps)
	tel, st := e.Telemetry(), e.Stats()
	// Every step trains the same whole number of rounds of 2·PairsPerStep units.
	rounds := tel.TrainRounds
	if rounds < steps || rounds%steps != 0 || tel.TrainUnits != rounds*int64(2*cfg.PairsPerStep) {
		t.Fatalf("%d rounds of %d units over %d steps of %d pairs", rounds, tel.TrainUnits, steps, cfg.PairsPerStep)
	}
	if tel.TrainUnits != int64(st.TrainedPartitions) {
		t.Fatalf("%d units in rounds, %d partitions trained", tel.TrainUnits, st.TrainedPartitions)
	}
	// A partition of the 12-node ring holds its center and at least two
	// neighbours, and never more than the graph.
	if tel.TrainUnionRows < 3*tel.TrainUnits || tel.TrainUnionRows > 12*tel.TrainUnits {
		t.Fatalf("%d union rows for %d units", tel.TrainUnionRows, tel.TrainUnits)
	}
	var parts float64
	for _, name := range TrainRoundParts() {
		sec, ok := tel.TrainRoundSeconds[name]
		if !ok || sec <= 0 {
			t.Fatalf("round part %q has %v seconds on it", name, sec)
		}
		parts += sec
	}
	if len(tel.TrainRoundSeconds) != len(TrainRoundParts()) {
		t.Fatalf("round parts %v, want %v", tel.TrainRoundSeconds, TrainRoundParts())
	}
	train := tel.Phases[PhaseTrain].Sum
	if parts > train || parts < 0.95*train {
		t.Fatalf("round parts sum to %.6fs, the train phase to %.6fs: more than 5%% unaccounted", parts, train)
	}

	// A full-graph pass is a round of one unit over every row.
	cfg.Strategy = StrategyFull
	tel = endToEnd(t, cfg, 5).Telemetry()
	if tel.TrainRounds < 5 || tel.TrainUnits != tel.TrainRounds || tel.TrainUnionRows != 12*tel.TrainRounds {
		t.Fatalf("full strategy: %d rounds, %d units, %d rows", tel.TrainRounds, tel.TrainUnits, tel.TrainUnionRows)
	}
}

// The demand-row counters say how far each incremental forward had to reach:
// the exact rows, the rows within a hop, the compute region. They nest, the
// region count is what SkippedRows leaves of the graph, and shards — whose
// parts are whole components — cover the same rows at every depth.
func TestTelemetryForwardDemandRows(t *testing.T) {
	base := DefaultConfig()
	base.Model = "TGCN"
	base.Hidden = 6
	base.Seed = 3
	base.Interval = 10
	eFlat, eShard := shardedPair(t, base, 3, "hash")
	const n, steps = 60, 40
	runShardedEquality(t, eFlat, eShard, n, steps)
	flat, sharded := eFlat.Telemetry(), eShard.Telemetry()
	d := flat.ForwardDemandRows
	if d[0] <= 0 || d[0] > d[1] || d[1] > d[2] {
		t.Fatalf("demand rows %v do not nest", d)
	}
	if sharded.ForwardDemandRows != d {
		t.Fatalf("demand rows %v unsharded, %v over 3 shards", d, sharded.ForwardDemandRows)
	}
	// The stream never goes quiet and never grows, so every incremental step
	// skipped n minus its region.
	if want := flat.IncrementalForwards*n - flat.SkippedRows; d[2] != want {
		t.Fatalf("region rows %d, want %d (%d incremental steps of %d nodes, %d skipped)", d[2], want, flat.IncrementalForwards, n, flat.SkippedRows)
	}
	if flat.FullForwards == 0 || flat.IncrementalForwards == 0 {
		t.Fatalf("run took %d full and %d incremental forwards; the test needs both", flat.FullForwards, flat.IncrementalForwards)
	}
}
