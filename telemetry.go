package streamgnn

import (
	"sync/atomic"

	"streamgnn/internal/obs"
	"streamgnn/internal/tensor"
)

// Phase names of one Engine.Step, in the order they start. Each phase has its
// own latency histogram in Telemetry.Phases under these keys.
const (
	PhaseExpire  = "expire"  // sliding-window edge expiry
	PhaseReveal  = "reveal"  // truth reveal + drift observation
	PhaseForward = "forward" // full-snapshot forward inference
	PhasePredict = "predict" // query answering from fresh embeddings
	PhaseTrain   = "train"   // the strategy's online training
)

// indices into engineTelemetry.phases, aligned with StepPhases().
const (
	phaseExpire = iota
	phaseReveal
	phaseForward
	phasePredict
	phaseTrain
	numPhases
)

// TrainRoundParts returns the keys of Telemetry.TrainRoundSeconds, the parts
// of a training round: node sampling and chip moves, partition extraction
// plus the union build, the union forward, training material plus the
// stacked loss, the backward pass, the optimizer step. They run in that
// order but for the material, which is built before the forward (it names
// the rows the forward computes) and is timed under "loss" all the same.
func TrainRoundParts() []string {
	return []string{"sample", "extract", "forward", "loss", "backward", "optimizer"}
}

// StepPhases returns the phase names of one Step in the order they start.
func StepPhases() []string {
	return []string{PhaseExpire, PhaseReveal, PhaseForward, PhasePredict, PhaseTrain}
}

// engineTelemetry holds the engine's internal instruments. Histograms and
// counters are individually atomic, so Telemetry() may be called concurrently
// with Step — snapshots are only loosely consistent (counts may straddle an
// in-flight step), which is fine for monitoring.
type engineTelemetry struct {
	steps  obs.Counter
	step   *obs.Histogram
	phases [numPhases]*obs.Histogram
	// joinWait is how long a step waited at its join.
	joinWait *obs.Histogram

	// Forward-mode instruments: how many steps' forward rule advanced every
	// live row vs. only the dirty ones, how many embedding rows forwards held or reused,
	// and the distribution of the computed-row fraction per step.
	fullForwards obs.Counter
	incForwards  obs.Counter
	skippedRows  obs.Counter
	dirtyFrac    *obs.Histogram
	// Rows the incremental forwards of this process covered at depth 0 (the
	// exact rows), 1 (within a hop) and 2 (the compute region).
	demandRows [3]obs.Counter
	// The rows the last step's forward computed.
	fwdRows atomic.Int64

	// Sharded-pipeline instruments (nil/empty when Shards <= 1): the
	// latency of the deterministic cross-shard merge phase and, per shard,
	// the embedding rows its forwards contributed.
	shardMerge *obs.Histogram
	shardRows  []obs.Counter
}

func (t *engineTelemetry) init(shards int) {
	t.step = obs.NewHistogram(obs.DefaultLatencyBuckets())
	t.joinWait = obs.NewHistogram(obs.DefaultLatencyBuckets())
	for i := range t.phases {
		t.phases[i] = obs.NewHistogram(obs.DefaultLatencyBuckets())
	}
	t.dirtyFrac = obs.NewHistogram(obs.FractionBuckets())
	if shards > 1 {
		t.shardMerge = obs.NewHistogram(obs.DefaultLatencyBuckets())
		t.shardRows = make([]obs.Counter, shards)
	}
}

// TelemetryHistogram is a distribution snapshot, the internal histogram's own
// snapshot type: Count observations totalling Sum, per-bucket counts (not
// cumulative) over the inclusive upper Bounds, and one extra trailing slot in
// Counts for observations above the last bound. Mean and Quantile summarise
// it.
type TelemetryHistogram = obs.Snapshot

// Telemetry is a point-in-time snapshot of the engine's operational
// instruments: step throughput and per-phase latency distributions.
// Counter-style observability (training targets, cache activity, chip moves)
// stays on Stats; Telemetry covers where the time goes.
type Telemetry struct {
	// Steps is the number of completed Step calls.
	Steps int64
	// Step is the whole-step latency distribution.
	Step TelemetryHistogram
	// Phases maps each StepPhases() name to its latency distribution. Reveal
	// runs beside the forward, and train after reveal beside forward, predict
	// and the link reveal's scoring (after them on the first step, and on a
	// link workload's step whose forward is not a full one), so the phases
	// can sum past Step. Reveal counts the link pairs' scoring, which runs
	// after predict.
	Phases map[string]TelemetryHistogram
	// StepJoinWait is how long a step waited at its join, per step whose
	// learner ran beside inference: near zero where the step's own goroutine
	// is longer.
	StepJoinWait TelemetryHistogram

	// FullForwards counts steps whose forward policy advanced every live row
	// (the live or all rule, whichever executor ran it); IncrementalForwards
	// counts steps of the dirty rule, a splice, and of the none rule, a quiet
	// step's store reuse. The rule alone decides which ticks (DESIGN.md §10).
	// Without IncrementalForward every step is a full forward.
	FullForwards        int64
	IncrementalForwards int64
	// ForwardRows is the number of rows the last step's forward advanced or
	// recomputed: |V| for a plain full forward, the live rows when edgeless
	// rows were held, a splice's compute region, 0 on a quiet step.
	ForwardRows int64
	// SkippedRows totals, over steps, the rows each step's forward did not
	// compute: held rows (no live edge, not dirty, no anchor) and the rows a
	// splice reused. Each step adds |V| − ForwardRows.
	SkippedRows int64
	// ForwardDemandRows totals, over the region forwards this process ran —
	// every splice and every step of the live rule — the rows they had to
	// cover at depth 0 (the exact rows, whose result is kept), 1 (within one
	// hop of those) and 2 (the whole compute region): a model's intermediates
	// run on one of the three, so a region step that got slower shows here
	// which of them grew. Parts a cluster replica ran count on the replica,
	// not here.
	ForwardDemandRows [3]int64
	// DirtyFraction is the per-step distribution of ForwardRows / |V|: 1 for
	// a plain full forward, the live share when rows were held, a splice's
	// region share, 0 for quiet steps.
	DirtyFraction TelemetryHistogram

	// DeltaForwards always reads 0: it counted the event-driven delta
	// forward, which is gone (DESIGN.md §14).
	//
	// Deprecated: kept only while the benchmark harness still reads it;
	// ROADMAP item 1(e) removes it.
	DeltaForwards int64

	// Training-round accounting, cumulative since the engine was built (like
	// the phase histograms, not checkpointed). A round is one disjoint-union
	// evaluation of training units (a full-graph pass: a round of one unit),
	// TrainUnionRows the rows those forwards ran on, TrainWantRows the rows
	// of those the losses read — all a DCRNN round computes past its reset
	// gate — and TrainRoundSeconds where the time went, keyed by
	// TrainRoundParts(): together the parts are the train phase.
	TrainRounds       int64
	TrainUnits        int64
	TrainUnionRows    int64
	TrainWantRows     int64
	TrainRoundSeconds map[string]float64

	// Sharded-pipeline fields, zero/nil unless Config.Shards > 1.
	// Shards is the partition width P; ShardNodes the current node
	// occupancy per shard; ShardSplicedRows the total embedding rows each
	// shard's forwards contributed; CrossShardEdgeFraction the fraction of
	// live edges whose endpoints live on different shards; ShardMerge the
	// latency distribution of the cross-shard merge phase.
	Shards                 int
	ShardNodes             []int64
	ShardSplicedRows       []int64
	CrossShardEdgeFraction float64
	ShardMerge             TelemetryHistogram

	// The tensor buffer pool's own counters (process-wide, cumulative):
	// buffer requests, requests served from a recycled buffer, and bytes
	// taken fresh from the Go heap. A tape draws from the pool only what its
	// pass has not given back to itself, and returns every buffer at
	// Release, so in steady state TensorFreshBytes grows by about one
	// embedding matrix per full forward; a forward that allocates again
	// shows here first.
	TensorPoolGets   int64
	TensorPoolHits   int64
	TensorFreshBytes int64
}

// Telemetry returns a snapshot of the engine's step and phase timings. Safe
// to call concurrently with Step, except when Config.Shards > 1: the shard
// occupancy and cross-shard edge fraction are counted from the graph itself,
// so take those snapshots between Step calls (or under the same lock as Step,
// as cmd/queryd does).
func (e *Engine) Telemetry() Telemetry {
	t := Telemetry{
		Steps:               e.tele.steps.Value(),
		Step:                e.tele.step.Snapshot(),
		StepJoinWait:        e.tele.joinWait.Snapshot(),
		Phases:              make(map[string]TelemetryHistogram, numPhases),
		FullForwards:        e.tele.fullForwards.Value(),
		IncrementalForwards: e.tele.incForwards.Value(),
		ForwardRows:         e.tele.fwdRows.Load(),
		SkippedRows:         e.tele.skippedRows.Value(),
		DirtyFraction:       e.tele.dirtyFrac.Snapshot(),
	}
	for d := range t.ForwardDemandRows {
		t.ForwardDemandRows[d] = e.tele.demandRows[d].Value()
	}
	pool := tensor.ReadPoolStats()
	t.TensorPoolGets, t.TensorPoolHits, t.TensorFreshBytes = pool.Gets, pool.Hits, pool.FreshBytes
	rs := &e.trainer.Stats
	t.TrainRounds = atomic.LoadInt64(&rs.Rounds)
	t.TrainUnits = atomic.LoadInt64(&rs.Units)
	t.TrainUnionRows = atomic.LoadInt64(&rs.UnionRows)
	t.TrainWantRows = atomic.LoadInt64(&rs.WantRows)
	parts := TrainRoundParts()
	t.TrainRoundSeconds = make(map[string]float64, len(parts))
	for i, ns := range []*int64{&rs.SampleNs, &rs.ExtractNs, &rs.ForwardNs, &rs.LossNs, &rs.BackwardNs, &rs.OptimizerNs} {
		t.TrainRoundSeconds[parts[i]] = float64(atomic.LoadInt64(ns)) / 1e9
	}
	for i, name := range StepPhases() {
		t.Phases[name] = e.tele.phases[i].Snapshot()
	}
	if e.shards != nil {
		st := e.g.ShardStats()
		t.Shards = st.Shards
		t.ShardNodes = st.Occupancy
		t.CrossShardEdgeFraction = st.CrossFraction()
		t.ShardSplicedRows = make([]int64, len(e.tele.shardRows))
		for i := range e.tele.shardRows {
			t.ShardSplicedRows[i] = e.tele.shardRows[i].Value()
		}
		t.ShardMerge = e.tele.shardMerge.Snapshot()
	}
	return t
}
