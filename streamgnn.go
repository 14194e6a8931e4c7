// Package streamgnn is a resource-efficient online learning engine for
// dynamic graph neural networks over graph streams, implementing "Reducing
// Resource Usage for Continuous Model Updating and Predictive Query
// Answering in Graph Streams" (Liu, King, Ge — ICDE 2024).
//
// An Engine holds a dynamic heterogeneous graph snapshot, a pluggable DGNN
// model (TGCN, DCRNN, GCLSTM, DyGrEncoder, ROLAND, WinGNN, EvolveGCN, or the
// RTGCN extension), and a set of continuous predictive queries. At every
// stream step the engine answers the queries from the model's embeddings and
// updates the model online using one of three strategies:
//
//   - StrategyFull     — the standard baseline: full-graph training
//   - StrategyWeighted — Algorithm 1: adaptive node-weight (chip) learning
//     with node-partition training
//   - StrategyKDE      — Algorithm 1 with graph-KDE sampling (Algorithm 2)
//
// Weighted and KDE reach the same accuracy as Full at a fraction of the
// training time and peak memory; see EXPERIMENTS.md.
//
// Basic usage:
//
//	eng, _ := streamgnn.NewEngine(featDim, streamgnn.DefaultConfig())
//	a := eng.AddNode(0, feats)           // mutate the snapshot ...
//	eng.AddEdge(a, b, 0)
//	eng.AddQuery(streamgnn.Query{...})   // subscribe continuous queries
//	for each stream step {
//	    ... apply this step's updates ...
//	    eng.Step()                       // answer queries + train online
//	    for _, al := range eng.TakeAlerts() { ... }
//	}
package streamgnn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/core"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/drift"
	"streamgnn/internal/graph"
	"streamgnn/internal/metrics"
	"streamgnn/internal/query"
	"streamgnn/internal/rng"
	"streamgnn/internal/shard"
	"streamgnn/internal/tensor"
)

// Strategy names accepted by Config.Strategy.
const (
	StrategyFull     = "full"
	StrategyWeighted = "weighted"
	StrategyKDE      = "kde"
)

// ModelNames returns the eight supported DGNN models: the paper's seven
// baselines followed by the RTGCN extension.
func ModelNames() []string {
	kinds := dgnn.Kinds()
	names := make([]string, 0, len(kinds))
	for _, k := range kinds {
		names = append(names, k.String())
	}
	return names
}

// Config configures an Engine. Zero values fall back to the paper's
// defaults (Section VI-F); NewEngine rejects negative sizes, counts, steps
// and rates.
type Config struct {
	// Model is the DGNN baseline name; see ModelNames(). Default "TGCN".
	Model string
	// Strategy is "full", "weighted" or "kde". Default "kde".
	Strategy string
	// Hidden is the embedding dimension. Default 16.
	Hidden int
	// Seed drives all randomness. Default 1.
	Seed int64
	// WindowSteps, if > 0, expires edges older than this many steps.
	WindowSteps int

	// Chips is k, the initial chips per node (default 5).
	Chips int
	// PairsPerStep is the node pairs trained per step (default 1).
	PairsPerStep int
	// UpdateBias is p_u, the probability of sampling from the update set.
	// nil uses the paper default (0.5); any non-nil value — including an
	// explicit 0, which disables the update-set bias for ablation sweeps —
	// is honored as set. Use the Float helper to set it:
	//
	//	cfg.UpdateBias = streamgnn.Float(0) // p_u = 0
	UpdateBias *float64
	// Interval is the number of steps between training steps (default 1).
	Interval int
	// Seeds is w, the KDE seed-window size (default 15).
	Seeds int
	// StopProb is q, the random-walk stop probability. nil uses the paper
	// default (0.5); a non-nil value is honored as set (it must lie in
	// (0, 1] — a zero stop probability would never terminate the walk).
	// Use Float to set it.
	StopProb *float64
	// SeedKeep is p, the sample-becomes-seed probability. nil uses the
	// paper default (0.8); any non-nil value in [0, 1] — including an
	// explicit 0, i.e. always teleport — is honored as set. Use Float to
	// set it.
	SeedKeep *float64
	// LearningRate is the optimizer step size (default 0.02).
	LearningRate float64
	// DriftDetection enables an online Page-Hinkley detector over the
	// per-step query loss; see DriftDetected.
	DriftDetection bool

	// Workers is accepted and ignored: a training step is one union round on
	// the learner's goroutine (DESIGN.md §18), so there is nothing to fan out.
	//
	// Deprecated: a no-op kept only while the benchmark harness still sets
	// it; ROADMAP item 1(e) removes it.
	Workers int
	// DependencySchedule is accepted and ignored: the conflict-group schedule
	// it selected is gone (DESIGN.md §15).
	//
	// Deprecated: a no-op kept only while the benchmark harness still sets
	// it; ROADMAP item 1(e) removes it.
	DependencySchedule bool

	// IncrementalForward adds dirty-region splices between training steps.
	// Every other forward advances the live rows (a live edge, changed since
	// the last forward, or a query anchor); without a link task, recurrent
	// models hold every other row. A splice recomputes only the nodes whose
	// L-hop neighborhood changed: exact for memoryless models, bounded-
	// staleness for recurrent ones until RefreshEverySteps. See DESIGN.md §10.
	IncrementalForward bool
	// DirtyFullThreshold is the compute-region fraction above which an
	// incremental step's splice falls back to advancing the live rows. 0
	// means the default (0.25); 1 never falls back; values outside [0, 1] are
	// rejected. Only meaningful with IncrementalForward.
	DirtyFullThreshold float64
	// RefreshEverySteps, when > 0, advances the live rows at least every this
	// many steps in incremental mode, bounding how long a splice leaves a row
	// with live edges frozen. 0 never forces a refresh.
	RefreshEverySteps int

	// DeltaForward is accepted and ignored: the event-driven delta forward it
	// selected is gone, and incremental inference has one executor, the
	// region splice (DESIGN.md §14).
	//
	// Deprecated: a no-op kept only while the benchmark harness still sets
	// it; ROADMAP item 1(e) removes it.
	DeltaForward bool

	// Shards partitions the node-id space into this many shards:
	// incremental forwards fan the compute region out to one worker per shard
	// (by connected component, so results are bit-identical to the unsharded
	// path on seeded runs — see DESIGN.md §12), and a deterministic merge
	// splices the per-shard rows back.
	// 0 or 1 disables sharding; > 1 implies IncrementalForward. Negative is
	// rejected.
	Shards int
	// ShardLayout selects how node ids map to shards: "hash" (default; a
	// fixed 64-bit mixer, balanced but scatters id ranges) or "range"
	// (blocks of consecutive ids round-robin across shards, keeping streams
	// with id locality shard-local). Only meaningful with Shards > 1.
	ShardLayout string
}

// DefaultConfig returns the paper's default configuration with the KDE
// strategy.
func DefaultConfig() Config {
	return Config{Model: "TGCN", Strategy: StrategyKDE, Hidden: 16, Seed: 1}
}

// Float returns a pointer to v, for the Config fields with explicit-set
// semantics (UpdateBias, StopProb, SeedKeep).
func Float(v float64) *float64 { return &v }

func (c Config) fill() (Config, core.Config) {
	if c.Model == "" {
		c.Model = "TGCN"
	}
	if c.Strategy == "" {
		c.Strategy = StrategyKDE
	}
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards > 1 {
		// The sharded pipeline is the incremental path's fan-out; a full
		// forward has no per-shard structure to exploit.
		c.IncrementalForward = true
	}
	cc := core.DefaultConfig()
	if c.Chips > 0 {
		cc.K = c.Chips
	}
	if c.PairsPerStep > 0 {
		cc.PairsPerStep = c.PairsPerStep
	}
	if c.UpdateBias != nil {
		cc.PUpdate = *c.UpdateBias
	}
	if c.Interval > 0 {
		cc.Interval = c.Interval
	}
	if c.Seeds > 0 {
		cc.Seeds = c.Seeds
	}
	if c.StopProb != nil {
		cc.StopProb = *c.StopProb
	}
	if c.SeedKeep != nil {
		cc.SeedKeep = *c.SeedKeep
	}
	if c.LearningRate > 0 {
		cc.LR = c.LearningRate
	}
	return c, cc
}

// Query is a continuous predictive query: at every step t the engine
// predicts, for each anchor, the monitored value at step t+Delta, and fires
// an Alert when the prediction exceeds Threshold. Truth, when it becomes
// available, is obtained from the Labeler and used both for evaluation and
// as delayed supervision.
type Query struct {
	Name      string
	Anchors   []int
	Delta     int
	Threshold float64
	// Labeler returns the true monitored value at an anchor for a step
	// once that step has arrived (ok=false if unavailable). Step calls it
	// while the forward runs on another goroutine: it may read the engine's
	// graph (Graph), but must not mutate it or call back into the engine.
	Labeler func(anchor, step int) (value float64, ok bool)
}

// Alert is a fired monitoring notification.
type Alert struct {
	Query   string
	Anchor  int
	ForStep int
	Score   float64
}

// Outcome is a resolved prediction (prediction vs. revealed truth).
type Outcome struct {
	Query  string
	Anchor int
	Step   int
	Score  float64
	Truth  float64
	Event  bool
}

// Metrics summarizes resolved predictions. Event-query and link-prediction
// results are reported in distinct fields (EventAUC/EventN vs LinkAUC/LinkN)
// so a mixed workload never shadows one task's quality with the other's;
// the original N and AUC fields are kept as documented aggregates.
type Metrics struct {
	// N is the total number of resolved predictions across both task
	// kinds (EventN + LinkN) — a legacy aggregate; prefer the per-task
	// counts for mixed workloads.
	N int
	// MSE is the mean squared error over resolved event-query predictions.
	MSE float64
	// Accuracy is the link-prediction accuracy at logit threshold 0
	// (0 when link prediction is off).
	Accuracy float64
	// AUC is a legacy aggregate kept for single-task callers: it equals
	// LinkAUC when link prediction is active, otherwise EventAUC. Mixed
	// workloads should read EventAUC and LinkAUC directly.
	AUC float64
	// MRR is the link-prediction mean reciprocal rank.
	MRR float64

	// EventN and EventAUC cover resolved event-query outcomes only.
	EventN   int
	EventAUC float64
	// LinkN and LinkAUC cover link-prediction scores only.
	LinkN   int
	LinkAUC float64
}

// Stats exposes the online trainer's internals for observability: how much
// training material of each kind has been consumed, how many node
// partitions were trained, and how concentrated the learned node-weight
// distribution is.
type Stats struct {
	// SelfNodeTargets .. ReplayTargets count consumed training targets.
	SelfNodeTargets int
	SelfEdgeTargets int
	SupNodeTargets  int
	SupPairTargets  int
	ReplayTargets   int
	// TrainedPartitions counts node partitions trained (0 for "full").
	TrainedPartitions int
	// ChipMoves counts accepted chip moves of Algorithm 1.
	ChipMoves int
	// ChipEntropy is the normalized entropy of the chip distribution in
	// [0, 1]: 1 = uniform (nothing learned yet), lower = concentrated on a
	// profitable region. 0 when the strategy is "full" or before training.
	ChipEntropy float64
	// TopChipNodes lists the highest-weight nodes (up to 5, descending).
	TopChipNodes []int

	// CacheHits, CacheMisses and CacheHitRate always read 0: they counted
	// the partition cache, which is gone (DESIGN.md §8).
	//
	// Deprecated: kept only while the benchmark harness still reads them;
	// ROADMAP item 1(e) removes them.
	CacheHits    int64
	CacheMisses  int64
	CacheHitRate float64

	// SchedSteps, SchedGroups and SchedCollapsedSteps always read 0: they
	// counted the conflict-group schedule, which is gone (DESIGN.md §15).
	//
	// Deprecated: kept only while the benchmark harness still reads them;
	// ROADMAP item 1(e) removes them.
	SchedSteps          int64
	SchedGroups         int64
	SchedCollapsedSteps int64
}

// Engine is the online continuous-learning query engine.
type Engine struct {
	cfg   Config
	ccfg  core.Config
	g     *graph.Dynamic
	model dgnn.Model // the live θ inference and prediction read
	wl    *query.Workload
	sched *core.Scheduler
	// trainer trains the learner's copy of θ (dgnn.NewLearner and a clone of
	// the heads); opt steps it, and opt.Params() lists it in allParams order.
	trainer *core.Trainer
	opt     autodiff.Optimizer
	src     *rng.SplitMix64 // dumpable source behind every engine rng draw

	step int
	// inferTape runs the step loop's full forward; it is long-lived so its
	// node shells and learned plan carry over from step to step. Splices run
	// on tapes dgnn.ForwardPart borrows. See autodiff.NewInferenceTape.
	inferTape *autodiff.Tape
	lastEmb   *tensor.Matrix
	emb       *dgnn.EmbStore  // the rows a forward did not compute (held, reused)
	holds     bool            // dgnn.Kind.HoldsNodeState
	liveShare float64         // liveRegionShare; tests move it to pick an executor
	shards    *shard.Sharding // node-space partition; nil when Shards <= 1
	shardFwd  ShardForwarder  // optional remote executor for sharded forwards

	driftDet     *drift.PageHinkley
	driftFlag    bool
	seenOutcomes int

	// serving is the immutable post-step snapshot query serving reads
	// lock-free; see serving.go.
	serving atomic.Pointer[QuerySnapshot]

	tele engineTelemetry
}

// ShardForwarder executes the sharded region forwards of incremental steps
// on behalf of the engine — the seam the coordinator/replica split
// (internal/cluster) plugs into. The engine still computes the dirty set,
// the exact/region expansion and the full-forward fallback decision globally
// (so they cannot depend on where parts execute), then hands the
// component-respecting parts and the global exact set to the forwarder,
// which must return per-shard results exactly as dgnn.ForwardShards would:
// res[s].Out carrying the committed values of res[s].IDs, with the model's
// recurrent state rows for those ids advanced in the engine's own model.
// The engine merges the results in the usual deterministic MergeShards
// order, so a forwarder that is row-exact preserves bit-equality with the
// in-process path.
type ShardForwarder interface {
	// ForwardShards runs one forward per non-empty part for the given step
	// and returns results indexed like parts. BeginStep has already run.
	ForwardShards(step int, parts [][]int, exact []int) []dgnn.ShardForward
	// InvalidateMirrors tells the forwarder that every cached model mirror
	// (parameters, recurrent state, serving heads) is stale: training moved
	// the parameters, or a full forward rewrote all state rows.
	InvalidateMirrors()
}

// SetShardForwarder installs f as the executor of sharded region forwards.
// Requires a sharded engine (Config.Shards > 1). Pass nil to restore the
// in-process fan-out.
func (e *Engine) SetShardForwarder(f ShardForwarder) error {
	if f == nil {
		e.shardFwd = nil
		return nil
	}
	if e.shards == nil {
		return fmt.Errorf("streamgnn: SetShardForwarder requires Shards > 1")
	}
	e.shardFwd = f
	return nil
}

// Model exposes the engine's DGNN model for coordinators that mirror its
// parameters and recurrent state across replicas (internal/cluster). Read
// or snapshot it only between Step calls.
func (e *Engine) Model() dgnn.Model { return e.model }

// Config returns the engine's filled configuration.
func (e *Engine) Config() Config { return e.cfg }

// allParams returns the trainable parameters (model first, then heads),
// in the stable order checkpoints rely on.
func (e *Engine) allParams() []*autodiff.Node {
	return append(e.model.Params(), e.wl.Heads().Params()...)
}

// NewEngine creates an engine over an empty graph whose nodes carry featDim
// attributes.
func NewEngine(featDim int, cfg Config) (*Engine, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Hidden", float64(cfg.Hidden)}, {"WindowSteps", float64(cfg.WindowSteps)}, {"Chips", float64(cfg.Chips)},
		{"PairsPerStep", float64(cfg.PairsPerStep)}, {"Interval", float64(cfg.Interval)}, {"Seeds", float64(cfg.Seeds)},
		{"LearningRate", cfg.LearningRate}, {"RefreshEverySteps", float64(cfg.RefreshEverySteps)}, {"Shards", float64(cfg.Shards)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("streamgnn: %s must be >= 0 (0 selects the default), got %g", f.name, f.v)
		}
	}
	cfg, ccfg := cfg.fill()
	kind, err := dgnn.ParseKind(cfg.Model)
	if err != nil {
		return nil, err
	}
	strategy, err := core.ParseStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	if cfg.DirtyFullThreshold < 0 || cfg.DirtyFullThreshold > 1 {
		return nil, fmt.Errorf("streamgnn: DirtyFullThreshold is a fraction of the graph and must lie in [0, 1], got %g", cfg.DirtyFullThreshold)
	}
	layout, err := shard.ParseLayout(cfg.ShardLayout)
	if err != nil {
		return nil, fmt.Errorf("streamgnn: %w", err)
	}
	// Buffer pooling is process-wide and load-bearing: training tapes and
	// the inference tape both hand their intermediates back to it (metered
	// allocation accounting is identical either way).
	tensor.EnablePooling(true)
	src := rng.New(cfg.Seed)
	r := rand.New(src)
	g := graph.NewDynamic(featDim)
	model := dgnn.New(kind, r, featDim, cfg.Hidden)
	heads := query.NewHeads(r, cfg.Hidden)
	wl := query.NewWorkload(heads)
	// The learner trains its own copy of θ, so training can run beside
	// inference, which reads the live one; see Step.
	learner, learnerHeads := dgnn.NewLearner(kind, model, featDim, cfg.Hidden), heads.Clone()
	params := append(learner.Params(), learnerHeads.Params()...)
	opt := model.WrapOptimizer(autodiff.NewAdam(ccfg.LR, params))
	trainer := core.NewTrainer(g, learner, wl, opt, ccfg, r)
	trainer.Heads = learnerHeads
	sched, err := core.NewScheduler(trainer, ccfg, strategy, r)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, ccfg: ccfg, g: g, model: model, wl: wl, sched: sched,
		trainer: trainer, opt: opt, src: src, emb: dgnn.NewEmbStore(),
		inferTape: autodiff.NewInferenceTape(), holds: kind.HoldsNodeState(), liveShare: liveRegionShare}
	if cfg.Shards > 1 {
		e.shards, err = shard.New(cfg.Shards, layout)
		if err != nil {
			return nil, fmt.Errorf("streamgnn: %w", err)
		}
		g.AttachSharding(e.shards)
	}
	e.tele.init(cfg.Shards)
	g.EnableDirtyTracking()
	if cfg.DriftDetection {
		e.driftDet = drift.NewPageHinkley(0.05, 3)
	}
	return e, nil
}

// AddNode adds a node of the given type and returns its id.
func (e *Engine) AddNode(nodeType int, feat []float64) int {
	return e.g.AddNode(graph.NodeType(nodeType), feat)
}

// AddEdge adds a directed edge stamped with the current step.
func (e *Engine) AddEdge(u, v, edgeType int) {
	e.g.AddEdge(u, v, graph.EdgeType(edgeType), int64(e.step))
}

// AddUndirectedEdge adds edges in both directions.
func (e *Engine) AddUndirectedEdge(u, v, edgeType int) {
	e.g.AddUndirectedEdge(u, v, graph.EdgeType(edgeType), int64(e.step))
}

// AddLabeledEdge adds a directed edge carrying a self-supervision label.
func (e *Engine) AddLabeledEdge(u, v, edgeType int, label float64) {
	e.g.AddLabeledEdge(u, v, graph.EdgeType(edgeType), int64(e.step), label)
}

// SetFeature replaces a node's attribute vector.
func (e *Engine) SetFeature(v int, feat []float64) { e.g.SetFeature(v, feat) }

// SetNodeLabel attaches a self-supervision label to a node.
func (e *Engine) SetNodeLabel(v int, label float64) { e.g.SetLabel(v, label) }

// Graph exposes the engine's dynamic graph snapshot for callers that feed it
// from a stream replayer or need direct read access (e.g. labelers computing
// degree-based truths). Mutate it only between Step calls.
func (e *Engine) Graph() *graph.Dynamic { return e.g }

// NumNodes returns the number of nodes in the snapshot.
func (e *Engine) NumNodes() int { return e.g.N() }

// NumEdges returns the number of directed edges in the snapshot.
func (e *Engine) NumEdges() int { return e.g.NumEdges() }

// CurrentStep returns the index of the next step to execute.
func (e *Engine) CurrentStep() int { return e.step }

// AddQuery subscribes a continuous predictive query.
func (e *Engine) AddQuery(q Query) error {
	if len(q.Anchors) == 0 {
		return fmt.Errorf("streamgnn: query %q has no anchors", q.Name)
	}
	if q.Delta < 1 {
		return fmt.Errorf("streamgnn: query %q needs Delta >= 1", q.Name)
	}
	if q.Labeler == nil {
		return fmt.Errorf("streamgnn: query %q needs a Labeler", q.Name)
	}
	e.wl.AddQuery(&query.EventQuery{
		Name:      q.Name,
		Anchors:   append([]int(nil), q.Anchors...),
		Delta:     q.Delta,
		Threshold: q.Threshold,
		Labeler: func(_ *graph.Dynamic, anchor, step int) (float64, bool) {
			return q.Labeler(anchor, step)
		},
	})
	return nil
}

// EnableLinkPrediction subscribes continuous next-step link prediction.
func (e *Engine) EnableLinkPrediction() {
	e.wl.SetLinkTask(query.NewLinkPredTask(e.cfg.Seed + 1))
}

// Step executes one stream step: it reveals truths that arrived with the
// current snapshot, computes embeddings, answers every query, and performs
// the strategy's online training. Mutate the graph (AddNode/AddEdge/...)
// between Step calls to feed the stream.
//
// A step is three tasks that only their data edges order (DESIGN.md §19).
// A serial prologue expires edges and snapshots recurrent state (BeginStep).
// Then one goroutine reveals truths and observes drift while the caller's
// goroutine runs the forward on the live model, which reads nothing reveal
// writes. Prediction waits for reveal: reveal resolves the predictions parked
// for this step, and prediction replaces the embeddings link reveal scores.
// The learner, which trains its copy of θ, waits for reveal too; on a training
// step whose learner reads nothing inference writes it runs on the reveal
// goroutine, beside the forward and prediction, and otherwise after
// prediction (learnerReadsInference). Then the learner's θ is copied into the
// live model and the serving snapshot published. Answers are bit-identical to
// running the tasks in turn.
//
// Each phase — window expiry, truth reveal, forward inference, query
// prediction, training — is timed into the engine's telemetry histograms;
// reveal and training overlap the forward, and Telemetry.StepJoinWait
// records how long inference waited for the learner.
//
//streamlint:steploop
func (e *Engine) Step() error {
	if e.g.N() == 0 {
		return fmt.Errorf("streamgnn: cannot step an empty graph")
	}
	if a := e.sched.Adaptive; a != nil {
		// The KDE seed window is drawn from the first snapshot stepped, before
		// its expiry; nothing else draws from the engine's random stream
		// between here and training.
		a.FillSeedWindow()
	}
	t := e.step
	stepStart := time.Now()

	phaseStart := stepStart
	if e.cfg.WindowSteps > 0 {
		e.g.ExpireEdgesBefore(int64(t - e.cfg.WindowSteps + 1))
	}
	e.tele.phases[phaseExpire].ObserveSince(phaseStart)
	updated := e.g.Updated()
	e.model.BeginStep(t)

	trained := false
	train := func() {
		phaseStart := time.Now()
		trained = e.sched.OnStep(t, updated)
		e.tele.phases[phaseTrain].ObserveSince(phaseStart)
	}
	beside := e.sched.Due(t) && !e.learnerReadsInference(t)
	revealed, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		phaseStart := time.Now()
		e.wl.Reveal(e.g, t)
		e.observeDrift()
		e.tele.phases[phaseReveal].ObserveSince(phaseStart)
		close(revealed)
		if beside {
			train()
		}
	}()
	e.infer(t, revealed)
	waitStart := time.Now()
	<-done
	if beside {
		e.tele.joinWait.ObserveSince(waitStart)
	} else {
		train()
	}

	if trained {
		// Training moved θ, so every stored row is stale. The next forward is
		// the live rung; held rows keep serving their stored embeddings.
		// Splices therefore pay off on the steps *between* training steps
		// (Interval > 1) and on quiet stretches of the stream.
		autodiff.CopyValues(e.allParams(), e.opt.Params())
		e.invalidateInference()
	}
	e.g.ResetUpdated()
	e.publishServing(t)
	e.step++
	e.tele.step.ObserveSince(stepStart)
	e.tele.steps.Inc()
	return nil
}

// infer is a step's inference half: the forward, then, once revealed is
// closed, prediction from it.
func (e *Engine) infer(t int, revealed <-chan struct{}) {
	phaseStart := time.Now()
	e.runForward(t)
	e.tele.phases[phaseForward].ObserveSince(phaseStart)
	<-revealed
	phaseStart = time.Now()
	e.wl.Predict(e.lastEmb, t)
	e.tele.phases[phasePredict].ObserveSince(phaseStart)
}

// learnerReadsInference reports whether step t's training reads something its
// inference half writes, and so must start after prediction instead of after
// reveal on the reveal goroutine, beside the forward. Two things qualify:
//   - on a link workload, the embeddings Predict records: training pairs each
//     center with detached rows of them (the link-negative term);
//   - on the engine's first step, the recurrent state: no BeginStep snapshot
//     exists before a forward has committed state, so a training gather reads
//     the live rows this step's forward commits.
func (e *Engine) learnerReadsInference(t int) bool {
	return e.wl.LinkTask() != nil || t == 0
}

// defaultDirtyFullThreshold is the compute-region fraction above which an
// incremental step's splice falls back to the live rung when the user did not
// set Config.DirtyFullThreshold.
const defaultDirtyFullThreshold = 0.25

func (e *Engine) dirtyFullThreshold() float64 {
	if e.cfg.DirtyFullThreshold > 0 {
		return e.cfg.DirtyFullThreshold
	}
	return defaultDirtyFullThreshold
}

// runForward computes this step's inference embeddings into e.lastEmb: one
// ladder of two rungs (DESIGN.md §10). The live rung (liveForward) advances
// the live rows and holds the rest. With IncrementalForward, a step whose
// store is fresh — no training, restore or refresh since the last live rung —
// splices instead: it expands the dirty set to the exact frontier
// D = Ball(dirty, L), forwards the compute region Ball(D, L) in demand order
// (graph.Region) and splices D's rows into the store, reusing every other row;
// a region above dirtyFullThreshold falls back to the live rung. For
// memoryless models the spliced rows are bit-identical to a full forward;
// recurrent models also freeze the state of rows outside D, which
// RefreshEverySteps bounds. With Shards > 1 every set and decision stays
// global, so none depends on P; only region forwards fan out (DESIGN.md §12).
func (e *Engine) runForward(t int) {
	dirty, n := e.g.TakeDirty(), e.g.N()
	last := e.emb.LastFullStep()
	if e.cfg.IncrementalForward && last >= 0 &&
		(e.cfg.RefreshEverySteps <= 0 || t-last < e.cfg.RefreshEverySteps) {
		rows, ok := 0, true
		if len(dirty) == 0 && e.emb.Rows() == n {
			// Quiet step: no graph change; serve the cache as-is.
			e.lastEmb = e.emb.Matrix()
		} else {
			rows, ok = e.spliceForward(t, dirty, n)
		}
		if ok {
			e.tele.incForwards.Inc()
			e.noteRows(rows, n)
			return
		}
	}
	e.liveForward(t, dirty, n)
}

// holdsRows reports whether the live rung may hold rows: not for a link task,
// which scores any row.
func (e *Engine) holdsRows() bool {
	return e.holds && e.wl.LinkTask() == nil
}

// liveRegionShare is the live share of the rows from which a full forward
// masked to them costs less than a region forward over them: the crossover
// dgnn's BenchmarkLiveExecutors measures (EXPERIMENTS.md, "Held rows").
const liveRegionShare = 0.85

// liveForward is the live rung. The live rows are closed under L-hop balls
// (an edgeless row has no neighbours), so a region forward over them, run
// below liveRegionShare, gives the bits of a full forward masked to them.
// Without held rows — every row live, or !holdsRows — it is the plain full
// forward, whose detached output the store then owns.
func (e *Engine) liveForward(t int, dirty []int, n int) {
	var live []int // nil: every row
	if e.holdsRows() && e.emb.Valid() {
		extra := dirty
		for _, q := range e.wl.Queries() {
			for _, a := range q.Anchors {
				if a < n {
					extra = append(extra, a)
				}
			}
		}
		for v := e.emb.Rows(); v < n; v++ {
			extra = append(extra, v) // no stored row to hold
		}
		if live = e.g.Live(extra); len(live) == n {
			live = nil
		}
	}
	e.tele.fullForwards.Inc()
	rows := n
	switch {
	case live == nil:
		e.lastEmb = dgnn.Infer(e.inferTape, e.model, dgnn.FullView(e.g))
		if e.holdsRows() || e.cfg.IncrementalForward {
			e.emb.SetFull(e.lastEmb, t)
		}
	case float64(len(live)) < e.liveShare*float64(n):
		e.forwardRegion(t, live, live)
		e.emb.MarkFresh(t)
		e.noteRows(len(live), n)
		return
	default:
		v := dgnn.FullView(e.g)
		v.CommitRows = live
		e.lastEmb = dgnn.Infer(e.inferTape, e.model, v)
		e.emb.SetLive(e.lastEmb, live, t)
		rows = len(live)
	}
	e.noteRows(rows, n)
	if e.shardFwd != nil {
		// A forward over the whole graph committed state rows here, so
		// replica state mirrors no longer match row for row.
		e.shardFwd.InvalidateMirrors()
	}
}

// noteRows records a forward that computed rows of the graph's n: the rows it
// skipped, and their share.
func (e *Engine) noteRows(rows, n int) {
	e.tele.fwdRows.Store(int64(rows))
	e.tele.skippedRows.Add(int64(n - rows))
	e.tele.dirtyFrac.Observe(float64(rows) / float64(n))
}

// spliceForward forwards the compute region of dirty and splices its exact
// rows into the store. It reports the rows it forwarded, or !ok — nothing
// touched — when the region is too large to pay.
func (e *Engine) spliceForward(t int, dirty []int, n int) (rows int, ok bool) {
	L := e.model.Layers()
	exact := e.g.Ball(dirty, L)
	region := e.g.Ball(exact, L)
	if len(region) == 0 || float64(len(region)) > e.dirtyFullThreshold()*float64(n) {
		return 0, false
	}
	e.forwardRegion(t, region, exact)
	return len(region), true
}

// forwardRegion forwards region and splices the rows of exact (ascending, the
// rows whose L-hop balls region covers) into the store. Unsharded, the region
// is one part; sharded, RegionParts keeps connected components whole, making
// each shard's rows bit-identical to the same rows of the single-part forward,
// and the merge splices them in fixed shard-index order. Every part runs
// dgnn.ForwardPart, here or on a replica.
func (e *Engine) forwardRegion(t int, region, exact []int) {
	parts := [][]int{region}
	if e.shards != nil {
		parts = e.g.RegionParts(region)
	}
	var res []dgnn.ShardForward
	if e.shardFwd != nil {
		res = e.shardFwd.ForwardShards(t, parts, exact)
	} else {
		res = dgnn.ForwardShards(e.g, e.model, parts, exact)
	}
	mergeStart := time.Now()
	dgnn.MergeShards(e.emb, res)
	if e.shards != nil {
		e.tele.shardMerge.ObserveSince(mergeStart)
	}
	for s := range res {
		for d, covered := range res[s].Demand {
			e.tele.demandRows[d].Add(int64(covered))
		}
		if e.shards != nil && res[s].Out != nil {
			e.tele.shardRows[s].Add(int64(len(res[s].IDs)))
		}
	}
	e.lastEmb = e.emb.Matrix()
}

// invalidateInference marks the inference caches stale after a parameter
// change: the store keeps its rows for held rows to serve.
func (e *Engine) invalidateInference() {
	e.emb.MarkStale()
	if e.shardFwd != nil {
		e.shardFwd.InvalidateMirrors()
	}
}

// observeDrift feeds this step's mean prediction loss to the detector.
func (e *Engine) observeDrift() {
	e.driftFlag = false
	outs := e.wl.Outcomes()
	if e.driftDet == nil || len(outs) == e.seenOutcomes {
		e.seenOutcomes = len(outs)
		return
	}
	var sum float64
	n := 0
	for _, o := range outs[e.seenOutcomes:] {
		d := o.Score - o.Truth
		sum += d * d
		n++
	}
	e.seenOutcomes = len(outs)
	if n > 0 {
		e.driftFlag = e.driftDet.Add(sum / float64(n))
	}
}

// DriftDetected reports whether the last Step's revealed query losses
// triggered the drift detector (always false unless Config.DriftDetection).
func (e *Engine) DriftDetected() bool { return e.driftFlag }

// Embedding returns a copy of node v's current embedding (nil before the
// first Step or for unknown nodes).
func (e *Engine) Embedding(v int) []float64 {
	if e.lastEmb == nil || v < 0 || v >= e.lastEmb.Rows {
		return nil
	}
	out := make([]float64, e.lastEmb.Cols)
	copy(out, e.lastEmb.Row(v))
	return out
}

// TakeAlerts drains the alerts fired since the last call.
func (e *Engine) TakeAlerts() []Alert {
	raw := e.wl.TakeAlerts()
	out := make([]Alert, len(raw))
	for i, a := range raw {
		out[i] = Alert{Query: a.Query, Anchor: a.Anchor, ForStep: a.ForStep, Score: a.Score}
	}
	return out
}

// Outcomes returns all resolved predictions so far.
func (e *Engine) Outcomes() []Outcome {
	raw := e.wl.Outcomes()
	out := make([]Outcome, len(raw))
	for i, o := range raw {
		out[i] = Outcome{Query: o.Query, Anchor: o.Anchor, Step: o.Step,
			Score: o.Score, Truth: o.Truth, Event: o.Event}
	}
	return out
}

// Stats returns a snapshot of the online trainer's internals.
func (e *Engine) Stats() Stats {
	var s Stats
	// Field-by-field atomic loads: the learner bumps these counters with
	// atomic adds while Stats runs, so a whole-struct copy here would race
	// them.
	ts := &e.trainer.Stats
	s.SelfNodeTargets = int(atomic.LoadInt64(&ts.SelfNodeTargets))
	s.SelfEdgeTargets = int(atomic.LoadInt64(&ts.SelfEdgeTargets))
	s.SupNodeTargets = int(atomic.LoadInt64(&ts.SupNodeTargets))
	s.SupPairTargets = int(atomic.LoadInt64(&ts.SupPairTargets))
	s.ReplayTargets = int(atomic.LoadInt64(&ts.ReplayTargets))
	if a := e.sched.Adaptive; a != nil {
		s.TrainedPartitions = a.Trained
		s.ChipMoves = a.Moves
		probs := a.Probabilities()
		if len(probs) > 1 {
			var h float64
			for _, p := range probs {
				if p > 0 {
					h -= p * math.Log(p)
				}
			}
			s.ChipEntropy = h / math.Log(float64(len(probs)))
		}
		type nodeProb struct {
			v int
			p float64
		}
		top := make([]nodeProb, 0, len(probs))
		for v, p := range probs {
			top = append(top, nodeProb{v, p})
		}
		sort.Slice(top, func(i, j int) bool { return top[i].p > top[j].p })
		for i := 0; i < len(top) && i < 5; i++ {
			s.TopChipNodes = append(s.TopChipNodes, top[i].v)
		}
	}
	return s
}

// Metrics summarizes all resolved predictions (and link-prediction results
// when enabled). Event and link quality land in separate fields; see the
// Metrics type for the aggregate semantics of N and AUC.
func (e *Engine) Metrics() Metrics {
	outs := e.wl.Outcomes()
	var m Metrics
	var scores, truths []float64
	var events []bool
	for _, o := range outs {
		scores = append(scores, o.Score)
		truths = append(truths, o.Truth)
		events = append(events, o.Event)
	}
	m.EventN = len(outs)
	if len(outs) > 0 {
		m.MSE = metrics.MSE(scores, truths)
		m.EventAUC = metrics.AUC(scores, events)
		m.AUC = m.EventAUC
	}
	if lt := e.wl.LinkTask(); lt != nil {
		ls, ll := lt.Scores()
		if len(ls) > 0 {
			m.LinkN = len(ls)
			m.Accuracy = metrics.Accuracy(ls, ll, 0) // logits: threshold 0
			m.LinkAUC = metrics.AUC(ls, ll)
			m.AUC = m.LinkAUC // legacy aggregate: link wins when present
			m.MRR = metrics.MRR(lt.Ranks())
		}
	}
	m.N = m.EventN + m.LinkN
	return m
}
