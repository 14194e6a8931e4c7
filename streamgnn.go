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
	// L-hop neighborhood changed, whatever their share of the graph: exact for
	// memoryless models, bounded-staleness for recurrent ones until
	// RefreshEverySteps. See DESIGN.md §10.
	IncrementalForward bool
	// DirtyFullThreshold is accepted and ignored: a splice runs whatever the
	// size of its region (DESIGN.md §10).
	//
	// Deprecated: a no-op kept only while the benchmark harness still sets
	// it; ROADMAP item 1(e) removes it.
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
	// node shells carry over from step to step. Splices run
	// on tapes dgnn.ForwardPart borrows. See autodiff.NewInferenceTape.
	inferTape *autodiff.Tape
	lastEmb   *tensor.RowView // this step's embeddings, frozen for every reader
	emb       *dgnn.EmbStore  // the rows a forward did not compute (held, reused)
	holds     bool            // dgnn.Kind.HoldsNodeState, and no link task scores held rows
	// fwdRows is where a link learner beside a full forward reads its
	// negatives' rows (core.ForwardRows); otherwise it reads the rows
	// prediction read, as on every step with linkBeside false, which tests
	// set to compare the schedules.
	fwdRows    *core.ForwardRows
	linkBeside bool
	shards     *shard.Sharding // node-space partition; nil when Shards <= 1
	shardFwd   ShardForwarder  // optional remote executor for sharded forwards

	driftDet     *drift.PageHinkley
	driftFlag    bool
	seenOutcomes int

	// serving is the immutable post-step snapshot query serving reads
	// lock-free; see serving.go.
	serving atomic.Pointer[QuerySnapshot]

	tele engineTelemetry
}

// ShardForwarder executes the sharded region forwards on behalf of the
// engine — the seam the coordinator/replica split (internal/cluster) plugs
// into. The engine still computes the dirty set, the forward policy's rows
// and rule, and the compute region globally (so they cannot depend on where
// parts execute), then hands the component-respecting parts and the global
// exact set to the forwarder, which must return per-shard results exactly as
// dgnn.ForwardShards would: res[s].Out carrying the committed values of
// res[s].IDs, with the model's recurrent state rows for those ids advanced in
// the engine's own model. The engine merges the results in the usual
// deterministic MergeShards order, so a forwarder that is row-exact preserves
// bit-equality with the in-process path.
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
	layout, err := shard.ParseLayout(cfg.ShardLayout)
	if err != nil {
		return nil, fmt.Errorf("streamgnn: %w", err)
	}
	src := rng.New(cfg.Seed)
	r := rand.New(src)
	g := graph.NewDynamic(featDim)
	model := dgnn.New(kind, r, featDim, cfg.Hidden)
	heads := query.NewHeads(r, cfg.Hidden)
	wl := query.NewWorkload(heads)
	// The learner trains its own copy of θ, so training can run beside
	// inference, which reads the live one; see Step.
	learner, learnerHeads := dgnn.NewLearner(model, featDim), heads.Clone()
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
		inferTape: autodiff.NewInferenceTape(), holds: kind.HoldsNodeState(),
		fwdRows: core.NewForwardRows(model, g), linkBeside: true}
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

// AddNode adds a node and returns its id. nodeType names the node's entity
// type, as a stream record does; no model reads node types, so the engine
// keeps none.
func (e *Engine) AddNode(nodeType int, feat []float64) int {
	return e.g.AddNode(feat)
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
// The task scores any row, so from then on the engine holds none.
func (e *Engine) EnableLinkPrediction() {
	e.wl.SetLinkTask(query.NewLinkPredTask(e.cfg.Seed + 1))
	e.holds = false
}

// Step executes one stream step: it reveals truths that arrived with the
// current snapshot, computes embeddings, answers every query, and performs
// the strategy's online training. Mutate the graph (AddNode/AddEdge/...)
// between Step calls to feed the stream.
//
// A step is three tasks that only their data edges order (DESIGN.md §19).
// A serial prologue expires edges, snapshots recurrent state (BeginStep) and
// picks the rows the forward advances (advance). Then one goroutine reveals
// truths and observes drift while the caller's goroutine runs the forward on
// the live model, which reads nothing reveal writes. Prediction waits for
// reveal: reveal resolves the predictions parked for this step. Then the
// caller's goroutine scores the revealed link pairs, which no learner reads.
// The learner, which trains its copy of θ, waits for reveal too; on a training
// step whose learner reads nothing inference writes it runs on the reveal
// goroutine, beside the forward, prediction and scoring, and otherwise after
// them (learnerReadsInference). Then the learner's θ is copied into the live
// model and the serving snapshot published. Answers are bit-identical to
// running the tasks in turn.
//
// Each phase — window expiry, truth reveal, forward inference, query
// prediction, training — is timed into the engine's telemetry histograms;
// reveal and training overlap the forward, and Telemetry.StepJoinWait
// records how long a step waited at its join.
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
	due := e.sched.Due(t)
	if !due {
		// Only the learner's training forwards read the state's snapshot;
		// without one the forward's commits write the pages in place.
		dgnn.DropSnapshot(e.model)
	}
	phaseStart = time.Now()
	rows, r := e.advance(t, e.g.TakeDirty(), e.g.N())
	policy := time.Since(phaseStart)

	trained := false
	beside := due && !e.learnerReadsInference(t, r)
	train := func() {
		phaseStart := time.Now()
		switch {
		case e.wl.LinkTask() == nil: // no negatives to read
		case beside:
			e.fwdRows.BeginStep()
			e.trainer.Negatives = e.fwdRows
		default:
			e.trainer.Negatives = core.ViewRows{View: e.lastEmb}
		}
		trained = e.sched.OnStep(t, updated)
		e.tele.phases[phaseTrain].ObserveSince(phaseStart)
	}
	var scoring func()
	var revealTime time.Duration
	revealed, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		phaseStart := time.Now()
		scoring = e.wl.Reveal(e.g, t)
		e.observeDrift()
		revealTime = time.Since(phaseStart)
		close(revealed)
		if beside {
			train()
		}
	}()

	phaseStart = time.Now()
	e.runForward(t, rows, r)
	e.tele.phases[phaseForward].Observe((policy + time.Since(phaseStart)).Seconds())
	<-revealed
	phaseStart = time.Now()
	e.wl.Predict(e.lastEmb, t)
	e.tele.phases[phasePredict].ObserveSince(phaseStart)
	if scoring != nil {
		// The link reveal's scoring reads the previous step's embeddings and
		// the live heads, which change only at CopyValues, after the join.
		phaseStart = time.Now()
		scoring()
		revealTime += time.Since(phaseStart)
	}
	e.tele.phases[phaseReveal].Observe(revealTime.Seconds())
	if !beside {
		train()
	}
	waitStart := time.Now()
	<-done
	if beside {
		e.tele.joinWait.ObserveSince(waitStart)
	}

	if trained {
		// Training moved θ, so every stored row is stale. The next forward
		// takes the live or all rule; held rows keep serving their stored
		// embeddings.
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

// learnerReadsInference reports whether step t's training, whose forward
// takes rule r, reads something its inference half writes, and so must start
// after prediction instead of after reveal on the reveal goroutine, beside the
// forward:
//   - on the engine's first step, the recurrent state: no BeginStep snapshot
//     exists before a forward has committed state, so a training gather reads
//     the live rows this step's forward commits;
//   - on a step whose forward is not a full one, the rows the link negatives
//     pair each center with: a splice step's rows include spliced and held
//     ones a forward need not reproduce (ROADMAP item 19), so they are read
//     from the embeddings prediction read. A full forward's rows the learner
//     computes itself (core.ForwardRows); a learner without link negatives
//     reads no row.
func (e *Engine) learnerReadsInference(t int, r rule) bool {
	return t == 0 || e.wl.LinkTask() != nil && (r != ruleAll || !e.linkBeside)
}

// rule names the policy rule that chose the rows a step's forward advances
// (DESIGN.md §10). It alone decides which forward counter ticks and whether
// the store is fresh afterwards: live and all advance every live row.
type rule uint8

const (
	ruleNone  rule = iota // incremental, fresh store, quiet step: no row advances
	ruleDirty             // incremental, fresh store: the rows whose L-hop balls changed
	ruleLive              // a kind that holds state, no link task, valid store: the live rows
	ruleAll               // every row
)

// advance is the forward policy: the rows step t advances, ascending, and the
// rule that chose them. Rows the store does not cover yet count as dirty.
// With IncrementalForward, a store fresh since the last live or full forward
// (no training, restore or refresh since, and younger than RefreshEverySteps)
// advances the exact frontier Ball(dirty, L): for memoryless models the rows
// a full forward would change; recurrent models also freeze the state of
// every other row, which RefreshEverySteps bounds. Otherwise an engine that
// holds rows advances the live ones, and every other case advances every row
// (rows nil).
func (e *Engine) advance(t int, dirty []int, n int) ([]int, rule) {
	if e.emb.Valid() {
		for v := e.emb.Rows(); v < n; v++ {
			dirty = append(dirty, v)
		}
	}
	last := e.emb.LastFullStep()
	if e.cfg.IncrementalForward && last >= 0 &&
		(e.cfg.RefreshEverySteps <= 0 || t-last < e.cfg.RefreshEverySteps) {
		if len(dirty) == 0 {
			return nil, ruleNone
		}
		return e.g.Ball(dirty, e.model.Layers()), ruleDirty
	}
	if e.holds && e.emb.Valid() {
		for _, q := range e.wl.Queries() {
			for _, a := range q.Anchors {
				if a < n {
					dirty = append(dirty, a)
				}
			}
		}
		if live := e.g.Live(dirty); len(live) < n {
			return live, ruleLive
		}
	}
	return nil, ruleAll
}

// runForward computes this step's inference embeddings into e.lastEmb: the
// policy (advance) picked rows and rule r, and the rule's executor advances
// them.
// all runs the plain full forward; none publishes the store; live runs a
// region forward over the live rows, which are closed under L-hop balls, so
// each comes out bit-equal to a full forward's; dirty runs a region forward
// over Ball(rows, L) in demand order (graph.Region). With Shards > 1 the
// policy stays global, so no decision depends on P; only region forwards fan
// out (DESIGN.md §12).
func (e *Engine) runForward(t int, rows []int, r rule) {
	n := e.g.N()
	computed := len(rows)
	switch r {
	case ruleAll:
		computed = n
		e.forwardFull(t)
	case ruleNone:
		e.lastEmb = e.emb.Publish()
	case ruleDirty:
		region := e.g.Ball(rows, e.model.Layers())
		e.forwardRegion(t, region, rows)
		computed = len(region)
	case ruleLive:
		e.forwardRegion(t, rows, rows)
		e.emb.MarkFresh(t)
	}
	if r >= ruleLive {
		e.tele.fullForwards.Inc()
	} else {
		e.tele.incForwards.Inc()
	}
	e.tele.fwdRows.Store(int64(computed))
	e.tele.skippedRows.Add(int64(n - computed))
	e.tele.dirtyFrac.Observe(float64(computed) / float64(n))
}

// forwardFull runs a forward over the whole graph of step t, committing every
// row. The store adopts the output, unless no later step reads the store (no
// IncrementalForward, no held rows): then it is served as is.
func (e *Engine) forwardFull(t int) {
	out := dgnn.Infer(e.inferTape, e.model, dgnn.FullView(e.g))
	if e.cfg.IncrementalForward || e.holds {
		e.emb.SetFull(out, t)
		e.lastEmb = e.emb.Publish()
	} else {
		e.lastEmb = tensor.ViewOf(out)
	}
	if e.shardFwd != nil {
		// A forward over the whole graph committed state rows here, so
		// replica state mirrors no longer match row for row.
		e.shardFwd.InvalidateMirrors()
	}
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
	e.lastEmb = e.emb.Publish()
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
	if v < 0 || v >= e.lastEmb.Rows() {
		return nil
	}
	return append([]float64(nil), e.lastEmb.Row(v)...)
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
