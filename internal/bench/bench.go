// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section VI): Figure 4 (the need for
// continuous training), Table I (event-monitoring workloads), Table II
// (link prediction), and Table III (parameter study), plus the ablations
// called out in DESIGN.md.
//
// Each cell runs the same engine loop the public API uses, but instruments
// the training section with a wall clock and the tensor allocation meter so
// training time and peak memory are attributable to the strategy alone
// (inference is common to all strategies).
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/core"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/metrics"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
	"streamgnn/internal/tensor"
	"streamgnn/internal/workload"
)

// CellConfig identifies one (dataset, model, method) experiment cell.
type CellConfig struct {
	Dataset  string
	Model    string
	Strategy core.Strategy
	Gen      workload.GenConfig
	Core     core.Config
	Hidden   int
	Seed     int64
	// StopTrainingAfter, if positive, halts training after that many steps
	// (the "partial training" condition of Figure 4b).
	StopTrainingAfter int
}

// DefaultCell returns a cell with the paper's default parameters.
func DefaultCell(dataset, model string, strategy core.Strategy) CellConfig {
	return CellConfig{
		Dataset:  dataset,
		Model:    model,
		Strategy: strategy,
		Gen:      workload.GenConfig{Seed: 1, Steps: 40},
		Core:     core.DefaultConfig(),
		Hidden:   16,
		Seed:     1,
	}
}

// EqualizedCell returns a cell with the per-method training budget used for
// Tables I and II. Following the paper's protocol ("we adjust each method's
// training interval so that they give similar errors, and then fairly
// compare time and memory"), the adaptive strategies run more — much
// cheaper — training rounds per step than full training.
func EqualizedCell(dataset, model string, strategy core.Strategy) CellConfig {
	cfg := DefaultCell(dataset, model, strategy)
	if strategy == core.Full {
		cfg.Core.RoundsPerStep = 10
	} else {
		cfg.Core.RoundsPerStep = 30
	}
	return cfg
}

// CellResult is one measured row.
type CellResult struct {
	// TrainTime is the wall-clock time spent inside training only.
	TrainTime time.Duration
	// PeakStepBytes is the largest per-step training allocation volume, in
	// bytes of float64 tensor data (the machine-independent analogue of
	// "maximum memory consumption during training").
	PeakStepBytes int64
	// Error is the MSE of resolved query predictions (event workloads).
	Error float64
	// Accuracy, AUC, MRR follow the paper's metric suite.
	Accuracy float64
	AUC      float64
	MRR      float64
	// TailAUC is the AUC over the last quarter of the stream — where the
	// partial-training condition of Figure 4 has gone stale.
	TailAUC float64
	// StepLoss is the per-step evaluation MSE (Figure 4 series).
	StepLoss []float64
	// TrainedPartitions counts node partitions trained (adaptive only).
	TrainedPartitions int
	// FinalChips is the normalized chip distribution after the run
	// (adaptive only; nil for Full).
	FinalChips []float64
}

// RunCell executes one experiment cell.
func RunCell(cfg CellConfig) (CellResult, error) {
	var res CellResult
	ds, err := workload.ByName(cfg.Dataset, cfg.Gen)
	if err != nil {
		return res, err
	}
	kind, err := dgnn.ParseKind(cfg.Model)
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.NewDynamic(ds.FeatDim)
	rep := stream.NewReplayer(g, ds.Source(), ds.WindowSteps)
	model := dgnn.New(kind, rng, ds.FeatDim, cfg.Hidden)
	heads := query.NewHeads(rng, cfg.Hidden)
	wl := query.NewWorkload(heads)
	ds.Attach(wl, cfg.Seed+1)
	params := append(model.Params(), heads.Params()...)
	opt := model.WrapOptimizer(autodiff.NewAdam(cfg.Core.LR, params))
	trainer := core.NewTrainer(g, model, wl, opt, cfg.Core, rng)
	sched, err := core.NewScheduler(trainer, cfg.Core, cfg.Strategy, rng)
	if err != nil {
		return res, err
	}

	infer := autodiff.NewInferenceTape()
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)

	for rep.Advance() {
		t := rep.Step()
		updated := g.Updated()
		model.BeginStep(t)
		// Inference: full-graph forward, common to every strategy.
		emb := dgnn.Infer(infer, model, dgnn.FullView(g))
		wl.Reveal(g, t)
		wl.Predict(emb, t)
		// Training section: metered and timed.
		if cfg.StopTrainingAfter <= 0 || t < cfg.StopTrainingAfter {
			tensor.ResetMeter()
			start := time.Now()
			sched.OnStep(t, updated)
			res.TrainTime += time.Since(start)
			if b := tensor.TotalBytes(); b > res.PeakStepBytes {
				res.PeakStepBytes = b
			}
		}
		g.ResetUpdated()
	}

	res.StepLoss = perStepLoss(wl.Outcomes(), ds.Steps)
	fillMetrics(&res, wl, ds.Steps)
	if sched.Adaptive != nil {
		res.TrainedPartitions = sched.Adaptive.Trained
		res.FinalChips = sched.Adaptive.Probabilities()
	}
	return res, nil
}

func perStepLoss(outs []query.Outcome, steps int) []float64 {
	sums := make([]float64, steps)
	counts := make([]float64, steps)
	for _, o := range outs {
		if o.Step < steps {
			d := o.Score - o.Truth
			sums[o.Step] += d * d
			counts[o.Step]++
		}
	}
	loss := make([]float64, steps)
	for s := range loss {
		if counts[s] > 0 {
			loss[s] = sums[s] / counts[s]
		} else {
			loss[s] = math.NaN()
		}
	}
	return loss
}

func fillMetrics(res *CellResult, wl *query.Workload, steps int) {
	outs := wl.Outcomes()
	if len(outs) > 0 {
		var scores, truths []float64
		var events []bool
		var tailScores []float64
		var tailEvents []bool
		for _, o := range outs {
			scores = append(scores, o.Score)
			truths = append(truths, o.Truth)
			events = append(events, o.Event)
			if o.Step >= steps*3/4 {
				tailScores = append(tailScores, o.Score)
				tailEvents = append(tailEvents, o.Event)
			}
		}
		res.Error = metrics.MSE(scores, truths)
		res.AUC = metrics.AUC(scores, events)
		res.TailAUC = metrics.AUC(tailScores, tailEvents)
		res.Accuracy = metrics.Accuracy(scores, events, threshold(outs))
		// Event MRR: rank each positive event's score among negatives.
		res.MRR = eventMRR(scores, events)
	}
	if lt := wl.LinkTask(); lt != nil {
		ls, ll := lt.Scores()
		if len(ls) > 0 {
			res.AUC = metrics.AUC(ls, ll)
			res.Accuracy = metrics.Accuracy(ls, ll, 0)
			res.MRR = metrics.MRR(lt.Ranks())
		}
	}
}

// threshold recovers the (single) query threshold from outcomes so accuracy
// measures event detection.
func threshold(outs []query.Outcome) float64 {
	// Event flag was computed as Truth > thresh; recover an equivalent
	// score threshold as the midpoint between event and non-event truths.
	var lo, hi = math.Inf(1), math.Inf(-1)
	for _, o := range outs {
		if o.Event && o.Truth < lo {
			lo = o.Truth
		}
		if !o.Event && o.Truth > hi {
			hi = o.Truth
		}
	}
	if math.IsInf(lo, 1) || math.IsInf(hi, -1) {
		return 0.5
	}
	return (lo + hi) / 2
}

// eventMRR ranks each positive event's score against up to 20 negative
// scores, mirroring the link-prediction MRR protocol.
func eventMRR(scores []float64, events []bool) float64 {
	var negs []float64
	for i, e := range events {
		if !e {
			negs = append(negs, scores[i])
			if len(negs) == 20 {
				break
			}
		}
	}
	if len(negs) == 0 {
		return 0
	}
	var ranks []int
	for i, e := range events {
		if e {
			ranks = append(ranks, metrics.RankOf(scores[i], negs))
		}
	}
	return metrics.MRR(ranks)
}

// AggResult aggregates repeated runs of one cell (the ± rows of the paper).
type AggResult struct {
	Cell      CellConfig
	Time      metrics.Summary // seconds
	Error     metrics.Summary
	Accuracy  metrics.Summary
	AUC       metrics.Summary
	MRR       metrics.Summary
	PeakBytes int64 // max over runs
}

// RunRepeated executes a cell `runs` times with distinct seeds.
func RunRepeated(cfg CellConfig, runs int) (AggResult, error) {
	agg := AggResult{Cell: cfg}
	for r := 0; r < runs; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		c.Gen.Seed = cfg.Gen.Seed + int64(r)
		res, err := RunCell(c)
		if err != nil {
			return agg, err
		}
		agg.Time.Add(res.TrainTime.Seconds())
		agg.Error.Add(res.Error)
		agg.Accuracy.Add(res.Accuracy)
		if !math.IsNaN(res.AUC) {
			agg.AUC.Add(res.AUC)
		}
		agg.MRR.Add(res.MRR)
		if res.PeakStepBytes > agg.PeakBytes {
			agg.PeakBytes = res.PeakStepBytes
		}
	}
	return agg, nil
}

// FormatBytes renders a byte count the way the paper's Memory column does.
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
