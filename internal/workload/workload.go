// Package workload generates the five synthetic graph streams standing in
// for the paper's datasets (Bitcoin/Elliptic, Reddit, NYC Taxi, Stack
// Overflow, UCI Messages — Section VI-A). The originals are real datasets up
// to 30 GB; these generators reproduce, at laptop scale, the two phenomena
// the experiments depend on:
//
//  1. concept drift — the feature→target mapping changes over time, so a
//     model whose training stops deteriorates (Figure 4), and
//  2. localized utility — activity and label mass concentrate in "hot"
//     regions of the graph, so weighted/KDE training beats full training at
//     equal accuracy (Tables I–III).
//
// Every generator precomputes its ground-truth tables while emitting events,
// so query labelers are exact and O(1).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"streamgnn/internal/query"
	"streamgnn/internal/stream"
)

// GenConfig controls a generator.
type GenConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Steps is the number of stream steps to generate.
	Steps int
	// Scale multiplies node/edge counts (1 = default laptop scale).
	Scale float64
	// DriftPeriod is the number of steps between regime changes; 0 uses
	// the dataset default. Drift is what makes continuous training
	// necessary (RQ1).
	DriftPeriod int
}

func (c GenConfig) withDefaults(defaultDrift int) GenConfig {
	if c.Steps <= 0 {
		c.Steps = 40
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.DriftPeriod <= 0 {
		c.DriftPeriod = defaultDrift
	}
	return c
}

func (c GenConfig) scaled(n int) int {
	v := int(math.Round(float64(n) * c.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// Dataset is a generated graph stream plus its analytics workload.
type Dataset struct {
	// Name matches the paper's dataset name.
	Name string
	// FeatDim is the node attribute dimension.
	FeatDim int
	// Batches is the event stream, one batch per step.
	Batches []stream.Batch
	// WindowSteps, if > 0, is the sliding-window width in steps.
	WindowSteps int
	// Queries are the continuous predictive queries (event monitoring).
	Queries []*query.EventQuery
	// LinkPred marks the dataset as a link-prediction workload (Table II).
	LinkPred bool
	// Steps is the stream length.
	Steps int
}

// Source returns a fresh replayable source over the batches.
func (d *Dataset) Source() stream.Source {
	return &stream.SliceSource{Batches: d.Batches}
}

// ByName builds a dataset by its paper name.
func ByName(name string, cfg GenConfig) (*Dataset, error) {
	switch name {
	case "Bitcoin":
		return Bitcoin(cfg), nil
	case "Reddit":
		return Reddit(cfg), nil
	case "Taxi":
		return Taxi(cfg), nil
	case "StackOverflow":
		return StackOverflow(cfg), nil
	case "UCIMessages":
		return UCIMessages(cfg), nil
	case "Churn":
		return Churn(cfg), nil
	}
	return nil, fmt.Errorf("workload: unknown dataset %q", name)
}

// Names lists the built-in workloads: the five paper datasets plus the
// adversarial edge-churn stress stream.
func Names() []string {
	return []string{"Bitcoin", "Reddit", "Taxi", "StackOverflow", "UCIMessages", "Churn"}
}

// regimeProcess models drifting latent activity for a set of regions: each
// region's activity follows a mean-reverting AR(1) process whose mean is
// re-drawn every DriftPeriod steps (the regime change), and a small set of
// "hot" regions carries most of the activity mass.
type regimeProcess struct {
	rng      *rand.Rand
	activity []float64
	mean     []float64
	hot      []bool
	period   int
	step     int
}

func newRegimeProcess(rng *rand.Rand, regions, hotRegions, driftPeriod int) *regimeProcess {
	p := &regimeProcess{
		rng:      rng,
		activity: make([]float64, regions),
		mean:     make([]float64, regions),
		hot:      make([]bool, regions),
		period:   driftPeriod,
	}
	for _, r := range rng.Perm(regions)[:hotRegions] {
		p.hot[r] = true
	}
	p.redraw()
	copy(p.activity, p.mean)
	return p
}

// hotRegions returns the indices of the hot regions (ascending).
func (p *regimeProcess) hotRegions() []int {
	var out []int
	for r, h := range p.hot {
		if h {
			out = append(out, r)
		}
	}
	return out
}

func (p *regimeProcess) redraw() {
	for r := range p.mean {
		base := 0.15 + 0.1*p.rng.Float64()
		if p.hot[r] {
			base = 0.6 + 0.35*p.rng.Float64()
		}
		p.mean[r] = base
	}
}

// advance moves the process one step, re-drawing regime means on period
// boundaries, and returns the new activity vector (values in [0, 1]).
func (p *regimeProcess) advance() []float64 {
	p.step++
	if p.period > 0 && p.step%p.period == 0 {
		p.redraw()
	}
	for r := range p.activity {
		a := 0.8*p.activity[r] + 0.2*p.mean[r] + 0.03*p.rng.NormFloat64()
		p.activity[r] = clamp01(a)
	}
	return p.activity
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// gainSchedule models observation drift: the informative features are
// reported through a gain whose sign alternates and whose magnitude is
// re-drawn at every regime boundary, while ground truths stay in fixed
// units. A model whose training stops keeps using the stale gain and its
// predictions invert/rescale after the next boundary — this is the
// mapping-level drift that makes Figure 4's partial-training loss blow up,
// whereas a continuously trained model re-fits within a few steps.
type gainSchedule struct {
	rng    *rand.Rand
	period int
	gain   float64
	sign   float64
}

func newGainSchedule(rng *rand.Rand, period int) *gainSchedule {
	return &gainSchedule{rng: rng, period: period, gain: 1, sign: 1}
}

// at returns the gain for the given step, re-drawing on regime boundaries.
func (g *gainSchedule) at(step int) float64 {
	if g.period > 0 && step > 0 && step%g.period == 0 {
		g.sign = -g.sign
		g.gain = g.sign * (0.7 + 0.6*g.rng.Float64())
	}
	return g.gain
}

// levelSchedule models scale drift of the monitored quantity itself: the
// per-regime severity level multiplies the raw monitored counts, so the
// truth's magnitude jumps at regime boundaries. A frozen model keeps
// predicting at the old level and its squared error scales with the level
// gap — the mechanism behind Figure 4's partial-training blowup — while a
// continuously trained model re-fits the new level within a few steps from
// the revealed labels.
type levelSchedule struct {
	rng    *rand.Rand
	period int
	level  float64
}

func newLevelSchedule(rng *rand.Rand, period int) *levelSchedule {
	return &levelSchedule{rng: rng, period: period, level: 1}
}

// at returns the severity level for the given step.
func (l *levelSchedule) at(step int) float64 {
	if l.period > 0 && step > 0 && step%l.period == 0 {
		l.level = 1 + 9*l.rng.Float64()
	}
	return l.level
}

// truthTable stores per-(step, anchor) ground truth for O(1) labelers.
type truthTable struct {
	vals map[int]map[int]float64 // step -> anchor -> truth
}

func newTruthTable() *truthTable { return &truthTable{vals: make(map[int]map[int]float64)} }

func (t *truthTable) set(step, anchor int, v float64) {
	m := t.vals[step]
	if m == nil {
		m = make(map[int]float64)
		t.vals[step] = m
	}
	m[anchor] = v
}

// lookup returns the stored truth for (anchor, step).
func (t *truthTable) lookup(anchor, step int) (float64, bool) {
	m, ok := t.vals[step]
	if !ok {
		return 0, false
	}
	v, ok := m[anchor]
	return v, ok
}
