// Package drift provides an online concept-drift detector over the engine's
// per-step query loss. The paper's Figure 4 shows that graph streams drift
// and that a stale model's error spikes at regime boundaries; a detector
// turns those spikes into explicit signals that an operator (or an adaptive
// training schedule) can act on — e.g. temporarily raising the training
// budget, as the extension example in cmd/queryd demonstrates.
package drift

import "fmt"

// PageHinkley is the Page-Hinkley test, a sequential changepoint detector
// for increases in the mean of a signal: it accumulates deviations above the
// running mean (minus a tolerance delta) and signals when the accumulation
// exceeds threshold lambda.
type PageHinkley struct {
	// Delta is the tolerated deviation magnitude (absorbs noise).
	//streamlint:ckpt-exempt detection tuning is configuration, rebuilt from Config on resume
	Delta float64
	// Lambda is the detection threshold on the cumulative statistic.
	//streamlint:ckpt-exempt detection tuning is configuration, rebuilt from Config on resume
	Lambda float64
	// MinSamples is the warm-up length before detection can fire.
	//streamlint:ckpt-exempt detection tuning is configuration, rebuilt from Config on resume
	MinSamples int

	n    int
	mean float64
	cum  float64
	min  float64
}

// NewPageHinkley returns a detector with the given tolerance and threshold.
func NewPageHinkley(delta, lambda float64) *PageHinkley {
	if delta < 0 || lambda <= 0 {
		panic(fmt.Sprintf("drift: invalid PageHinkley(delta=%v, lambda=%v)", delta, lambda))
	}
	return &PageHinkley{Delta: delta, Lambda: lambda, MinSamples: 5}
}

// Add consumes the step's observation (e.g. mean query loss) and reports
// whether a drift was detected at this step.
func (p *PageHinkley) Add(x float64) bool {
	p.n++
	p.mean += (x - p.mean) / float64(p.n)
	p.cum += x - p.mean - p.Delta
	if p.cum < p.min {
		p.min = p.cum
	}
	if p.n >= p.MinSamples && p.cum-p.min > p.Lambda {
		p.Reset()
		return true
	}
	return false
}

// Reset clears all detector state.
func (p *PageHinkley) Reset() {
	p.n, p.mean, p.cum, p.min = 0, 0, 0, 0
}

// PageHinkleyState is a checkpointable snapshot of the detector's running
// statistics.
type PageHinkleyState struct {
	N    int
	Mean float64
	Cum  float64
	Min  float64
}

// State captures the detector's running statistics for checkpointing.
func (p *PageHinkley) State() PageHinkleyState {
	return PageHinkleyState{N: p.n, Mean: p.mean, Cum: p.cum, Min: p.min}
}

// RestoreState restores statistics captured with State.
func (p *PageHinkley) RestoreState(s PageHinkleyState) {
	p.n, p.mean, p.cum, p.min = s.N, s.Mean, s.Cum, s.Min
}
