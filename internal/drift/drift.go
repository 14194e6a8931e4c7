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

	st PageHinkleyState
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
	s := &p.st
	s.N++
	s.Mean += (x - s.Mean) / float64(s.N)
	s.Cum += x - s.Mean - p.Delta
	if s.Cum < s.Min {
		s.Min = s.Cum
	}
	if s.N >= p.MinSamples && s.Cum-s.Min > p.Lambda {
		p.Reset()
		return true
	}
	return false
}

// Reset clears all detector state.
func (p *PageHinkley) Reset() { p.st = PageHinkleyState{} }

// PageHinkleyState is a checkpointable snapshot of the detector's running
// statistics.
type PageHinkleyState struct {
	N    int
	Mean float64
	Cum  float64
	Min  float64
}

// State captures the detector's running statistics for checkpointing.
func (p *PageHinkley) State() PageHinkleyState { return p.st }

// RestoreState restores statistics captured with State.
func (p *PageHinkley) RestoreState(s PageHinkleyState) { p.st = s }
