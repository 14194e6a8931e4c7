package core

import (
	"math/rand"
)

// roundsPerStep is the number of training rounds per training step, the
// paper's training frequency f between snapshot arrivals: Full performs this
// many full-graph passes and the adaptive strategies this many Algorithm-1
// iterations, so the per-update cost ratio between methods is preserved.
const roundsPerStep = 10

// Scheduler runs the selected training strategy at the configured interval.
// It is the piece the engine calls once per stream step.
type Scheduler struct {
	Strategy Strategy
	Trainer  *Trainer
	Adaptive *AdaptiveLearner // nil for Full

	cfg Config
	// TrainSteps counts executed training steps (observability).
	TrainSteps int
}

// NewScheduler wires a scheduler for the strategy.
func NewScheduler(t *Trainer, cfg Config, strategy Strategy, rng *rand.Rand) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{Strategy: strategy, Trainer: t, cfg: cfg}
	if strategy != Full {
		s.Adaptive = NewAdaptiveLearner(t, cfg, strategy, rng)
	}
	return s, nil
}

// Due reports whether step falls on the training interval.
func (s *Scheduler) Due(step int) bool { return step%s.cfg.Interval == 0 }

// OnStep performs the step's training work if the step falls on the
// training interval. updated is the update set U of the step. It reports
// whether training ran.
func (s *Scheduler) OnStep(step int, updated []int) bool {
	if !s.Due(step) {
		return false
	}
	s.TrainSteps++
	for round := 0; round < roundsPerStep; round++ {
		switch s.Strategy {
		case Full:
			s.Trainer.TrainFull()
		default:
			s.Adaptive.Step(updated)
		}
	}
	return true
}
