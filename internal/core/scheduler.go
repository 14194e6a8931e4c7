package core

import (
	"math/rand"
)

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
		// Partition extraction dominates warm adaptive steps; attach the
		// version-keyed LRU cache (Full trains whole snapshots and never
		// extracts partitions, so it gets none).
		if t.G.PartitionCache() == nil {
			t.G.EnablePartitionCache(PartitionCacheCap)
		}
	}
	return s, nil
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

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
	for round := 0; round < s.cfg.RoundsPerStep; round++ {
		switch s.Strategy {
		case Full:
			s.Trainer.TrainFull()
		default:
			s.Adaptive.Step(updated)
		}
	}
	return true
}
