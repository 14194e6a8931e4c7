// Package core implements the paper's contribution: node-level partitioning
// of online training work (Section III-C), the randomized adaptive
// node-weight learning of Algorithm 1 (Section IV), and the graph-KDE node
// sampling of Algorithm 2 (Section V), together with the Full/Uniform
// baseline trainer and an exact Markov-chain analyzer for Theorem IV.4.
package core

import "fmt"

// Strategy selects how online training work is scheduled each step.
type Strategy int

const (
	// Full is the default full/uniform training baseline: every training
	// step back-propagates over the whole snapshot.
	Full Strategy = iota
	// Weighted is Algorithm 1: adaptive node-weight learning with
	// chip-distribution sampling of node partitions.
	Weighted
	// KDE is Algorithm 1 with Algorithm 2's graph-KDE sampling replacing
	// GetSampleNode.
	KDE
)

// String returns the method name used in the paper's tables.
func (s Strategy) String() string {
	switch s {
	case Full:
		return "Full/Uniform"
	case Weighted:
		return "Weighted"
	case KDE:
		return "KDE"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy resolves a strategy name ("full", "weighted", "kde").
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "full", "Full/Uniform", "Full":
		return Full, nil
	case "weighted", "Weighted":
		return Weighted, nil
	case "kde", "KDE":
		return KDE, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q", name)
}

// Config carries the paper's tunable parameters with their published
// defaults (Section VI-F).
type Config struct {
	// K is the initial chips per node (Algorithm 1 line 1); default 5.
	K int
	// PairsPerStep is the number of sampled node pairs per training round;
	// default 1 (Table III).
	PairsPerStep int
	// PUpdate is p_u, the probability of restricting sampling to the
	// update set U (Algorithm 1 lines 18-21); default 0.5.
	PUpdate float64
	// Interval is the number of stream steps between training steps;
	// default 1 (Table III).
	Interval int
	// Seeds is w, the KDE seed-window size (Algorithm 2); default 15.
	Seeds int
	// StopProb is q, the random-walk stop probability; default 0.5.
	StopProb float64
	// SeedKeep is p, the probability that the newest sample replaces the
	// oldest seed (vs. a uniform teleport node); default 0.8.
	SeedKeep float64
	// LR is the optimizer learning rate.
	LR float64
	// SelfWeight and SupWeight scale the self-supervised and supervised
	// loss terms.
	SelfWeight, SupWeight float64
	// ReplaySize is the minibatch of revealed query results added to each
	// partition's supervised loss (trains the prediction heads only;
	// default 24). 0 disables replay.
	ReplaySize int
}

// DefaultConfig returns the paper's default parameter values.
func DefaultConfig() Config {
	return Config{
		K:            5,
		PairsPerStep: 1,
		PUpdate:      0.5,
		Interval:     1,
		Seeds:        15,
		StopProb:     0.5,
		SeedKeep:     0.8,
		LR:           0.02,
		SelfWeight:   1,
		SupWeight:    1,
		ReplaySize:   24,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("core: K must be >= 1, got %d", c.K)
	case c.PairsPerStep < 1:
		return fmt.Errorf("core: PairsPerStep must be >= 1, got %d", c.PairsPerStep)
	case c.PUpdate < 0 || c.PUpdate > 1:
		return fmt.Errorf("core: PUpdate must be in [0,1], got %v", c.PUpdate)
	case c.Interval < 1:
		return fmt.Errorf("core: Interval must be >= 1, got %d", c.Interval)
	case c.Seeds < 1:
		return fmt.Errorf("core: Seeds must be >= 1, got %d", c.Seeds)
	case c.StopProb <= 0 || c.StopProb > 1:
		return fmt.Errorf("core: StopProb must be in (0,1], got %v", c.StopProb)
	case c.SeedKeep < 0 || c.SeedKeep > 1:
		return fmt.Errorf("core: SeedKeep must be in [0,1], got %v", c.SeedKeep)
	case c.LR <= 0:
		return fmt.Errorf("core: LR must be positive, got %v", c.LR)
	}
	return nil
}
