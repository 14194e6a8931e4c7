package bench

import (
	"fmt"
	"io"

	"streamgnn/internal/core"
)

// TableICells returns the (dataset, model) pairs of Table I.
func TableICells() [][2]string {
	return [][2]string{
		{"Bitcoin", "TGCN"},
		{"Bitcoin", "WinGNN"},
		{"Reddit", "GCLSTM"},
		{"Reddit", "DyGrEncoder"},
		{"Taxi", "DCRNN"},
		{"Taxi", "ROLAND"},
	}
}

// TableIICells returns the (dataset, model) pairs of Table II.
func TableIICells() [][2]string {
	return [][2]string{
		{"StackOverflow", "EvolveGCN"},
		{"UCIMessages", "ROLAND"},
	}
}

// Strategies returns the three methods compared in Tables I and II.
func Strategies() []core.Strategy {
	return []core.Strategy{core.Full, core.Weighted, core.KDE}
}

// RunTable runs every cell of Table I or II under the three methods, each
// `runs` times over `steps` stream steps at workload scale `scale`, and writes
// one row per cell and method. linkPred selects Table II's quality column
// (Accuracy instead of Error).
func RunTable(w io.Writer, cells [][2]string, runs, steps int, scale float64, linkPred bool) error {
	writeHeader(w, linkPred)
	for _, cell := range cells {
		for _, strat := range Strategies() {
			cfg := EqualizedCell(cell[0], cell[1], strat)
			cfg.Gen.Steps, cfg.Gen.Scale = steps, scale
			agg, err := RunRepeated(cfg, runs)
			if err != nil {
				return err
			}
			writeRow(w, cell[0], cell[1], strat.String(), agg, linkPred)
		}
	}
	return nil
}

// SweepSpec defines one parameter sweep row-group of Table III.
type SweepSpec struct {
	Label   string
	Dataset string
	Model   string
	Values  []float64
	// Apply installs the parameter value into the cell config.
	Apply func(*CellConfig, float64)
}

// TableIIISweeps returns the five sweeps of Table III with the paper's
// dataset/model pairings and values.
func TableIIISweeps() []SweepSpec {
	return []SweepSpec{
		{
			Label: "Interval", Dataset: "Bitcoin", Model: "TGCN",
			Values: []float64{1, 2, 5, 10},
			Apply:  func(c *CellConfig, v float64) { c.Core.Interval = int(v) },
		},
		{
			Label: "#pairs", Dataset: "Reddit", Model: "DCRNN",
			Values: []float64{1, 3, 7},
			Apply:  func(c *CellConfig, v float64) { c.Core.PairsPerStep = int(v) },
		},
		{
			Label: "#seeds", Dataset: "Taxi", Model: "GCLSTM",
			Values: []float64{5, 15, 50},
			Apply:  func(c *CellConfig, v float64) { c.Core.Seeds = int(v) },
		},
		{
			Label: "q", Dataset: "Bitcoin", Model: "DyGrEncoder",
			Values: []float64{0.1, 0.5, 0.9},
			Apply:  func(c *CellConfig, v float64) { c.Core.StopProb = v },
		},
		{
			Label: "p", Dataset: "Reddit", Model: "WinGNN",
			Values: []float64{0.1, 0.5, 0.8},
			Apply:  func(c *CellConfig, v float64) { c.Core.SeedKeep = v },
		},
	}
}

// RunSweep runs one Table III sweep with the KDE method, each value `runs`
// times over `steps` stream steps at workload scale `scale` (spec.Apply may
// override both), and writes one row per value.
func RunSweep(w io.Writer, spec SweepSpec, runs, steps int, scale float64) error {
	writeHeader(w, false)
	for _, v := range spec.Values {
		cfg := EqualizedCell(spec.Dataset, spec.Model, core.KDE)
		cfg.Gen.Steps, cfg.Gen.Scale = steps, scale
		spec.Apply(&cfg, v)
		agg, err := RunRepeated(cfg, runs)
		if err != nil {
			return err
		}
		writeRow(w, spec.Dataset, spec.Model, fmt.Sprintf("%s=%g", spec.Label, v), agg, false)
	}
	return nil
}

const rowFormat = "%-14s %-12s %-14s %16s %10s %16s %16s %16s\n"

func writeHeader(w io.Writer, linkPred bool) {
	quality := "Error"
	if linkPred {
		quality = "Accuracy"
	}
	fmt.Fprintf(w, rowFormat, "Dataset", "Model", "Method", "TrainTime(s)", "Memory", quality, "AUC", "MRR")
}

func writeRow(w io.Writer, dataset, model, method string, agg AggResult, linkPred bool) {
	quality := agg.Error
	if linkPred {
		quality = agg.Accuracy
	}
	fmt.Fprintf(w, rowFormat, dataset, model, method,
		fmt.Sprintf("%.3f±%.3f", agg.Time.Mean(), agg.Time.Std()),
		FormatBytes(agg.PeakBytes),
		fmt.Sprintf("%.3f±%.3f", quality.Mean(), quality.Std()),
		fmt.Sprintf("%.3f±%.3f", agg.AUC.Mean(), agg.AUC.Std()),
		fmt.Sprintf("%.3f±%.3f", agg.MRR.Mean(), agg.MRR.Std()))
}

// MotivationResult holds the Figure 4 series for one dataset.
type MotivationResult struct {
	Dataset    string
	Model      string
	StopStep   int
	Continuous []float64 // per-step eval MSE, training at every step
	Partial    []float64 // per-step eval MSE, training stops at StopStep
	// ContTailAUC and PartTailAUC are the last-quarter AUCs of the two
	// conditions: on workloads where the loss gap is small (Reddit in the
	// paper), the staleness shows up as an accuracy/AUC drop instead.
	ContTailAUC float64
	PartTailAUC float64
}

// RunMotivation reproduces one Figure 4 panel: continuous training vs
// training stopped after the first quarter of the steps.
func RunMotivation(dataset, model string, steps int, seed int64) (MotivationResult, error) {
	res := MotivationResult{Dataset: dataset, Model: model, StopStep: steps / 4}
	cont := DefaultCell(dataset, model, core.KDE)
	cont.Gen.Steps = steps
	cont.Gen.Seed = seed
	cont.Seed = seed
	cr, err := RunCell(cont)
	if err != nil {
		return res, err
	}
	part := cont
	part.StopTrainingAfter = res.StopStep
	pr, err := RunCell(part)
	if err != nil {
		return res, err
	}
	res.Continuous = cr.StepLoss
	res.Partial = pr.StepLoss
	res.ContTailAUC = cr.TailAUC
	res.PartTailAUC = pr.TailAUC
	return res, nil
}

// TailMeanLoss averages the last quarter of a Figure 4 loss series,
// skipping NaN steps — the regime where partial training has gone stale.
func TailMeanLoss(series []float64) float64 {
	from := len(series) * 3 / 4
	var sum float64
	var n int
	for _, v := range series[from:] {
		if v == v { // skip NaN
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
