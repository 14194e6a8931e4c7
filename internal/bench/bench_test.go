package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"streamgnn/internal/core"
)

func quickCell(dataset, model string, strat core.Strategy) CellConfig {
	cfg := DefaultCell(dataset, model, strat)
	cfg.Gen.Steps = 14
	cfg.Gen.Scale = 0.5
	cfg.Hidden = 8
	return cfg
}

func TestRunCellEventWorkload(t *testing.T) {
	res, err := RunCell(quickCell("Bitcoin", "TGCN", core.KDE))
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainTime <= 0 {
		t.Fatal("no training time recorded")
	}
	if res.PeakStepBytes <= 0 {
		t.Fatal("no memory recorded")
	}
	if res.Error <= 0 {
		t.Fatal("no error recorded")
	}
	if res.TrainedPartitions == 0 {
		t.Fatal("no partitions trained")
	}
	if len(res.FinalChips) == 0 {
		t.Fatal("no chip distribution")
	}
	if len(res.StepLoss) != 14 {
		t.Fatalf("StepLoss len %d", len(res.StepLoss))
	}
}

func TestRunCellLinkWorkload(t *testing.T) {
	res, err := RunCell(quickCell("UCIMessages", "ROLAND", core.Weighted))
	if err != nil {
		t.Fatal(err)
	}
	if res.MRR <= 0 || math.IsNaN(res.AUC) {
		t.Fatalf("link metrics missing: %+v", res)
	}
}

func TestRunCellFullStrategy(t *testing.T) {
	res, err := RunCell(quickCell("Reddit", "GCLSTM", core.Full))
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainedPartitions != 0 || res.FinalChips != nil {
		t.Fatal("Full strategy should have no adaptive state")
	}
	if res.TrainTime <= 0 {
		t.Fatal("no training time")
	}
}

func TestRunCellValidation(t *testing.T) {
	if _, err := RunCell(quickCell("Nope", "TGCN", core.Full)); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := RunCell(quickCell("Bitcoin", "Nope", core.Full)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// The headline claim: weighted/KDE training is much cheaper than full
// training in both time and peak per-step memory.
func TestWeightedBeatsFullOnResources(t *testing.T) {
	full, err := RunCell(quickCell("Taxi", "DCRNN", core.Full))
	if err != nil {
		t.Fatal(err)
	}
	kde, err := RunCell(quickCell("Taxi", "DCRNN", core.KDE))
	if err != nil {
		t.Fatal(err)
	}
	if kde.TrainTime >= full.TrainTime {
		t.Fatalf("KDE training (%v) not faster than full (%v)", kde.TrainTime, full.TrainTime)
	}
	if kde.PeakStepBytes >= full.PeakStepBytes {
		t.Fatalf("KDE memory (%d) not below full (%d)", kde.PeakStepBytes, full.PeakStepBytes)
	}
}

func TestStopTrainingAfter(t *testing.T) {
	cfg := quickCell("Bitcoin", "TGCN", core.KDE)
	cfg.StopTrainingAfter = 3
	res, err := RunCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := RunCell(quickCell("Bitcoin", "TGCN", core.KDE))
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainTime >= cont.TrainTime {
		t.Fatal("partial training should spend less time training")
	}
}

func TestRunRepeatedAggregates(t *testing.T) {
	agg, err := RunRepeated(quickCell("Bitcoin", "TGCN", core.Weighted), 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Time.N() != 3 || agg.Error.N() != 3 {
		t.Fatalf("runs not aggregated: %d", agg.Time.N())
	}
	if agg.PeakBytes <= 0 {
		t.Fatal("peak bytes missing")
	}
}

func TestRunMotivationSeries(t *testing.T) {
	res, err := RunMotivation("Bitcoin", "TGCN", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopStep != 4 {
		t.Fatalf("StopStep = %d", res.StopStep)
	}
	if len(res.Continuous) != 16 || len(res.Partial) != 16 {
		t.Fatal("series lengths wrong")
	}
}

func TestTableCellsAndStrategies(t *testing.T) {
	if len(TableICells()) != 6 || len(TableIICells()) != 2 {
		t.Fatal("cell counts wrong")
	}
	if len(Strategies()) != 3 {
		t.Fatal("strategy count wrong")
	}
	if len(TableIIISweeps()) != 5 {
		t.Fatal("sweep count wrong")
	}
}

func TestRunSweepWritesRows(t *testing.T) {
	spec := SweepSpec{
		Label: "Interval", Dataset: "Bitcoin", Model: "TGCN",
		Values: []float64{1, 2},
		Apply: func(c *CellConfig, v float64) {
			c.Core.Interval = int(v)
			c.Gen.Steps = 12
			c.Gen.Scale = 0.5
			c.Hidden = 8
		},
	}
	var buf bytes.Buffer
	if err := RunSweep(&buf, spec, 1, 40, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 values
		t.Fatalf("sweep output:\n%s", buf.String())
	}
}

func TestRunTableWritesRows(t *testing.T) {
	var buf bytes.Buffer
	// One cell at a short, small stream keeps the test fast.
	cells := [][2]string{{"UCIMessages", "ROLAND"}}
	if err := RunTable(&buf, cells, 1, 12, 0.5, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "UCIMessages") {
		t.Fatalf("table output:\n%s", buf.String())
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		2048:      "2KB",
		3 << 20:   "3.0MB",
		1<<20 + 1: "1.0MB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTailMeanLoss(t *testing.T) {
	series := []float64{1, 1, 1, 1, 2, 2, math.NaN(), 4}
	// last quarter of 8 = indices 6,7 -> mean of {4} skipping NaN
	if got := TailMeanLoss(series); got != 4 {
		t.Fatalf("TailMeanLoss = %v", got)
	}
	if TailMeanLoss([]float64{math.NaN()}) != 0 {
		t.Fatal("all-NaN tail should be 0")
	}
}

func TestRunScaling(t *testing.T) {
	pts, err := RunScaling([]float64{0.4, 0.8}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.FullSeconds <= 0 || p.KDESeconds <= 0 || p.TimeSpeedup <= 0 || p.MemReduction <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
	if pts[1].Nodes <= pts[0].Nodes {
		t.Fatal("scale did not grow the graph")
	}
	var buf bytes.Buffer
	WriteScaling(&buf, pts)
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("WriteScaling output missing header")
	}
}
