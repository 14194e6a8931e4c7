// Benchmarks regenerating every table and figure of the paper's evaluation.
//
//	go test -bench=. -benchmem
//
// Each benchmark runs one experiment cell per iteration and reports, besides
// the usual ns/op, the paper's columns as custom metrics:
//
//	train-ms   wall-clock spent in training only (the Training Time column)
//	peak-MB    peak per-step training allocation volume (the Memory column)
//	mse        prediction error of the resolved continuous queries
//	auc / mrr  ranking quality
//
// Figure 4 benchmarks report tail-loss(partial)/tail-loss(continuous) — the
// blowup factor that motivates continuous training.
package streamgnn_test

import (
	"fmt"
	"math"
	"testing"

	"streamgnn"
	"streamgnn/internal/bench"
	"streamgnn/internal/core"
)

// benchSteps keeps a single benchmark iteration around a second.
const benchSteps = 30

func reportCell(b *testing.B, res bench.CellResult) {
	b.ReportMetric(float64(res.TrainTime.Milliseconds()), "train-ms")
	b.ReportMetric(float64(res.PeakStepBytes)/(1<<20), "peak-MB")
	b.ReportMetric(res.Error, "mse")
	if !math.IsNaN(res.AUC) {
		b.ReportMetric(res.AUC, "auc")
	}
	b.ReportMetric(res.MRR, "mrr")
}

func runCellBench(b *testing.B, dataset, model string, strat core.Strategy, mutate func(*bench.CellConfig)) {
	b.Helper()
	var last bench.CellResult
	for i := 0; i < b.N; i++ {
		cfg := bench.EqualizedCell(dataset, model, strat)
		cfg.Gen.Steps = benchSteps
		cfg.Seed = int64(i + 1)
		cfg.Gen.Seed = int64(i + 1)
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := bench.RunCell(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportCell(b, last)
}

// BenchmarkTable1 regenerates Table I: event-monitoring workloads, three
// methods per (dataset, model) cell.
func BenchmarkTable1(b *testing.B) {
	for _, cell := range bench.TableICells() {
		for _, strat := range bench.Strategies() {
			name := fmt.Sprintf("%s/%s/%s", cell[0], cell[1], strat)
			b.Run(name, func(b *testing.B) {
				runCellBench(b, cell[0], cell[1], strat, nil)
			})
		}
	}
}

// BenchmarkTable2 regenerates Table II: continuous link prediction.
func BenchmarkTable2(b *testing.B) {
	for _, cell := range bench.TableIICells() {
		for _, strat := range bench.Strategies() {
			name := fmt.Sprintf("%s/%s/%s", cell[0], cell[1], strat)
			b.Run(name, func(b *testing.B) {
				runCellBench(b, cell[0], cell[1], strat, func(cfg *bench.CellConfig) {
					// Accuracy is Table II's quality column.
				})
			})
		}
	}
}

// BenchmarkTable3 regenerates Table III: the five parameter sweeps, KDE
// method, one sub-benchmark per (parameter, value).
func BenchmarkTable3(b *testing.B) {
	for _, spec := range bench.TableIIISweeps() {
		spec := spec
		for _, v := range spec.Values {
			v := v
			name := fmt.Sprintf("%s=%g/%s/%s", spec.Label, v, spec.Dataset, spec.Model)
			b.Run(name, func(b *testing.B) {
				runCellBench(b, spec.Dataset, spec.Model, core.KDE, func(cfg *bench.CellConfig) {
					spec.Apply(cfg, v)
				})
			})
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: per-dataset continuous vs partial
// training; blowup = tail loss ratio (partial / continuous).
func BenchmarkFigure4(b *testing.B) {
	panels := []struct{ dataset, model string }{
		{"Bitcoin", "TGCN"},
		{"Reddit", "GCLSTM"},
		{"Taxi", "DCRNN"},
	}
	for _, p := range panels {
		p := p
		b.Run(p.dataset, func(b *testing.B) {
			var res bench.MotivationResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = bench.RunMotivation(p.dataset, p.model, 40, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			cont := bench.TailMeanLoss(res.Continuous)
			part := bench.TailMeanLoss(res.Partial)
			b.ReportMetric(cont, "tail-mse-cont")
			b.ReportMetric(part, "tail-mse-part")
			if cont > 0 {
				b.ReportMetric(part/cont, "blowup-x")
			}
		})
	}
}

// --- ablations of design choices called out in DESIGN.md §6 ---

// BenchmarkAblationChipFloor compares the paper's >=1-chip floor against
// allowing node starvation (MinChips = 0).
func BenchmarkAblationChipFloor(b *testing.B) {
	for _, floor := range []int{1, 0} {
		floor := floor
		b.Run(fmt.Sprintf("min-chips=%d", floor), func(b *testing.B) {
			runCellBench(b, "Bitcoin", "TGCN", core.Weighted, func(cfg *bench.CellConfig) {
				cfg.Core.MinChips = floor
			})
		})
	}
}

// BenchmarkAblationUpdateBias compares the update-set bias p_u = 0.5 against
// ignoring data recency entirely (p_u = 0).
func BenchmarkAblationUpdateBias(b *testing.B) {
	for _, pu := range []float64{0.5, 0} {
		pu := pu
		b.Run(fmt.Sprintf("p_u=%g", pu), func(b *testing.B) {
			runCellBench(b, "Taxi", "DCRNN", core.Weighted, func(cfg *bench.CellConfig) {
				cfg.Core.PUpdate = pu
			})
		})
	}
}

// BenchmarkAblationTeleport compares Algorithm 2's teleport (line 12) on and
// off; without it the seed window can trap in one region.
func BenchmarkAblationTeleport(b *testing.B) {
	for _, tele := range []bool{true, false} {
		tele := tele
		b.Run(fmt.Sprintf("teleport=%v", tele), func(b *testing.B) {
			runCellBench(b, "Taxi", "GCLSTM", core.KDE, func(cfg *bench.CellConfig) {
				cfg.Core.Teleport = tele
			})
		})
	}
}

// BenchmarkAblationBallSupervision compares ball-wide supervised targets
// (default) against exact-center-only targets.
func BenchmarkAblationBallSupervision(b *testing.B) {
	for _, ball := range []bool{true, false} {
		ball := ball
		b.Run(fmt.Sprintf("ball=%v", ball), func(b *testing.B) {
			runCellBench(b, "Reddit", "GCLSTM", core.KDE, func(cfg *bench.CellConfig) {
				cfg.Core.BallSupervision = ball
			})
		})
	}
}

// BenchmarkAblationReplay compares the fresh-reveal replay minibatch against
// pure single-partition supervised updates.
func BenchmarkAblationReplay(b *testing.B) {
	for _, replay := range []int{24, 0} {
		replay := replay
		b.Run(fmt.Sprintf("replay=%d", replay), func(b *testing.B) {
			runCellBench(b, "Reddit", "GCLSTM", core.KDE, func(cfg *bench.CellConfig) {
				cfg.Core.ReplaySize = replay
			})
		})
	}
}

// BenchmarkIncrementalForward times whole engine steps on a sparse-update
// stream with full-snapshot vs. dirty-region incremental inference — the
// per-iteration wall clock is one Step, so ns/op compares directly.
func BenchmarkIncrementalForward(b *testing.B) {
	for _, mode := range []string{"full", "incremental"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			cfg := streamgnn.DefaultConfig()
			cfg.Strategy = streamgnn.StrategyWeighted
			cfg.Interval = 1 << 30 // isolate inference: train only at step 0
			cfg.IncrementalForward = mode == "incremental"
			e, err := streamgnn.NewEngine(4, cfg)
			if err != nil {
				b.Fatal(err)
			}
			const n = 2000
			for i := 0; i < n; i++ {
				e.AddNode(0, []float64{float64(i % 3), 0, 1, 0})
			}
			for i := 0; i < n; i++ {
				e.AddUndirectedEdge(i, (i+1)%n, 0)
			}
			for s := 0; s < 3; s++ { // warm up past the step-0 training
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SetFeature(i%n, []float64{float64(i % 5), 1, 0, 0})
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if mode == "incremental" {
				tel := e.Telemetry()
				total := tel.FullForwards + tel.IncrementalForwards
				b.ReportMetric(float64(tel.IncrementalForwards)/float64(total), "inc-frac")
			}
		})
	}
}

// BenchmarkScaling measures the paper's complexity claim directly: the
// full-vs-adaptive resource gap widens as the graph grows (full training is
// O(n) per pass, a node partition O(d^L)).
func BenchmarkScaling(b *testing.B) {
	for _, scale := range []float64{0.5, 1, 2} {
		scale := scale
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			var pts []bench.ScalingPoint
			var err error
			for i := 0; i < b.N; i++ {
				pts, err = bench.RunScaling([]float64{scale}, benchSteps, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			p := pts[0]
			b.ReportMetric(p.TimeSpeedup, "speedup-x")
			b.ReportMetric(p.MemReduction, "mem-ratio-x")
			b.ReportMetric(float64(p.Nodes), "nodes")
		})
	}
}

// BenchmarkExtensionRTGCN compares this repository's relation-aware RTGCN
// extension against plain TGCN on the heterogeneous Taxi workload (two node
// types, two edge relations).
func BenchmarkExtensionRTGCN(b *testing.B) {
	for _, model := range []string{"TGCN", "RTGCN"} {
		model := model
		b.Run(model, func(b *testing.B) {
			runCellBench(b, "Taxi", model, core.KDE, nil)
		})
	}
}
