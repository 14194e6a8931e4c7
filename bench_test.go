package streamgnn_test

import (
	"testing"

	"streamgnn"
)

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
