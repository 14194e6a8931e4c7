package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"streamgnn/benchmarks/internal/kit"
)

func writeRuns(t *testing.T, path string, sets map[int][]float64, failed int) {
	t.Helper()
	var f kit.File
	for set, values := range sets {
		for i, v := range values {
			f.Runs = append(f.Runs, kit.Run{Workload: "w", Seed: int64(i + 1), Set: set, Result: kit.Result{
				Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]kit.Value{"lat_ms": {Value: v, Unit: "ms"}},
			}})
		}
	}
	// A traced run must not enter the comparison.
	f.Runs = append(f.Runs, kit.Run{Workload: "w", Set: 1, Trace: 1, Result: kit.Result{
		Metrics: map[string]kit.Value{"lat_ms": {Value: 1e9, Unit: "ms"}}}})
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerdictsAndExitStatus(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	b := kit.Benchmark{Workloads: []kit.WorkloadDef{{Name: "w"}},
		EndToEnd: []kit.MetricDef{{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bench, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	base := []float64{100, 101, 99, 100, 102, 98}
	slow := []float64{120, 121, 119, 120, 122, 118}
	a, same, worse, failing := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"),
		filepath.Join(dir, "worse.json"), filepath.Join(dir, "failing.json")
	writeRuns(t, a, map[int][]float64{1: base, 2: base}, 0)
	writeRuns(t, same, map[int][]float64{1: base}, 0)
	writeRuns(t, worse, map[int][]float64{1: slow}, 0)
	writeRuns(t, failing, map[int][]float64{1: base}, 3)

	cases := []struct {
		name      string
		sets      bool
		args      []string
		regressed bool
	}{
		{"two sets of one file agree", true, []string{a}, false},
		{"same numbers", false, []string{a, same}, false},
		{"20 % slower under a 10 % bound", false, []string{a, worse}, true},
		{"same numbers, more failures", false, []string{a, failing}, true},
	}
	for _, c := range cases {
		regressed, err := run(c.sets, bench, c.args)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v", c.name, regressed, c.regressed)
		}
	}
	if _, err := run(false, bench, []string{a}); err == nil {
		t.Error("one file without -sets must be a usage error")
	}
}
