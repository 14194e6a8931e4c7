package kit

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object a run prints as the last line of its standard output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Run is one benchmark run as the ledger stores it.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Set      int    `json:"set"`
	Trace    int    `json:"trace"`
	Result
}

// Meta says where and how a result file was measured.
type Meta struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Seconds   int    `json:"run_seconds"`
	FirstSeed int64  `json:"first_seed"`
	Runs      int    `json:"runs_per_set"`
	Sets      int    `json:"sets"`
}

// File is a result file: benchmarks/results/baseline.json and whatever
// `e2e -ledger` writes.
type File struct {
	Meta Meta  `json:"meta"`
	Runs []Run `json:"runs"`
}

// ReadFile loads a result file.
func ReadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// WriteFile stores a result file, indented so diffs of the committed
// baseline stay readable.
func (f *File) WriteFile(path string) error {
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Samples collects, for the runs keep accepts, the values of every metric
// per workload: samples[workload][metric] in run order.
func (f *File) Samples(keep func(Run) bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if !keep(r) {
			continue
		}
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

// FailShare is failed over attempted across the runs keep accepts.
func (f *File) FailShare(keep func(Run) bool) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if keep(r) {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// MetricDef is one metric of BENCHMARK.json; Bound is 0 for per-layer
// metrics, which have none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadDef names a workload and why it is there.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Benchmark is BENCHMARK.json.
type Benchmark struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []MetricDef   `json:"per_layer"`
}

// ReadBenchmark loads BENCHMARK.json.
func ReadBenchmark(path string) (*Benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// Verdicts of a comparison.
const (
	Improved   = "improved"
	Regressed  = "regressed"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Comparison is one (metric, workload) row of the comparer.
type Comparison struct {
	Workload, Metric string
	N1, N2           int
	Q1A, MedA, Q3A   float64
	Q1B, MedB, Q3B   float64
	SpreadA, SpreadB float64
	Worse            float64 // change of the median in the worse direction, as a share of A's median
	Bound            float64
	Verdict          string
}

// Compare judges side B against side A for one metric. The median may get
// worse by at most bound; when either side's own interquartile spread is
// wider than the bound the pair cannot be told apart and is unresolved, not
// unchanged. An improvement must exceed both spreads.
func Compare(a, b []float64, def MetricDef) Comparison {
	c := Comparison{Metric: def.Name, N1: len(a), N2: len(b), Bound: def.Bound}
	c.Q1A, c.MedA, c.Q3A = Quartiles(a)
	c.Q1B, c.MedB, c.Q3B = Quartiles(b)
	c.SpreadA, c.SpreadB = Spread(a), Spread(b)
	if c.MedA != 0 {
		c.Worse = (c.MedB - c.MedA) / math.Abs(c.MedA)
		if def.Better == "higher" {
			c.Worse = -c.Worse
		}
	}
	spread := c.SpreadA
	if c.SpreadB > spread {
		spread = c.SpreadB
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		c.Verdict = Unresolved
	case spread > def.Bound:
		c.Verdict = Unresolved
	case c.Worse > def.Bound:
		c.Verdict = Regressed
	case c.Worse < 0 && -c.Worse > spread:
		c.Verdict = Improved
	default:
		c.Verdict = Unchanged
	}
	return c
}

// SortedKeys returns the keys of m in ascending order.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
