// Command cmp is the noise-aware comparer of the end-to-end ledger. It reads
// two result files written by `e2e -ledger` (or the two sets of one file),
// and for every pairing of end-to-end metric and workload prints each side's
// median and quartiles and a verdict under the bound BENCHMARK.json fixes:
// improved, unchanged, regressed, or unresolved when a side's own
// interquartile spread is wider than the bound. It exits non-zero when any
// pairing regressed or when side B failed a larger share of its operations.
//
//	cmp results/baseline.json new.json
//	cmp -sets results/baseline.json
package main

import (
	"flag"
	"fmt"
	"os"

	"streamgnn/benchmarks/internal/kit"
)

func main() {
	sets := flag.Bool("sets", false, "compare set 1 with set 2 of a single result file")
	benchPath := flag.String("bench", "", "BENCHMARK.json with the bounds (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cmp [-bench BENCHMARK.json] A.json B.json | cmp -sets A.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	regressed, err := run(*sets, *benchPath, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

func run(sets bool, benchPath string, args []string) (regressed bool, err error) {
	bench, err := readBench(benchPath)
	if err != nil {
		return false, err
	}
	var a, b *kit.File
	keepA := func(r kit.Run) bool { return r.Trace == 0 }
	keepB := keepA
	switch {
	case sets && len(args) == 1:
		if a, err = kit.ReadFile(args[0]); err != nil {
			return false, err
		}
		b = a
		keepA = func(r kit.Run) bool { return r.Trace == 0 && r.Set == 1 }
		keepB = func(r kit.Run) bool { return r.Trace == 0 && r.Set == 2 }
	case !sets && len(args) == 2:
		if a, err = kit.ReadFile(args[0]); err != nil {
			return false, err
		}
		if b, err = kit.ReadFile(args[1]); err != nil {
			return false, err
		}
	default:
		flag.Usage()
		return false, fmt.Errorf("want two result files, or -sets and one")
	}
	rows := compareAll(bench, a.Samples(keepA), b.Samples(keepB))
	fmt.Printf("%-16s %-15s %12s %24s %7s %12s %24s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "quartiles A", "iqr A", "median B", "quartiles B", "iqr B", "worse", "bound", "verdict")
	for _, c := range rows {
		fmt.Printf("%-16s %-15s %12.6g %24s %6.1f%% %12.6g %24s %6.1f%% %+7.1f%% %5.0f%%  %s\n",
			c.Workload, c.Metric, c.MedA, fmt.Sprintf("[%.5g, %.5g]", c.Q1A, c.Q3A), 100*c.SpreadA,
			c.MedB, fmt.Sprintf("[%.5g, %.5g]", c.Q1B, c.Q3B), 100*c.SpreadB, 100*c.Worse, 100*c.Bound, c.Verdict)
		if c.Verdict == kit.Regressed {
			regressed = true
		}
	}
	fa, fb := a.FailShare(keepA), b.FailShare(keepB)
	fmt.Printf("fail_share: A %.6f, B %.6f\n", fa, fb)
	if fb > fa {
		fmt.Println("side B failed a larger share of its operations")
		regressed = true
	}
	return regressed, nil
}

func readBench(path string) (*kit.Benchmark, error) {
	if path != "" {
		return kit.ReadBenchmark(path)
	}
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if _, err := os.Stat(p); err == nil {
			return kit.ReadBenchmark(p)
		}
	}
	return nil, fmt.Errorf("no BENCHMARK.json here or one level up; pass -bench")
}

// compareAll judges every (workload, end-to-end metric) pair, workloads in
// BENCHMARK.json order, metrics in its end_to_end order. A workload or
// metric missing on either side is unresolved, not skipped.
func compareAll(bench *kit.Benchmark, a, b map[string]map[string][]float64) []kit.Comparison {
	var rows []kit.Comparison
	for _, w := range bench.Workloads {
		for _, def := range bench.EndToEnd {
			c := kit.Compare(a[w.Name][def.Name], b[w.Name][def.Name], def)
			c.Workload = w.Name
			rows = append(rows, c)
		}
	}
	return rows
}
