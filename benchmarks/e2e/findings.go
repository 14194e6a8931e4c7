package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"streamgnn"
	"streamgnn/benchmarks/internal/kit"
)

// churnSpec is the hostile stream of the mechanism comparison: rotating
// insert and expiry storms that keep dirtying the graph. It is not one of the
// five workloads; only -findings runs it.
var churnSpec = spec{
	name: "churn-hostile", dataset: "Churn", scale: 20,
	cfg:  streamgnn.Config{Model: "TGCN", Strategy: streamgnn.StrategyKDE},
	warm: 5, closedSteps: 400, qps: 200, eventShare: 1,
}

// variant is one side of a comparison: a way to run a workload's stream.
type variant struct {
	name  string
	mode  repMode
	procs int // GOMAXPROCS for the replay; 0 leaves it alone
}

// finding is one variant's outcome: its calibrated step rate as the median
// over the rounds, that rate over the first variant's, and what the forward
// path and the scheduler did in the last round.
type finding struct {
	Workload    string  `json:"workload"`
	Variant     string  `json:"variant"`
	StepsPerS   float64 `json:"steps_per_s"`
	VsFirst     float64 `json:"ratio_to_first"`
	Full        int64   `json:"forwards_full"`
	Incremental int64   `json:"forwards_incremental"`
	Delta       int64   `json:"forwards_delta"`
	SchedGroups float64 `json:"sched_groups_per_round"`
	CacheHit    float64 `json:"partition_cache_hit_share"`
	RPCs        int64   `json:"rpcs"`
}

// calibratedRate is steps over the time they took in nominal-machine time.
func calibratedRate(r *repResult) float64 {
	return float64(r.steps) / (sum(r.freshMS) / 1e3 / r.hostFactor())
}

// compare replays one workload's stream under every variant, closed-loop and
// without query load, for several rounds; the variants take turns within a
// round and the round's first variant rotates, so drift of the host hits all
// alike.
func compare(sp *spec, seed int64, steps, rounds int, variants []variant) ([]finding, error) {
	rates := make([][]float64, len(variants))
	last := make([]*repResult, len(variants))
	for round := 0; round < rounds; round++ {
		for k := range variants {
			i := (k + round) % len(variants)
			v := variants[i]
			procs := 0
			if v.procs > 0 {
				procs = runtime.GOMAXPROCS(v.procs)
			}
			res, err := replay(sp, seed, steps, v.mode)
			if procs > 0 {
				runtime.GOMAXPROCS(procs)
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", sp.name, v.name, err)
			}
			rates[i] = append(rates[i], calibratedRate(res))
			last[i] = res
		}
	}
	out := make([]finding, len(variants))
	for i, v := range variants {
		d, st := teleDelta(last[i]), last[i].stats1
		out[i] = finding{Workload: sp.name, Variant: v.name, StepsPerS: kit.Median(rates[i]),
			Full: d.full, Incremental: d.incremental, Delta: d.delta,
			SchedGroups: ratio(float64(st.SchedGroups), float64(st.SchedSteps)),
			CacheHit:    st.CacheHitRate, RPCs: last[i].cl.rpcs}
		out[i].VsFirst = ratio(out[i].StepsPerS, out[0].StepsPerS)
	}
	return out, nil
}

// runFindings measures what the README's FINDINGS section states: (a) what
// the incremental mechanisms buy when every step trains, (b) what the
// deployments of one sharded stream cost on two cores, (c) what threads buy.
// It changes no code and claims no gain; it writes the numbers down.
func runFindings(seed int64, seconds float64, jsonPath string) error {
	const rounds = 3
	var all []finding
	show := func(title string, rows []finding) {
		fmt.Printf("\n%s\n", title)
		fmt.Printf("  %-16s %-12s %10s %8s %6s %6s %6s %8s %8s %6s\n", "workload", "variant", "steps/s", "ratio", "full", "inc", "delta", "groups", "cachehit", "rpcs")
		for _, f := range rows {
			fmt.Printf("  %-16s %-12s %10.2f %8.3f %6d %6d %6d %8.2f %8.3f %6d\n", f.Workload, f.Variant,
				f.StepsPerS, f.VsFirst, f.Full, f.Incremental, f.Delta, f.SchedGroups, f.CacheHit, f.RPCs)
		}
		all = append(all, rows...)
	}

	mech := []variant{{name: "none", mode: onlyMechanism(nil)}}
	for _, m := range mechanisms {
		mech = append(mech, variant{name: m.name, mode: onlyMechanism(m.set)})
	}
	taxi, err := specByName("taxi-infer")
	if err != nil {
		return err
	}
	reddit, err := specByName("reddit-train")
	if err != nil {
		return err
	}
	for _, sp := range []*spec{taxi, reddit, &churnSpec} {
		rows, err := compare(sp, seed, 2*sp.measuredSteps(seconds), rounds, mech)
		if err != nil {
			return err
		}
		show("(a) mechanisms over none, Interval=1 (every step trains and invalidates the caches)", rows)
	}

	cl, err := specByName("bitcoin-cluster")
	if err != nil {
		return err
	}
	deploy := []variant{
		{name: "unsharded", mode: repMode{inProcess: true, engineCfg: func(c *streamgnn.Config) { c.Shards = 0 }}},
		{name: "shards2", mode: repMode{inProcess: true}},
		{name: "loopback", mode: repMode{loopback: true}},
		{name: "http", mode: repMode{}},
	}
	rows, err := compare(cl, seed, 3*cl.measuredSteps(seconds), rounds, deploy)
	if err != nil {
		return err
	}
	show("(b) deployments of the bitcoin stream over unsharded (Interval=5, incremental, threshold 1)", rows)

	// In-process throughout: the question is the engine's threads, not the
	// transport's.
	threads := []variant{
		{name: "default", mode: repMode{inProcess: true}},
		{name: "gomaxprocs1", mode: repMode{inProcess: true}, procs: 1},
		{name: "workers2", mode: repMode{inProcess: true, engineCfg: func(c *streamgnn.Config) { c.Workers = 2 }}},
	}
	for i := range specs {
		sp := &specs[i]
		rows, err := compare(sp, seed, 2*sp.measuredSteps(seconds), rounds, threads)
		if err != nil {
			return err
		}
		show("(c) threads over the default (GOMAXPROCS="+fmt.Sprint(runtime.GOMAXPROCS(0))+", Workers=1)", rows)
	}

	if jsonPath != "" {
		raw, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(jsonPath, append(raw, '\n'), 0o644)
	}
	return nil
}
