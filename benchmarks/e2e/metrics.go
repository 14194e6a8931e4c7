package main

import (
	"fmt"
	"math"
	"sort"

	"streamgnn"
	"streamgnn/benchmarks/internal/kit"
)

// endToEndDefs are the metrics a user of the system sees, each with the
// share of the parent's median by which it may get worse. The bounds were
// set from two measured sets on the 2-vCPU development VM: at least three
// times the widest spread seen for the metric on any workload (see
// ../README.md). BENCHMARK.json is generated from these tables (-describe).
var endToEndDefs = []kit.MetricDef{
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "step_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_step_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "query_ok_share", Unit: "share", Better: "higher", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// fwdDelta is the forward-mode activity of one repetition's measured steps.
type fwdDelta struct {
	full, incremental, delta int64
	skippedRows              int64
	dirtyFracMean            float64
}

func teleDelta(r *repResult) fwdDelta {
	a, b := r.tele0, r.tele1
	d := fwdDelta{
		full:        b.FullForwards - a.FullForwards,
		incremental: b.IncrementalForwards - a.IncrementalForwards,
		delta:       b.DeltaForwards - a.DeltaForwards,
		skippedRows: b.SkippedRows - a.SkippedRows,
	}
	if n := b.DirtyFraction.Count - a.DirtyFraction.Count; n > 0 {
		d.dirtyFracMean = (b.DirtyFraction.Sum - a.DirtyFraction.Sum) / float64(n)
	}
	return d
}

// quality maps the engine's quality summary onto pred_mse and pred_auc. A
// link-prediction workload resolves no event outcome; there pred_mse is the
// squared error of the thresholded link decisions, which is 1 - accuracy.
func quality(m streamgnn.Metrics) (mse, auc float64) {
	if m.LinkN > 0 && m.EventN == 0 {
		return 1 - m.Accuracy, m.LinkAUC
	}
	if math.IsNaN(m.EventAUC) {
		// One class only: no ranking to score. 0.5 is what any scorer gets.
		return m.MSE, 0.5
	}
	return m.MSE, m.EventAUC
}

// perRep takes one figure from every repetition.
func perRep(reps []*repResult, figure func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = figure(r)
	}
	return out
}

// queryLatenciesMS pools the query latencies of the repetitions, timed from
// each query's due time. A failed or refused query misses every limit, so it
// enters at the timeout.
func queryLatenciesMS(reps []*repResult) (lat []float64, okInTime, sent int) {
	for _, r := range reps {
		for _, q := range r.queries {
			sent++
			l := q.latency
			if !q.ok || l > queryTimeout {
				l = queryTimeout
			} else if l <= okWithin {
				okInTime++
			}
			lat = append(lat, ms(l))
		}
	}
	return lat, okInTime, sent
}

// byIndex reduces one per-step series over the repetitions at every step
// index with reduce. Step k is the same work in every repetition, so what
// differs between them at k is the host: seconds-long bursts of contention
// (identical repetitions took 0.74 to 1.96 s on the development VM).
func byIndex(reps []*repResult, series func(*repResult) []float64, reduce func([]float64) float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := make([]float64, len(series(reps[0])))
	at := make([]float64, 0, len(reps))
	for k := range out {
		at = at[:0]
		for _, r := range reps {
			if s := series(r); k < len(s) {
				at = append(at, s[k])
			}
		}
		out[k] = reduce(at)
	}
	return out
}

// secondSmallest and minOf are the reductions of the timed series: of five
// repetitions at one step index, the second fastest or the fastest.
// Contention only ever adds time, so the low end is where the undisturbed
// cost sits. A closed loop takes the second fastest: its steps run back to
// back on a warm machine, and the very fastest is where a host factor read
// too high lands. A paced stream takes the fastest: each of its steps starts
// on a machine that sat idle for most of a period (a parked vCPU, caches the
// neighbours have emptied), and what the host adds there is larger. Measured
// as the spread of the median step time over two quarter hours of eight runs
// each, one quiet and one noisy, over the five workloads:
//
//	                 quiet                      noisy
//	median           11  8 15 16 16 %           21 20 14 27 32 %
//	second fastest   16 11 11 12 10 %           14  6  4 19 25 %
//	fastest          21 15 15  9  8 %           17  7  8  7 10 %
//
// (taxi-infer, reddit-train, so-link closed; bitcoin-serve, bitcoin-cluster
// paced.) The rule picks, in both quarter hours, the better of the two low
// reductions for each kind of drive.
func secondSmallest(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) > 1 {
		return s[1]
	}
	return s[0]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// calibrated returns a series of the repetition in nominal-machine time.
func calibrated(series func(*repResult) []float64) func(*repResult) []float64 {
	return func(r *repResult) []float64 {
		f := r.hostFactor()
		out := make([]float64, len(series(r)))
		for i, x := range series(r) {
			out[i] = x / f
		}
		return out
	}
}

// endToEnd reduces the repetitions of an untraced run to the end-to-end
// metrics. CPU-bound per-step timings are calibrated by their repetition's
// host factor, reduced by step index to the second fastest repetition, then
// summed or ranked over the indices.
//
// A paced workload's cpu_s is read from its replays: the same steps back to
// back, without the query load, reduced like a closed loop's. The process
// CPU of the paced repetitions themselves measures the host. Such a process
// sleeps and is woken some 2000 times a second (query timer, admission
// queue, step clock) on two vCPUs the host parks when idle, and for
// identical work a 3-second repetition cost 0.09 s of kernel and 0.47 s of
// user time in one quarter hour, 0.73 s and 0.37 s in the next; ten runs
// spread 12 to 30 %, and user time alone still 14 to 21 %. The traced run
// reports that figure as host.rep_cpu_s, with host.sys_cpu_share.
func endToEnd(sp *spec, ref *repResult, reps, replays []*repResult) kit.Result {
	all := append(append([]*repResult{ref}, reps...), replays...)
	_, okInTime, sent := queryLatenciesMS(reps)
	low := secondSmallest
	if sp.open() {
		low = minOf
	}
	step := byIndex(reps, calibrated(func(r *repResult) []float64 { return r.stepMS }), low)
	fresh := byIndex(reps, calibrated(func(r *repResult) []float64 { return r.freshMS }), low)
	cpuOf := reps
	if sp.open() {
		cpuOf = replays
	}
	cpu := byIndex(cpuOf, calibrated(func(r *repResult) []float64 { return r.cpuMS }), secondSmallest)
	// A closed loop starts the next step when the last one's snapshot is
	// out, so its rate is steps over the sum of those times; a paced
	// stream's rate is what it sustained against the clock, as measured.
	rate := float64(len(fresh)) / (sum(fresh) / 1e3)
	if sp.open() {
		rate = kit.Median(perRep(reps, func(r *repResult) float64 { return float64(r.steps) / r.wall.Seconds() }))
	}
	peak := int64(0)
	for _, b := range ref.stepBytes {
		if b > peak {
			peak = b
		}
	}
	values := map[string]float64{
		"steps_per_s":    rate,
		"step_p50_ms":    kit.Median(step),
		"cpu_s":          sum(cpu) / 1e3,
		"peak_step_mb":   float64(peak) / (1 << 20),
		"query_ok_share": float64(okInTime) / float64(max(sent, 1)),
		"setup_s":        kit.Median(perRep(all, func(r *repResult) float64 { return r.setup.Seconds() / r.hostFactor() })),
	}
	res := kit.Result{Correct: true, Metrics: map[string]kit.Value{}}
	for _, d := range endToEndDefs {
		res.Metrics[d.Name] = kit.Value{Value: values[d.Name], Unit: d.Unit}
	}
	for _, r := range reps {
		res.Attempted += r.steps + len(r.queries)
		res.Failed += r.failedQ
		if r.mismatch > 0 {
			res.Correct = false
		}
	}
	fmt.Fprintf(logw, "%s: host factor per repetition %.3g (1 = nominal), user / kernel CPU per repetition %.3g / %.3g s, uncalibrated step p50 %.4g ms, wall per repetition %.4g s\n",
		sp.name, perRep(all, (*repResult).hostFactor),
		perRep(all, func(r *repResult) float64 { return r.userCPU.Seconds() }),
		perRep(all, func(r *repResult) float64 { return r.sysCPU.Seconds() }),
		kit.Median(byIndex(reps, func(r *repResult) []float64 { return r.stepMS }, kit.Median)),
		kit.Median(perRep(reps, func(r *repResult) float64 { return r.wall.Seconds() })))
	return res
}

// describeBenchmark renders BENCHMARK.json from the tables in this package.
func describeBenchmark() kit.Benchmark {
	b := kit.Benchmark{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	for i := range specs {
		b.Workloads = append(b.Workloads, kit.WorkloadDef{Name: specs[i].name, Why: specs[i].why})
	}
	return b
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 15
