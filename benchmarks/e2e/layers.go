package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamgnn"
	"streamgnn/benchmarks/internal/kit"
	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/obs"
	"streamgnn/internal/query"
	"streamgnn/internal/sampling"
	"streamgnn/internal/shard"
	"streamgnn/internal/tensor"
)

// perLayerDefs are the metrics of single layers, reported by the traced run.
// Module names are the layers. They have no bound: they say where an
// end-to-end change came from. A layer that does not run on a workload
// reports 0 there (the cluster rows off bitcoin-cluster, the shard rows on
// unsharded engines, delta rows for models without a delta decomposition).
// ../README.md says what each should move.
var perLayerDefs = []kit.MetricDef{
	{Name: "engine.phase.expire_share", Unit: "share", Better: "lower"},
	{Name: "engine.phase.forward_share", Unit: "share", Better: "lower"},
	{Name: "engine.phase.reveal_share", Unit: "share", Better: "lower"},
	{Name: "engine.phase.predict_share", Unit: "share", Better: "lower"},
	{Name: "engine.phase.train_share", Unit: "share", Better: "lower"},
	{Name: "engine.phase.forward_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.phase.train_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.step_other_share", Unit: "share", Better: "lower"},
	{Name: "engine.step_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.fwd.full", Unit: "count", Better: "lower"},
	{Name: "engine.fwd.incremental", Unit: "count", Better: "higher"},
	{Name: "engine.fwd.delta", Unit: "count", Better: "higher"},
	{Name: "engine.fwd.skipped_row_share", Unit: "share", Better: "higher"},
	{Name: "engine.fwd.dirty_frac_mean", Unit: "share", Better: "lower"},
	{Name: "engine.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "engine.alloc_mb_per_step", Unit: "MB", Better: "lower"},
	{Name: "engine.gomaxprocs1_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.ckpt_save_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.ckpt_load_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.ckpt_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.mech.incremental.ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.mech.delta.ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.mech.shards2.ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.mech.workers2.ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.mech.depsched.ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.mech.allon.ratio", Unit: "ratio", Better: "higher"},
	{Name: "stream.advance_us_per_event", Unit: "us", Better: "lower"},
	{Name: "stream.events_per_step", Unit: "count", Better: "lower"},
	{Name: "graph.partition_us_cold", Unit: "us", Better: "lower"},
	{Name: "graph.partition_us_warm", Unit: "us", Better: "lower"},
	{Name: "graph.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "graph.expire_us_per_edge", Unit: "us", Better: "lower"},
	{Name: "graph.take_dirty_us", Unit: "us", Better: "lower"},
	{Name: "sampling.draw_ns", Unit: "ns", Better: "lower"},
	{Name: "kde.density_us", Unit: "us", Better: "lower"},
	{Name: "core.round_ms", Unit: "ms", Better: "lower"},
	{Name: "core.trained_partitions_per_step", Unit: "count", Better: "lower"},
	{Name: "core.partition_nodes_mean", Unit: "count", Better: "lower"},
	{Name: "core.sched_groups_per_step", Unit: "count", Better: "higher"},
	{Name: "core.sched_collapsed_share", Unit: "share", Better: "lower"},
	{Name: "autodiff.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "autodiff.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "autodiff.tape_nodes", Unit: "count", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.spmm_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "tensor.alloc_floats_per_step", Unit: "count", Better: "lower"},
	{Name: "dgnn.full_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "dgnn.splice_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "dgnn.delta_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "dgnn.sharded_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "query.predict_us_per_anchor", Unit: "us", Better: "lower"},
	{Name: "query.reveal_ms", Unit: "ms", Better: "lower"},
	{Name: "query.answer_ns_per_req_b1", Unit: "ns", Better: "lower"},
	{Name: "query.answer_ns_per_req_b64", Unit: "ns", Better: "lower"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.answer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.depth_max", Unit: "count", Better: "lower"},
	{Name: "serve.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.cross_edge_share", Unit: "share", Better: "lower"},
	{Name: "shard.row_skew", Unit: "ratio", Better: "lower"},
	{Name: "cluster.forward_rpc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.forward_rpc_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "cluster.publish_rpc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.answer_rpc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpcs_per_step", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_out_per_step", Unit: "B", Better: "lower"},
	{Name: "cluster.bytes_in_per_step", Unit: "B", Better: "lower"},
	{Name: "cluster.route_events_us", Unit: "us", Better: "lower"},
	{Name: "cluster.local_fallbacks", Unit: "count", Better: "lower"},
	{Name: "cluster.full_syncs", Unit: "count", Better: "lower"},
	{Name: "cluster.http_vs_loopback_ratio", Unit: "ratio", Better: "higher"},
	{Name: "obs.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	// Demoted from end-to-end (../README.md says why): the tail latency is
	// too wide between identical runs, the quality figures differ between
	// seeds by design, and fail_share is 0 on a healthy system.
	{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fresh_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "pred_mse", Unit: "mse", Better: "lower"},
	{Name: "pred_auc", Unit: "auc", Better: "higher"},
	{Name: "fail_share", Unit: "share", Better: "lower"},
	{Name: "host.factor", Unit: "ratio", Better: "lower"},
	{Name: "host.rep_cpu_s", Unit: "s", Better: "lower"},
	{Name: "host.sys_cpu_share", Unit: "share", Better: "lower"},
}

// layerValues collects the per-layer metrics of one traced run by name.
type layerValues map[string]float64

// measureTraced is the --trace 1 run: the metered reference repetition, one
// loaded repetition without tracing, one with every layer boundary recorded
// as a span, then micro-rows on that repetition's final snapshot and short
// replays that toggle one mechanism at a time.
func measureTraced(sp *spec, seed int64, steps int, outDir string) (kit.Result, error) {
	ref, rg, err := repetition(sp, seed, steps, repMode{metered: true, unpaced: true})
	if err != nil {
		return kit.Result{}, err
	}
	rg.close()
	plain, rg, err := repetition(sp, seed, steps, repMode{})
	if err != nil {
		return kit.Result{}, err
	}
	rg.close()
	rec := kit.NewRecorder()
	traced, rg, err := repetition(sp, seed, steps, repMode{rec: rec})
	if err != nil {
		return kit.Result{}, err
	}
	loaded := []*repResult{plain, traced}
	if err := validate(sp, ref, loaded); err != nil {
		rg.close()
		return kit.Result{}, err
	}
	v := layerValues{"host.factor": traced.hostFactor(), "engine.rss_peak_mb": rssPeakMB()}
	v["pred_mse"], v["pred_auc"] = quality(ref.metrics)
	v.fromRepetitions(sp, rg.in, ref, plain, traced)
	spans := rec.Spans()
	v.fromSpans(sp, rg.in, spans)
	err = v.microRows(sp, rg)
	rg.close()
	if err != nil {
		return kit.Result{}, err
	}
	if err := v.shortReplays(sp, seed, steps); err != nil {
		return kit.Result{}, err
	}
	if outDir != "" {
		if err := writeTrace(outDir, sp, seed, spans, v); err != nil {
			return kit.Result{}, err
		}
	}
	res := kit.Result{Correct: true, Metrics: map[string]kit.Value{}}
	for _, d := range perLayerDefs {
		x := v[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		res.Metrics[d.Name] = kit.Value{Value: x, Unit: d.Unit}
	}
	for _, r := range loaded {
		res.Attempted += r.steps + len(r.queries)
		res.Failed += r.failedQ
		if r.mismatch > 0 {
			res.Correct = false
		}
	}
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fromRepetitions fills what the repetitions themselves measured: engine
// telemetry deltas per step, runtime counters, and the serving, shard and
// cluster wrappers.
func (v layerValues) fromRepetitions(sp *spec, in *inputs, ref, plain, traced *repResult) {
	steps := float64(traced.steps)
	whole := sum(traced.phaseMS["step"])
	phases := 0.0
	for _, p := range streamgnn.StepPhases() {
		t := sum(traced.phaseMS[p])
		phases += t
		v["engine.phase."+p+"_share"] = ratio(t, whole)
	}
	v["engine.step_other_share"] = ratio(whole-phases, whole)
	v["engine.phase.forward_ms_p50"] = kit.Median(traced.phaseMS[streamgnn.PhaseForward])
	// A workload that trains every Interval-th step has a zero median train
	// phase; the figure of interest is the steps that trained.
	var trained []float64
	for _, t := range traced.phaseMS[streamgnn.PhaseTrain] {
		if t > 0.01 {
			trained = append(trained, t)
		}
	}
	v["engine.phase.train_ms_p50"] = kit.Median(trained)
	v["core.round_ms"] = mean(trained)
	both := append(append([]float64(nil), plain.stepMS...), traced.stepMS...)
	v["engine.step_p95_ms"] = kit.Percentile(both, kit.SupportedPercentile(len(both), 0.95))

	d := teleDelta(traced)
	v["engine.fwd.full"] = float64(d.full)
	v["engine.fwd.incremental"] = float64(d.incremental)
	v["engine.fwd.delta"] = float64(d.delta)
	v["engine.fwd.dirty_frac_mean"] = d.dirtyFracMean
	rows := 0.0
	for k := 0; k < traced.steps; k++ {
		rows += float64(in.nodesAfter[sp.warm+k])
	}
	v["engine.fwd.skipped_row_share"] = ratio(float64(d.skippedRows), rows)
	v["engine.gc_cpu_share"] = ratio(traced.mem.gcCPU, traced.cpu.Seconds())
	v["host.rep_cpu_s"] = (traced.userCPU + traced.sysCPU).Seconds()
	v["host.sys_cpu_share"] = ratio(traced.sysCPU.Seconds(), v["host.rep_cpu_s"])
	v["engine.alloc_mb_per_step"] = float64(traced.mem.allocBytes) / steps / (1 << 20)
	floats := 0.0
	for _, b := range ref.stepBytes {
		floats += float64(b) / 8
	}
	v["tensor.alloc_floats_per_step"] = ratio(floats, float64(len(ref.stepBytes)))

	s0, s1 := traced.stats0, traced.stats1
	v["core.trained_partitions_per_step"] = float64(s1.TrainedPartitions-s0.TrainedPartitions) / steps
	hits, misses := float64(s1.CacheHits-s0.CacheHits), float64(s1.CacheMisses-s0.CacheMisses)
	v["graph.cache_hit_share"] = ratio(hits, hits+misses)

	anchors := 0
	for _, q := range in.ds.Queries {
		anchors += len(q.Anchors)
	}
	v["query.predict_us_per_anchor"] = 1e3 * sum(traced.phaseMS[streamgnn.PhasePredict]) / steps / float64(max(anchors, 1))
	v["query.reveal_ms"] = mean(traced.phaseMS[streamgnn.PhaseReveal])

	v["serve.queue_wait_p50_ms"] = kit.Median(traced.queueWaitMS)
	v["serve.queue_wait_p99_ms"] = kit.Percentile(traced.queueWaitMS, kit.SupportedPercentile(len(traced.queueWaitMS), 0.99))
	v["serve.answer_ms_p50"] = kit.Median(traced.answerMS)
	v["serve.batch_size_mean"] = mean(traced.batchSizes)
	v["serve.depth_max"] = float64(max(traced.depthMax, plain.depthMax))
	late := append(append([]float64(nil), plain.genLateMS...), traced.genLateMS...)
	v["serve.gen_late_p99_ms"] = kit.Percentile(late, kit.SupportedPercentile(len(late), 0.99))

	t0, t1 := traced.tele0, traced.tele1
	if t1.Shards > 1 {
		v["shard.merge_ms"] = 1e3 * ratio(t1.ShardMerge.Sum-t0.ShardMerge.Sum, float64(t1.ShardMerge.Count-t0.ShardMerge.Count))
		v["shard.cross_edge_share"] = t1.CrossShardEdgeFraction
		var top, total float64
		for s := range t1.ShardSplicedRows {
			r := float64(t1.ShardSplicedRows[s] - t0.ShardSplicedRows[s])
			total += r
			top = math.Max(top, r)
		}
		v["shard.row_skew"] = ratio(top, total/float64(t1.Shards))
	}
	if sp.cluster {
		c := traced.cl
		v["cluster.forward_rpc_ms_p50"] = kit.Median(c.forwardMS)
		v["cluster.forward_rpc_ms_p95"] = kit.Percentile(c.forwardMS, kit.SupportedPercentile(len(c.forwardMS), 0.95))
		v["cluster.publish_rpc_ms_p50"] = kit.Median(c.publishMS)
		v["cluster.answer_rpc_ms_p50"] = kit.Median(c.replyMS)
		// Per step: the RPCs the step loop issues (forward, publish, hello),
		// not the answer fan-out, which scales with the query rate.
		v["cluster.rpcs_per_step"] = float64(c.rpcs-int64(len(c.replyMS))) / steps
		v["cluster.bytes_out_per_step"] = float64(c.bytesOut) / steps
		v["cluster.bytes_in_per_step"] = float64(c.bytesIn) / steps
		v["cluster.local_fallbacks"] = float64(c.localFallbacks)
		v["cluster.full_syncs"] = float64(c.fullSyncs)
	}

	v["trace.overhead_share"] = ratio(sum(traced.stepMS), sum(plain.stepMS)) - 1
	lat, _, _ := queryLatenciesMS([]*repResult{plain, traced})
	v["query_p50_ms"] = kit.Median(lat)
	v["query_p99_ms"] = kit.Percentile(lat, kit.SupportedPercentile(len(lat), 0.99))
	fresh := append(append([]float64(nil), plain.freshMS...), traced.freshMS...)
	v["fresh_p50_ms"] = kit.Median(fresh)
	v["fresh_p90_ms"] = kit.Percentile(fresh, kit.SupportedPercentile(len(fresh), 0.9))
	attempted := plain.steps + traced.steps + len(lat)
	failed := plain.failedQ + traced.failedQ
	v["fail_share"] = ratio(float64(failed), float64(attempted))
}

// fromSpans fills what only the spans know: the time inside the benchmark's
// wrappers around stream replay and event routing.
func (v layerValues) fromSpans(sp *spec, in *inputs, spans []kit.Span) {
	self := kit.SelfTimes(spans)
	var advance, route time.Duration
	var events, advances, routes int
	for i, s := range spans {
		if int(s.ID) < sp.warm {
			continue
		}
		switch s.Name {
		case "stream.advance":
			advance += self[i]
			advances++
			events += len(in.batches[s.ID].Events)
		case "cluster.route":
			route += s.End - s.Start
			routes++
		}
	}
	v["stream.advance_us_per_event"] = ratio(float64(advance)/1e3, float64(events))
	v["stream.events_per_step"] = ratio(float64(events), float64(advances))
	v["cluster.route_events_us"] = ratio(float64(route)/1e3, float64(routes))
}

// timeIt calls f until at least minTotal has passed (once at the least, 1000
// times at the most) and returns the mean duration of a call.
func timeIt(minTotal time.Duration, f func()) time.Duration {
	t0 := time.Now()
	n := 0
	for {
		f()
		n++
		if el := time.Since(t0); el >= minTotal || n >= 1000 {
			return el / time.Duration(n)
		}
	}
}

// microRows times each layer's public functions on the traced repetition's
// final snapshot. The engine is not stepped again, so the rows that mutate
// the model or the graph (forwards commit recurrent state, expiry drops
// every edge) run last, in an order where none disturbs a later one.
func (v layerValues) microRows(sp *spec, rg *rig) error {
	const slice = 30 * time.Millisecond
	eng, in := rg.eng, rg.in
	g, model := eng.Graph(), eng.Model()
	n, hidden, L := g.N(), model.Hidden(), model.Layers()
	rng := rand.New(rand.NewSource(7))

	// query: one request alone and 64 stacked, off the serving snapshot.
	snap := eng.QuerySnapshot()
	reqs := make([]query.Request, 64)
	for i := range reqs {
		reqs[i] = in.schedule[i%len(in.schedule)].req
	}
	v["query.answer_ns_per_req_b1"] = float64(timeIt(slice, func() { snap.Answer(reqs[:1], nil) }))
	v["query.answer_ns_per_req_b64"] = float64(timeIt(slice, func() { snap.Answer(reqs, nil) })) / 64

	// kde: the seed-window density over the whole snapshot.
	var kdeErr error
	v["kde.density_us"] = float64(timeIt(slice, func() { _, kdeErr = eng.SeedWindowDensity() })) / 1e3
	if kdeErr != nil {
		return fmt.Errorf("kde micro-row: %w", kdeErr)
	}

	// tensor: the two kernels a forward is made of, at n x hidden. The rate
	// is computed from the operation count (2*n*h*h FLOPs), not measured on
	// a counter.
	x := tensor.NewRandom(rng, n, hidden, 1)
	w := tensor.NewRandom(rng, hidden, hidden, 1)
	mm := timeIt(slice, func() { tensor.MatMul(x, w) })
	v["tensor.matmul_gflops"] = 2 * float64(n) * float64(hidden*hidden) / float64(mm)
	adj := g.NormAdj()
	if nnz := len(adj.ColIdx); nnz > 0 {
		v["tensor.spmm_ns_per_nnz"] = float64(timeIt(slice, func() { tensor.SpMM(adj, x) })) / float64(nnz)
	}

	// sampling: one draw from a chip distribution over n nodes.
	chips := sampling.NewChips(n, 5)
	v["sampling.draw_ns"] = float64(timeIt(slice, func() {
		for i := 0; i < 1000; i++ {
			chips.Sample(rng)
		}
	})) / 1000

	// obs: one histogram observation.
	hist := obs.NewHistogram(obs.DefaultLatencyBuckets())
	v["obs.hist_observe_ns"] = float64(timeIt(slice, func() {
		for i := 0; i < 1000; i++ {
			hist.Observe(float64(i) * 1e-5)
		}
	})) / 1000

	// engine: checkpoint size and save time; the load is timed last.
	var ckpt bytes.Buffer
	var ckptErr error
	v["engine.ckpt_save_ms"] = ms(timeIt(slice, func() {
		ckpt.Reset()
		ckptErr = eng.SaveCheckpoint(&ckpt)
	}))
	if ckptErr != nil {
		return fmt.Errorf("checkpoint micro-row: %w", ckptErr)
	}
	v["engine.ckpt_bytes"] = float64(ckpt.Len())

	// graph + autodiff: extract the training partitions of a spread of
	// nodes cold (cache flushed) and warm, then run one tape forward and
	// backward over each.
	centers := make([]int, 0, 32)
	for i := 0; i < 32; i++ {
		centers = append(centers, (i*n/32+n/64)%n)
	}
	if c := g.PartitionCache(); c != nil {
		c.Flush()
	}
	t0 := time.Now()
	size := 0
	for _, c := range centers {
		size += g.Partition(c, L).N()
	}
	v["graph.partition_us_cold"] = float64(time.Since(t0)) / 1e3 / float64(len(centers))
	v["core.partition_nodes_mean"] = float64(size) / float64(len(centers))
	v["graph.partition_us_warm"] = float64(timeIt(slice, func() {
		for _, c := range centers {
			g.Partition(c, L)
		}
	})) / 1e3 / float64(len(centers))
	model.BeginStep(eng.CurrentStep())
	var fwd, bwd time.Duration
	nodes := 0
	for _, c := range centers {
		view := dgnn.SubView(g.Partition(c, L))
		view.NoCommit = true
		tp := autodiff.NewTape()
		t0 := time.Now()
		loss := tp.Mean(model.Forward(tp, view))
		t1 := time.Now()
		tp.Backward(loss)
		fwd, bwd = fwd+t1.Sub(t0), bwd+time.Since(t1)
		nodes += tp.Len()
		tp.Release()
	}
	v["autodiff.fwd_ms"] = ms(fwd) / float64(len(centers))
	v["autodiff.bwd_ms"] = ms(bwd) / float64(len(centers))
	v["autodiff.tape_nodes"] = float64(nodes) / float64(len(centers))

	// dgnn: the four ways to bring the embeddings up to date after 1 % of
	// the nodes changed.
	dirty := make([]int, 0, n/100+1)
	for id := 0; id < n; id += 100 {
		dirty = append(dirty, id)
	}
	touch := func() {
		for _, id := range dirty {
			f := append([]float64(nil), g.Feature(id)...)
			f[0] += 1e-3
			g.SetFeature(id, f)
		}
	}
	forwardFull := func() *tensor.Matrix {
		return model.Forward(autodiff.NewTape(), dgnn.FullView(g)).Value
	}
	v["dgnn.full_forward_ms"] = ms(timeIt(2*slice, func() { forwardFull() }))
	store := dgnn.NewEmbStore()
	store.SetFull(forwardFull(), eng.CurrentStep())
	splice := func() {
		exact := g.Ball(dirty, L)
		region := g.Ball(exact, L)
		sub := g.Induced(region, region[0])
		rows := dgnn.LocalRows(sub.Nodes, exact)
		out := model.Forward(autodiff.NewTape(), dgnn.DirtyView(sub, rows)).Value
		store.Splice(out, rows, exact)
	}
	v["dgnn.splice_forward_ms"] = ms(timeIt(2*slice, func() { touch(); splice() }))
	if df, ok := model.(dgnn.DeltaForwarder); ok {
		var st dgnn.DeltaState
		dstore := dgnn.NewEmbStore()
		dstore.SetFull(dgnn.RunDeltaFull(g, df, &st), eng.CurrentStep())
		v["dgnn.delta_forward_ms"] = ms(timeIt(2*slice, func() {
			touch()
			dgnn.RunDelta(g, df, &st, dstore, dirty, 0, n+1)
		}))
	}
	if g.Sharding() == nil {
		sh, err := shard.New(2, shard.Hash)
		if err != nil {
			return err
		}
		g.AttachSharding(sh)
	}
	v["dgnn.sharded_forward_ms"] = ms(timeIt(2*slice, func() {
		touch()
		exact := g.Ball(dirty, L)
		parts := g.RegionParts(g.Ball(exact, L))
		dgnn.MergeShards(store, dgnn.ForwardShards(g, model, parts, exact))
	}))

	// graph: drain the dirty tracker after a 1 % change, then expire every
	// edge at once.
	g.TakeDirty()
	touch()
	t0 = time.Now()
	g.TakeDirty()
	v["graph.take_dirty_us"] = float64(time.Since(t0)) / 1e3
	if edges := g.NumEdges(); edges > 0 {
		t0 = time.Now()
		g.ExpireEdgesBefore(math.MaxInt64)
		v["graph.expire_us_per_edge"] = float64(time.Since(t0)) / 1e3 / float64(edges)
	}

	t0 = time.Now()
	if err := eng.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		return fmt.Errorf("checkpoint micro-row: %w", err)
	}
	v["engine.ckpt_load_ms"] = ms(time.Since(t0))
	return nil
}

// mechanisms are the engine options the short replays toggle one at a time
// over the workload's configuration with all of them off.
var mechanisms = []struct {
	name string
	set  func(*streamgnn.Config)
}{
	{"incremental", func(c *streamgnn.Config) { c.IncrementalForward = true }},
	{"delta", func(c *streamgnn.Config) { c.DeltaForward = true }},
	{"shards2", func(c *streamgnn.Config) { c.Shards = 2 }},
	{"workers2", func(c *streamgnn.Config) { c.Workers = 2 }},
	{"depsched", func(c *streamgnn.Config) { c.Workers = 2; c.DependencySchedule = true }},
	{"allon", func(c *streamgnn.Config) {
		c.IncrementalForward, c.DeltaForward, c.Shards = true, true, 2
		c.Workers, c.DependencySchedule = 2, true
	}},
}

// onlyMechanism is the mode of a replay whose engine has every toggled
// option off except what set (nil: nothing) turns on, with any sharded
// fan-out kept inside the process: the comparison is about Config, not about
// the deployment.
func onlyMechanism(set func(*streamgnn.Config)) repMode {
	return repMode{inProcess: true, engineCfg: func(c *streamgnn.Config) {
		c.IncrementalForward, c.DeltaForward, c.Shards = false, false, 0
		c.Workers, c.DependencySchedule = 0, false
		if set != nil {
			set(c)
		}
	}}
}

// replay runs one short closed-loop repetition without query load and
// returns it; its rate is steps over wall time.
func replay(sp *spec, seed int64, steps int, mode repMode) (*repResult, error) {
	mode.unpaced = true
	res, rg, err := repetition(sp, seed, steps, mode)
	if err != nil {
		return nil, err
	}
	rg.close()
	return res, nil
}

func rate(r *repResult) float64 { return float64(r.steps) / r.wall.Seconds() }

// shortReplays compares step throughput between configurations on a quarter
// of the repetition's steps: each mechanism against none, one scheduler
// thread against the default, and for the cluster workload HTTP against the
// in-process transport. One short replay a side is a probe, not a verdict;
// `e2e -findings` repeats the comparisons at length.
func (v layerValues) shortReplays(sp *spec, seed int64, steps int) error {
	steps = max(5, steps/4)
	base, err := replay(sp, seed, steps, onlyMechanism(nil))
	if err != nil {
		return err
	}
	for _, m := range mechanisms {
		res, err := replay(sp, seed, steps, onlyMechanism(m.set))
		if err != nil {
			return fmt.Errorf("mechanism %s: %w", m.name, err)
		}
		v["engine.mech."+m.name+".ratio"] = ratio(rate(res), rate(base))
		if m.name == "depsched" {
			s := res.stats1
			v["core.sched_groups_per_step"] = ratio(float64(s.SchedGroups), float64(s.SchedSteps))
			v["core.sched_collapsed_share"] = ratio(float64(s.SchedCollapsedSteps), float64(s.SchedSteps))
		}
	}

	own, err := replay(sp, seed, steps, repMode{})
	if err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(1)
	single, err := replay(sp, seed, steps, repMode{})
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	v["engine.gomaxprocs1_ratio"] = ratio(rate(single), rate(own))
	if sp.cluster {
		loop, err := replay(sp, seed, steps, repMode{loopback: true})
		if err != nil {
			return err
		}
		v["cluster.http_vs_loopback_ratio"] = ratio(rate(own), rate(loop))
	}
	return nil
}

// traceFile is what a traced run leaves on disk: the span summary with
// self-times, the per-layer values, and the spans themselves.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Summary  []kit.SpanSummary  `json:"summary"`
	Layers   map[string]float64 `json:"layers"`
}

// writeTrace stores the traced run under dir: trace-<workload>.json holds
// the summary by span name (count, total, self time, p50, p95) and the
// per-layer values; spans-<workload>.json holds every span.
func writeTrace(dir string, sp *spec, seed int64, spans []kit.Span, v layerValues) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf := traceFile{Workload: sp.name, Seed: seed, Summary: kit.Summarize(spans), Layers: v}
	raw, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-"+sp.name+".json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	raw, err = json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+sp.name+".json"), append(raw, '\n'), 0o644)
}
