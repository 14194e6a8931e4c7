package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"streamgnn/benchmarks/internal/kit"
	"streamgnn/internal/query"
	"streamgnn/internal/serve"
	"streamgnn/internal/stream"
)

func TestGenerateIsDeterministicAndLive(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, err := generate(sp, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.schedule, b.schedule) || !reflect.DeepEqual(a.nodesAfter, b.nodesAfter) {
			t.Errorf("%s: same seed, different inputs", sp.name)
		}
		c, err := generate(sp, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.schedule, c.schedule) {
			t.Errorf("%s: another seed, same query schedule", sp.name)
		}
		if len(a.batches) != sp.warm+5 {
			t.Errorf("%s: %d batches, want %d", sp.name, len(a.batches), sp.warm+5)
		}
		if len(a.schedule) == 0 {
			t.Fatalf("%s: empty query schedule", sp.name)
		}
		gap := time.Duration(float64(time.Second) / sp.qps)
		for j, q := range a.schedule {
			if q.due != time.Duration(j)*gap {
				t.Fatalf("%s: query %d due at %v, want %v", sp.name, j, q.due, time.Duration(j)*gap)
			}
			if q.req.Node != j+1 {
				t.Fatalf("%s: query %d carries id %d", sp.name, j, q.req.Node)
			}
			// Every id must exist in the snapshot that is live when warm-up
			// ends or, on a paced stream, two steps before the query is due.
			live := a.nodesAfter[len(a.nodesAfter)-1]
			for _, id := range []int{q.req.Anchor, q.req.Src, q.req.Dst} {
				if id < 0 || id >= live {
					t.Fatalf("%s: query %d names node %d of %d", sp.name, j, id, live)
				}
			}
		}
	}
}

func TestFoldPrefix(t *testing.T) {
	var batches []stream.Batch
	for s := 0; s < 6; s++ {
		batches = append(batches, stream.Batch{Step: s, Events: []stream.Event{
			stream.AddNode{Feat: []float64{float64(s)}},
			stream.AddEdge{U: s, V: 0, Time: int64(s), Label: stream.NoLabel()},
		}})
	}
	out := foldPrefix(batches, 3)
	if len(out) != 3 {
		t.Fatalf("%d batches, want 3", len(out))
	}
	if len(out[0].Events) != 8 {
		t.Errorf("first batch holds %d events, want the 8 of steps 0..3", len(out[0].Events))
	}
	for i, b := range out {
		if b.Step != i {
			t.Errorf("batch %d has step %d", i, b.Step)
		}
	}
	last := out[2].Events[1].(stream.AddEdge)
	if last.Time != 2 || last.U != 5 {
		t.Errorf("edge of original step 5 is %+v, want time 2 from node 5", last)
	}
	if first := out[0].Events[1].(stream.AddEdge); first.Time != -3 {
		t.Errorf("edge of original step 0 has time %d, want -3", first.Time)
	}
	if orig := batches[5].Events[1].(stream.AddEdge); orig.Time != 5 {
		t.Error("foldPrefix edited its input")
	}
	if got := foldPrefix(batches, 0); len(got) != 6 {
		t.Error("offset 0 must be the identity")
	}
}

// The generator is open-loop: it releases every query at its due time
// whether or not earlier ones have been answered, and a query's latency is
// counted from when it was due, not from when it was sent.
func TestGeneratorReleasesOnScheduleAndTimesFromDue(t *testing.T) {
	const n, gap, service = 40, 2 * time.Millisecond, 60 * time.Millisecond
	in := &inputs{}
	for j := 0; j < n; j++ {
		in.schedule = append(in.schedule, scheduled{due: time.Duration(j) * gap,
			req: query.Request{Kind: query.KindEvent, Node: j + 1}})
	}
	r := &rig{in: in}
	r.batcher = serve.NewBatcher(serve.Config{MaxBatch: 1, MaxWait: time.Millisecond},
		func(reqs []query.Request) []query.Answer {
			time.Sleep(service)
			out := make([]query.Answer, len(reqs))
			for i := range out {
				out[i].OK = reqs[i].Node%10 != 0 // every tenth answer is unusable
			}
			return out
		})
	defer r.batcher.Close()
	t0 := time.Now().Add(5 * time.Millisecond)
	g := r.startGenerator(t0)
	g.finish(true)
	elapsed := time.Since(t0)
	if g.sent != n {
		t.Fatalf("released %d of %d queries", g.sent, n)
	}
	// A closed loop of one client would need n*service; the schedule needs
	// n*gap plus one service time.
	if limit := n*gap + 3*service; elapsed > limit {
		t.Errorf("the load took %v, an open loop needs about %v", elapsed, n*gap+service)
	}
	bad := 0
	for j, q := range g.samples[:g.sent] {
		if q.latency < service {
			t.Errorf("query %d: latency %v is below the service time %v", j, q.latency, service)
		}
		if !q.ok {
			bad++
		}
	}
	if bad != n/10 {
		t.Errorf("%d unusable answers, want %d", bad, n/10)
	}
	if len(g.lateMS) != n {
		t.Errorf("%d lateness samples, want %d", len(g.lateMS), n)
	}

	// Halting stops the release at once and still waits for what is in flight.
	g = r.startGenerator(time.Now())
	time.Sleep(10 * gap)
	g.finish(false)
	if g.sent == 0 || g.sent >= n {
		t.Errorf("halted generator released %d of %d", g.sent, n)
	}
}

func TestByIndexReducesAcrossRepetitions(t *testing.T) {
	mk := func(xs ...float64) *repResult { return &repResult{stepMS: xs} }
	reps := []*repResult{mk(10, 20, 30), mk(11, 90, 31), mk(50, 21, 29)}
	series := func(r *repResult) []float64 { return r.stepMS }
	if got, want := byIndex(reps, series, kit.Median), []float64{11, 21, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("byIndex median = %v, want %v", got, want)
	}
	if got, want := byIndex(reps, series, secondSmallest), []float64{11, 21, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("byIndex second smallest = %v, want %v", got, want)
	}
	if got, want := byIndex(reps, series, minOf), []float64{10, 20, 29}; !reflect.DeepEqual(got, want) {
		t.Errorf("byIndex fastest = %v, want %v", got, want)
	}
	if got := secondSmallest([]float64{9, 3, 7, 5, 8}); got != 5 {
		t.Errorf("secondSmallest = %v, want 5", got)
	}
	slow := mk(20, 40, 60)
	slow.calibMS = []float64{2 * calibNominalMS, 2 * calibNominalMS, 9}
	if got, want := calibrated(series)(slow), []float64{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("calibrated = %v, want %v on a host at half speed", got, want)
	}
}

// BENCHMARK.json is generated from the tables in this package
// (`e2e -describe`); the committed file must not drift from them.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json two levels up:", err)
	}
	var have kit.Benchmark
	if err := json.Unmarshal(raw, &have); err != nil {
		t.Fatal(err)
	}
	if want := describeBenchmark(); !reflect.DeepEqual(have, want) {
		t.Errorf("BENCHMARK.json differs from `e2e -describe`:\nhave %+v\nwant %+v", have, want)
	}
	if len(have.EndToEnd) == 0 || have.EndToEnd[len(have.EndToEnd)-1].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, d := range have.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// The smoke runs every workload for five steps: one metered and one loaded
// repetition, all guards on. It checks that the run holds together, not its
// numbers.
func TestSmokeAllWorkloads(t *testing.T) {
	logw = testWriter{t}
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			res, err := measure(sp, 1, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 5 {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEndDefs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s: missing or wrong unit: %+v", d.Name, v)
				}
				if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v; an end-to-end metric is never 0", d.Name, v.Value)
				}
			}
			if len(res.Metrics) != len(endToEndDefs) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEndDefs))
			}
		})
	}
}

// The traced smoke runs the workload with the most layers end to end,
// micro-rows and short replays included, and checks that every declared
// per-layer metric comes out and that the layers that must have run did.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run takes several seconds")
	}
	logw = testWriter{t}
	sp, err := specByName("bitcoin-cluster")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := measureTraced(sp, 1, 10, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayerDefs) {
		t.Fatalf("correct=%v, %d of %d metrics", res.Correct, len(res.Metrics), len(perLayerDefs))
	}
	for _, name := range []string{"engine.phase.forward_share", "engine.fwd.incremental",
		"cluster.rpcs_per_step", "cluster.bytes_out_per_step", "cluster.forward_rpc_ms_p50",
		"serve.batch_size_mean", "stream.events_per_step", "dgnn.full_forward_ms",
		"tensor.matmul_gflops", "engine.ckpt_bytes", "engine.mech.incremental.ratio"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on %s", name, res.Metrics[name].Value, sp.name)
		}
	}
	for _, f := range []string{"trace-bitcoin-cluster.json", "spans-bitcoin-cluster.json"} {
		if st, err := os.Stat(dir + "/" + f); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
