package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamgnn"
	"streamgnn/internal/cluster"
	"streamgnn/internal/query"
	"streamgnn/internal/serve"
	"streamgnn/internal/stream"
	"streamgnn/internal/workload"
)

func testEngine(t *testing.T) *streamgnn.Engine {
	t.Helper()
	eng, err := streamgnn.NewEngine(2, streamgnn.Config{Model: "TGCN", Strategy: "full", Hidden: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := eng.Graph()
	for i := 0; i < 4; i++ {
		g.AddNode([]float64{float64(i), 1})
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4, 0, 0)
	}
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// Shutdown must drain the /query admission queue BEFORE writing the final
// checkpoint: a checkpoint captured while micro-batches are still in flight
// could be staler than answers the service already gave. The test holds a
// batch in flight, starts shutdown, and asserts the checkpoint file does not
// appear until the batch is released.
func TestShutdownDrainsBatcherBeforeCheckpoint(t *testing.T) {
	srv := &server{eng: testEngine(t), dataset: "test", started: time.Now()}
	release := make(chan struct{})
	srv.batcher = serve.NewBatcher(serve.Config{MaxBatch: 1}, func(reqs []query.Request) []query.Answer {
		<-release
		return make([]query.Answer, len(reqs))
	})

	submitted := make(chan struct{})
	go func() {
		srv.batcher.Submit([]query.Request{{Kind: query.KindEvent, Anchor: 0}})
		close(submitted)
	}()
	// Wait until the batch is admitted and its answerer is blocked.
	deadline := time.Now().Add(5 * time.Second)
	for srv.batcher.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query batch never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	path := filepath.Join(t.TempDir(), "queryd.ckpt")
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.shutdown(path) }()

	// With the batch still in flight, shutdown must be blocked in
	// batcher.Close() and the checkpoint must not exist yet. (The buggy
	// order — checkpoint first, Close after — writes the file here.)
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a query batch was still in flight", err)
	default:
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("checkpoint written before the admission queue drained")
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatal(err)
	}
	<-submitted
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint missing after shutdown: %v", err)
	}
	if _, err := streamgnn.PeekCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("shutdown checkpoint unreadable: %v", err)
	}
}

// shutdown with no checkpoint path still drains the queue and is idempotent
// with the deferred safety-net Close.
func TestShutdownWithoutCheckpoint(t *testing.T) {
	srv := &server{eng: testEngine(t), dataset: "test", started: time.Now()}
	srv.batcher = serve.NewBatcher(serve.Config{MaxBatch: 1}, srv.answerBatch)
	if err := srv.shutdown(""); err != nil {
		t.Fatal(err)
	}
	if got := srv.batcher.Submit([]query.Request{{Kind: query.KindEvent, Anchor: 0}}); got != nil {
		t.Fatal("batcher accepted a query after shutdown")
	}
	srv.batcher.Close() // the deferred safety net must not panic
}

// A negative -interval reaches NewEngine, which rejects it before the service
// starts; the engine used to train every step while reporting -2.
func TestRunRejectsNegativeInterval(t *testing.T) {
	err := run(options{dataset: "Bitcoin", model: "TGCN", strategy: "kde", steps: 4, seed: 1, interval: -2})
	if err == nil || !strings.Contains(err.Error(), "Interval") {
		t.Fatalf("run with -interval -2: %v", err)
	}
}

// The -peers list parser drives shard addressing; whitespace and empty
// segments must not produce phantom replicas.
func TestPeerList(t *testing.T) {
	o := options{peers: " http://a:1 , http://b:2,,http://c:3 "}
	got := o.peerList()
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if len(got) != len(want) {
		t.Fatalf("peerList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peerList[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if (options{}).peerList() != nil {
		t.Fatal("empty -peers should parse to no replicas")
	}
}

// replayCoordinated replays a 12-step Bitcoin stream through a coordinator
// over two in-process loopback replicas, assembled the way run() assembles
// it: routed source, afterStep publish hook. It needs no sockets.
func replayCoordinated(t *testing.T) (*server, *cluster.Coordinator, []*cluster.Replica, *workload.Dataset) {
	t.Helper()
	d, err := workload.ByName("Bitcoin", workload.GenConfig{Seed: 1, Steps: 12})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamgnn.NewEngine(d.FeatDim, streamgnn.Config{
		Model: "TGCN", Strategy: "full", Hidden: 4, Seed: 1,
		WindowSteps: d.WindowSteps, IncrementalForward: true, Shards: 2,
		// Space training out so steps between training rounds take the
		// sharded incremental-forward path — that's what fans out.
		Interval: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := []*cluster.Replica{cluster.NewReplica(), cluster.NewReplica()}
	coord, err := cluster.NewCoordinator(eng, []cluster.Transport{
		&cluster.Loopback{R: reps[0]}, &cluster.Loopback{R: reps[1]},
	})
	if err != nil {
		t.Fatal(err)
	}

	routed := &routingSource{src: d.Source(), coord: coord}
	rep := stream.NewReplayer(eng.Graph(), routed, 0)
	srv := &server{eng: eng, dataset: d.Name, started: time.Now()}
	srv.afterStep = func() {
		if snap := eng.QuerySnapshot(); snap != nil {
			coord.PublishStep(snap.Step())
		}
	}
	interrupted, err := srv.replay(context.Background(), rep, 0)
	if err != nil || interrupted {
		t.Fatalf("replay: interrupted=%v err=%v", interrupted, err)
	}
	if routed.err != nil {
		t.Fatalf("event routing failed: %v", routed.err)
	}
	return srv, coord, reps, d
}

// End-to-end check of the coordinator wiring queryd assembles: the
// routingSource replicates every stream batch, afterStep publishes each
// completed step, and both coordinator and replica metrics render.
func TestCoordinatorWiringRoutesAndPublishes(t *testing.T) {
	_, coord, reps, d := replayCoordinated(t)
	for i, r := range reps {
		st := r.Stats()
		if st.Publishes == 0 || st.Forwards == 0 {
			t.Fatalf("replica %d never exercised: %+v", i, st)
		}
		if got := r.LastApplied(); got != d.Steps-1 {
			t.Fatalf("replica %d graph mirror at step %d, want %d", i, got, d.Steps-1)
		}
	}

	var b bytes.Buffer
	coord.WriteMetrics(&b)
	if !strings.Contains(b.String(), "streamgnn_cluster_replicas") {
		t.Fatal("coordinator metrics missing streamgnn_cluster_ family")
	}
	b.Reset()
	writeReplicaMetrics(&b, reps[0])
	if !strings.Contains(b.String(), "streamgnn_cluster_replica_last_applied_step") {
		t.Fatal("replica metrics missing streamgnn_cluster_replica_ family")
	}
	// The tensor pool's counters (the coordinator's /metrics writes them
	// through the same helper).
	for _, name := range []string{"streamgnn_tensor_pool_gets_total", "streamgnn_tensor_pool_hits_total", "streamgnn_tensor_fresh_bytes_total"} {
		if !strings.Contains(b.String(), name+" ") {
			t.Fatalf("replica metrics missing %s", name)
		}
	}
}

// Engine and replica pages name the demand-row counters the same way, one
// sample per depth.
func TestDemandRowsMetric(t *testing.T) {
	var b bytes.Buffer
	writeDemandRows(&b, [3]int64{5, 9, 14})
	for _, line := range []string{
		`streamgnn_forward_demand_rows_total{depth="0"} 5`,
		`streamgnn_forward_demand_rows_total{depth="1"} 9`,
		`streamgnn_forward_demand_rows_total{depth="2"} 14`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, b.String())
		}
	}
	b.Reset()
	writeReplicaMetrics(&b, cluster.NewReplica())
	if !strings.Contains(b.String(), `streamgnn_forward_demand_rows_total{depth="2"} 0`) {
		t.Fatalf("replica page has no demand rows:\n%s", b.String())
	}
}
