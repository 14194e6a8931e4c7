package cluster

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"streamgnn/internal/stream"
)

func baseReplicaConfig() ReplicaConfig {
	return ReplicaConfig{Shard: 1, Shards: 2, Layout: "hash", Model: "TGCN",
		Hidden: 8, FeatDim: 3, WindowSteps: 0}
}

// configuredReplica returns a replica its first Hello configured for cfg.
func configuredReplica(t *testing.T, cfg ReplicaConfig) *Replica {
	t.Helper()
	r := NewReplica()
	if _, err := r.HandleHello(HelloRequest{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	return r
}

// A coordinator whose partition, model geometry or window disagrees with
// what a replica restored must be rejected at Hello with an error naming
// both sides — silently adopting either configuration would break the
// bit-equality contract mid-stream.
func TestHelloRejectsConfigMismatch(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ReplicaConfig)
	}{
		{"shard index", func(c *ReplicaConfig) { c.Shard = 0 }},
		{"shard count", func(c *ReplicaConfig) { c.Shards = 4 }},
		{"layout", func(c *ReplicaConfig) { c.Layout = "range" }},
		{"model", func(c *ReplicaConfig) { c.Model = "WinGNN" }},
		{"hidden", func(c *ReplicaConfig) { c.Hidden = 16 }},
		{"feature dim", func(c *ReplicaConfig) { c.FeatDim = 5 }},
		{"window", func(c *ReplicaConfig) { c.WindowSteps = 64 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := configuredReplica(t, baseReplicaConfig())
			cfg := baseReplicaConfig()
			tc.mutate(&cfg)
			if _, err := r.HandleHello(HelloRequest{Config: cfg}); err == nil {
				t.Fatal("mismatched Hello accepted")
			} else if !strings.Contains(err.Error(), "coordinator wants") {
				t.Fatalf("mismatch error does not name both sides: %v", err)
			}
			// The matching config stays accepted.
			if _, err := r.HandleHello(HelloRequest{Config: baseReplicaConfig()}); err != nil {
				t.Fatalf("matching Hello rejected: %v", err)
			}
		})
	}
}

func TestHelloRespectsExpectShard(t *testing.T) {
	r := NewReplica()
	r.SetExpectShard(0)
	if _, err := r.HandleHello(HelloRequest{Config: baseReplicaConfig()}); err == nil {
		t.Fatal("replica pinned to shard 0 accepted a shard-1 Hello")
	}
	cfg := baseReplicaConfig()
	cfg.Shard = 0
	if _, err := r.HandleHello(HelloRequest{Config: cfg}); err != nil {
		t.Fatal(err)
	}
}

// A WAL replays only into a replica of the identity its header names: one
// configured for another shard or model, or pinned to another shard, rejects
// it; a fresh replica adopts it.
func TestReplayWALRejectsMismatch(t *testing.T) {
	var wal bytes.Buffer
	r := NewReplica()
	r.SetWAL(NewWAL(&wal))
	if _, err := r.HandleHello(HelloRequest{Config: baseReplicaConfig()}); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*ReplicaConfig){
		func(c *ReplicaConfig) { c.Shard = 0 },
		func(c *ReplicaConfig) { c.Model = "WinGNN" },
	} {
		other := baseReplicaConfig()
		mutate(&other)
		if err := configuredReplica(t, other).ReplayWAL(bytes.NewReader(wal.Bytes())); err == nil {
			t.Fatalf("WAL for %+v replayed into a replica configured as %+v", baseReplicaConfig(), other)
		}
	}
	pinned := NewReplica()
	pinned.SetExpectShard(0)
	if err := pinned.ReplayWAL(bytes.NewReader(wal.Bytes())); err == nil {
		t.Fatal("WAL for shard 1 replayed into a replica pinned to shard 0")
	}
	fresh := NewReplica()
	if err := fresh.ReplayWAL(bytes.NewReader(wal.Bytes())); err != nil {
		t.Fatalf("fresh replica rejected its own WAL: %v", err)
	}
	if fresh.Config() != baseReplicaConfig() {
		t.Fatalf("replayed config %+v", fresh.Config())
	}
}

// A batch applies whole or not at all: one that names a node the mirror does
// not hold — counting the nodes the batch itself adds — is refused before any
// of its events lands, and the mirror and its step cursor stay where they were.
func TestApplyBatchesRejectsMissingHistory(t *testing.T) {
	r := configuredReplica(t, baseReplicaConfig())
	node := stream.AddNode{Feat: []float64{1, 0, 0}}
	edge := func(u, v int) stream.Event { return stream.AddEdge{U: u, V: v, Label: math.NaN()} }
	bad := StepEvents{Step: 3, Events: []stream.Event{node, node, edge(0, 1), edge(1, 2)}}
	if err := r.applyBatches([]StepEvents{bad}); err == nil {
		t.Fatal("a batch naming node 2 of a 2-node mirror applied")
	}
	if n := r.g.N(); n != 0 || r.LastApplied() != -1 {
		t.Fatalf("refused batch left %d nodes, cursor at step %d", n, r.LastApplied())
	}
	good := StepEvents{Step: 3, Events: []stream.Event{node, node, edge(0, 1)}}
	if err := r.applyBatches([]StepEvents{good}); err != nil {
		t.Fatal(err)
	}
	if r.g.N() != 2 || r.g.NumEdges() != 1 || r.LastApplied() != 3 {
		t.Fatalf("mirror after a good batch: %d nodes, %d edges, step %d", r.g.N(), r.g.NumEdges(), r.LastApplied())
	}
}

// The WAL carries every float bit-exactly — an edge's NaN no-label sentinel
// with its payload, ±Inf and −0 features — so a replica replayed from it
// holds the same mirror, bit for bit, as the one that wrote it.
func TestWALRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	var wal bytes.Buffer
	r := NewReplica()
	r.SetWAL(NewWAL(&wal))
	if _, err := r.HandleHello(HelloRequest{Config: baseReplicaConfig()}); err != nil {
		t.Fatal(err)
	}
	batches := []StepEvents{
		{Step: 0, Events: []stream.Event{
			stream.AddNode{Type: 2, Feat: []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}},
			stream.AddNode{Feat: []float64{1}},
			stream.AddEdge{U: 0, V: 1, Type: 1, Time: -7, Label: nan},
		}},
		{Step: 2, Events: []stream.Event{
			stream.SetFeature{V: 1, Feat: []float64{math.Inf(-1), 0, math.Inf(1)}},
			stream.SetLabel{V: 0, Label: math.SmallestNonzeroFloat64},
		}},
	}
	if err := r.applyBatches(batches); err != nil {
		t.Fatal(err)
	}
	fresh := NewReplica()
	if err := fresh.ReplayWAL(bytes.NewReader(wal.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fresh.Config() != r.Config() || fresh.LastApplied() != 2 {
		t.Fatalf("replayed %+v at step %d", fresh.Config(), fresh.LastApplied())
	}
	a, b := r.g, fresh.g
	for v := 0; v < a.N(); v++ {
		la, _ := a.Label(v)
		lb, _ := b.Label(v)
		same := math.Float64bits(la) == math.Float64bits(lb) &&
			bitEqual(reflect.ValueOf(a.Feature(v)), reflect.ValueOf(b.Feature(v))) &&
			bitEqual(reflect.ValueOf(a.OutEdges(v)), reflect.ValueOf(b.OutEdges(v)))
		if !same {
			t.Fatalf("node %d differs after replay: %v %v vs %v %v", v, a.Feature(v), a.OutEdges(v), b.Feature(v), b.OutEdges(v))
		}
	}
	if b.N() != 2 || math.Float64bits(b.OutEdges(0)[0].Label) != math.Float64bits(nan) {
		t.Fatalf("replayed mirror: %d nodes, edge label bits %x", b.N(), math.Float64bits(b.OutEdges(0)[0].Label))
	}
}
