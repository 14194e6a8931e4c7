package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"streamgnn/internal/query"
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
	node := WireEvent{Op: opNode, Feat: Float64s{1, 0, 0}}
	edge := func(u, v int) WireEvent { return WireEvent{Op: opEdge, U: u, V: v, Label: Float64s{math.NaN()}} }
	bad := StepEvents{Step: 3, Events: []WireEvent{node, node, edge(0, 1), edge(1, 2)}}
	if err := r.applyBatches([]StepEvents{bad}); err == nil {
		t.Fatal("a batch naming node 2 of a 2-node mirror applied")
	}
	if n := r.g.N(); n != 0 || r.LastApplied() != -1 {
		t.Fatalf("refused batch left %d nodes, cursor at step %d", n, r.LastApplied())
	}
	good := StepEvents{Step: 3, Events: []WireEvent{node, node, edge(0, 1)}}
	if err := r.applyBatches([]StepEvents{good}); err != nil {
		t.Fatal(err)
	}
	if r.g.N() != 2 || r.g.NumEdges() != 1 || r.LastApplied() != 3 {
		t.Fatalf("mirror after a good batch: %d nodes, %d edges, step %d", r.g.N(), r.g.NumEdges(), r.LastApplied())
	}
}

// Float64s must round-trip every representable value through JSON — NaN,
// infinities, signed zero and denormals included — because the HTTP
// transport's bit-equality rests on it.
func TestFloat64sJSONRoundTrip(t *testing.T) {
	vals := Float64s{0, math.Copysign(0, -1), 1.0 / 3.0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-310}
	data, err := json.Marshal(vals)
	if err != nil {
		t.Fatal(err)
	}
	var got Float64s
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: %v -> %v (bits %x -> %x)", i, vals[i], got[i],
				math.Float64bits(vals[i]), math.Float64bits(got[i]))
		}
	}
	var bad Float64s
	if err := bad.UnmarshalJSON([]byte(`"AAAA"`)); err == nil {
		t.Fatal("3-byte payload accepted")
	}
}

func TestWireAnswersRoundTrip(t *testing.T) {
	in := []query.Answer{
		{Score: math.NaN(), OK: false, Err: "no label"},
		{Score: 0.25, OK: true},
	}
	out, err := unwireAnswers(wireAnswers(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1] != in[1] {
		t.Fatalf("round-trip %+v", out)
	}
	if math.Float64bits(out[0].Score) != math.Float64bits(in[0].Score) || out[0].Err != "no label" {
		t.Fatalf("NaN answer mangled: %+v", out[0])
	}
	if _, err := unwireAnswers([]WireAnswer{{}}); err == nil {
		t.Fatal("scoreless answer accepted")
	}
}
