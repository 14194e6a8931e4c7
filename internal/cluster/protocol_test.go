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

// A replica checkpoint only restores into a replica of the same identity.
func TestRestoreCheckpointRejectsMismatch(t *testing.T) {
	r := configuredReplica(t, baseReplicaConfig())
	var ck bytes.Buffer
	if err := r.SaveCheckpoint(&ck); err != nil {
		t.Fatal(err)
	}
	other := baseReplicaConfig()
	other.Shards = 4
	wrong := configuredReplica(t, other)
	if err := wrong.RestoreCheckpoint(bytes.NewReader(ck.Bytes())); err == nil {
		t.Fatal("checkpoint for shards=2 restored into a shards=4 replica")
	}
	fresh := NewReplica()
	if err := fresh.RestoreCheckpoint(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatalf("fresh replica rejected its own checkpoint: %v", err)
	}
	if fresh.Config() != baseReplicaConfig() {
		t.Fatalf("restored config %+v", fresh.Config())
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
