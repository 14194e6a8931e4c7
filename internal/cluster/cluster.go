// Package cluster splits the streamgnn engine into a coordinator and N
// shard-replica services behind a small transport abstraction, turning the
// in-process sharded fan-out (DESIGN.md §12) into a distributable one
// without giving up bit-equality.
//
// The division of labor keeps every P-dependent decision on the coordinator:
// it runs the authoritative Engine — dirty tracking, exact/region expansion,
// the full-forward fallback decision, training, workload bookkeeping — and
// hands out only the per-shard region forwards via the engine's
// ShardForwarder seam. A replica mirrors the full graph (events are
// replicated to every replica: connected components may span shards and
// subgraph normalization needs global degrees, so the halo closure of any
// part is the whole snapshot) plus the model parameters and the recurrent
// state rows it needs, executes dgnn.ForwardPart — the exact code path the
// in-process fan-out runs — and returns the committed rows. The coordinator
// scatters the returned state rows into its own model and merges embeddings
// in the usual deterministic MergeShards order, so a 2-replica run is
// bit-identical to shards=2 in-process. Any replica failure degrades to the
// coordinator running that part locally, which is the in-process path and
// therefore preserves equality. See DESIGN.md §17.
//
// Two Transport implementations ship: Loopback (direct in-process calls,
// zero-copy — proves the architecture against single-process mode) and
// HTTPTransport (binary frames over localhost HTTP for queryd
// -role=coordinator|replica; frame.go). Every float crosses the wire as its
// raw IEEE-754 word (internal/wire), so the format is exact for every value,
// NaN and infinities included.
package cluster

import (
	"fmt"

	"streamgnn/internal/dgnn"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
)

// Event kinds: the byte that leads each stream.Event in a frame or the WAL.
const (
	kindNode byte = iota
	kindEdge
	kindFeature
	kindLabel
)

// eventKind names the kind of a stream event; ok is false for a type the
// wire does not carry.
func eventKind(ev stream.Event) (kind byte, ok bool) {
	switch ev.(type) {
	case stream.AddNode:
		return kindNode, true
	case stream.AddEdge:
		return kindEdge, true
	case stream.SetFeature:
		return kindFeature, true
	case stream.SetLabel:
		return kindLabel, true
	}
	return 0, false
}

// touches appends the node ids an event mentions (for owned/halo telemetry);
// nextID is the id an AddNode event will be assigned.
func touches(ev stream.Event, nextID int, dst []int) []int {
	switch e := ev.(type) {
	case stream.AddNode:
		return append(dst, nextID)
	case stream.AddEdge:
		return append(dst, e.U, e.V)
	case stream.SetFeature:
		return append(dst, e.V)
	case stream.SetLabel:
		return append(dst, e.V)
	}
	return dst
}

// StepEvents is one step's replicated event batch.
type StepEvents struct {
	Step   int
	Events []stream.Event
}

// ReplicaConfig identifies a shard replica: which slice of which partition
// it owns and the model geometry it mirrors. Hello carries it so coordinator
// and replica agree before any state moves; a mismatch on any field is a
// configuration error, reported verbatim.
type ReplicaConfig struct {
	// Shard is this replica's shard index in [0, Shards).
	Shard int
	// Shards and Layout name the node-space partition (shard.ParseLayout).
	Shards int
	Layout string
	// Model, Hidden and FeatDim fix the mirrored model's geometry.
	Model   string
	Hidden  int
	FeatDim int
	// WindowSteps is the engine's sliding-window expiry (0 = none); the
	// replica applies the same expiry to its graph mirror.
	WindowSteps int
}

func (c ReplicaConfig) validateAgainst(have ReplicaConfig) error {
	if c != have {
		return fmt.Errorf("cluster: replica configured as %+v, coordinator wants %+v", have, c)
	}
	return nil
}

// HelloRequest opens (or re-opens) a coordinator→replica session.
type HelloRequest struct {
	Config ReplicaConfig
}

// HelloResponse reports how far the replica's mirror has advanced, letting
// the coordinator prune its outbox and decide what to redeliver.
type HelloResponse struct {
	// LastApplied is the last step whose event batch the replica has
	// applied (-1 before any).
	LastApplied int
	// StateVersion is the model-mirror version the replica holds (0 before
	// the first full sync).
	StateVersion uint64
}

// ModelSync is a full model-mirror refresh: every parameter plus every
// recurrent-state matrix, stamped with the coordinator's mirror version.
type ModelSync struct {
	Version uint64
	Params  []dgnn.StateDump
	States  []dgnn.StateDump
}

// StatePatch carries the live recurrent-state rows for the ids committed
// since the replica's last sync or patch — the incremental alternative to a
// full ModelSync between training steps, when parameters are unchanged.
type StatePatch struct {
	IDs    []int
	States []dgnn.StateDump // one per state matrix, len(IDs) rows each
}

// ForwardRequest asks a replica to execute one shard part of a step's
// sharded incremental forward.
type ForwardRequest struct {
	Step int
	// Events is the coordinator's outbox for this replica: every step batch
	// not yet acknowledged, in step order. The replica applies the ones it
	// has not seen (dedup by step) before forwarding.
	Events []StepEvents
	// StateVersion is the model-mirror version this request assumes. When
	// Sync is present the replica adopts it; otherwise a mismatch with the
	// replica's held version is an error (the coordinator resyncs).
	StateVersion uint64
	Sync         *ModelSync
	Patch        *StatePatch
	// Part is this shard's component-respecting region part; Exact the
	// step's global exact-row set (both ascending global ids).
	Part  []int
	Exact []int
}

// ForwardResponse returns the part's committed rows: embedding values and,
// for recurrent models, the advanced live state rows at the same ids.
type ForwardResponse struct {
	Shard int
	IDs   []int
	// Out is len(IDs) × hidden: row k is the committed embedding of IDs[k].
	Out dgnn.StateDump
	// StateRows holds the live recurrent-state rows at IDs after the
	// forward, one dump per state matrix; nil for stateless models.
	StateRows   []dgnn.StateDump
	LastApplied int
}

// PublishRequest pushes the coordinator's post-step serving snapshot to a
// replica's serving mirror (and flushes the event outbox, so replicas whose
// shard had no work this step still keep their graph mirror fresh).
type PublishRequest struct {
	Step   int
	Events []StepEvents
	// N is the snapshot's row count. Full publishes carry the whole N ×
	// hidden matrix in Rows (IDs nil); incremental ones carry only the
	// changed rows, spliced into the previous mirror.
	N    int
	Full bool
	IDs  []int
	Rows dgnn.StateDump
	// HeadsVersion stamps the serving heads; Heads carries their parameter
	// dumps when the replica's held version is stale, and is empty otherwise.
	HeadsVersion uint64
	Heads        []dgnn.StateDump
}

// PublishResponse acknowledges a publish.
type PublishResponse struct {
	LastApplied int
}

// AnswerRequest fans part of a predictive-query batch out to a replica. Step
// pins the serving snapshot the answers must come from: a replica whose
// mirror is at any other step refuses, and the coordinator answers locally —
// remote serving accelerates, it never changes an answer.
type AnswerRequest struct {
	Step int
	Reqs []query.Request
}

// WireAnswer is query.Answer in an AnswerResponse; its score is an array of
// one because the benchmark harness (benchmarks/e2e) reads it as a list.
type WireAnswer struct {
	Score [1]float64
	OK    bool
	Err   string
}

// AnswerResponse returns one answer per request, in request order.
type AnswerResponse struct {
	Step    int
	Answers []WireAnswer
}

// Transport is one coordinator→replica session: the four RPCs of the
// protocol. Implementations must be safe for concurrent use (Answer runs on
// serving goroutines while Forward/Publish run on the step loop). Any
// returned error means the call may or may not have been applied; the
// coordinator marks the replica down, falls back to local execution, and
// renegotiates with Hello.
type Transport interface {
	Hello(req HelloRequest) (HelloResponse, error)
	Forward(req ForwardRequest) (ForwardResponse, error)
	Publish(req PublishRequest) (PublishResponse, error)
	Answer(req AnswerRequest) (AnswerResponse, error)
}
