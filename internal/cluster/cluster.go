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
// -role=coordinator|replica; frame.go). All floating-point payloads are
// Float64s and cross the wire as their raw IEEE-754 little-endian words, so
// the format is exact for every value, NaN and infinities included.
package cluster

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
	"streamgnn/internal/tensor"
)

// Float64s is the float payload of every wire type. In an RPC frame it is a
// count and its raw little-endian IEEE-754 words (frame.go). Its JSON form —
// base64 of the same bytes, exact for every representable value where
// encoding/json alone cannot carry NaN or ±Inf — is what the replica's
// on-disk WAL stores, and only the WAL uses it.
type Float64s []float64

// MarshalJSON implements json.Marshaler.
func (f Float64s) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return json.Marshal(base64.StdEncoding.EncodeToString(buf))
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float64s) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return err
	}
	if len(buf)%8 != 0 {
		return fmt.Errorf("cluster: float payload of %d bytes is not a multiple of 8", len(buf))
	}
	out := make(Float64s, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	*f = out
	return nil
}

// Dump is a wire-encodable matrix (the transport twin of dgnn.StateDump).
type Dump struct {
	Rows int
	Cols int
	Data Float64s
}

func dumpOf(d dgnn.StateDump) Dump {
	return Dump{Rows: d.Rows, Cols: d.Cols, Data: Float64s(d.Data)}
}

func dumpsOf(ds []dgnn.StateDump) []Dump {
	out := make([]Dump, len(ds))
	for i, d := range ds {
		out[i] = dumpOf(d)
	}
	return out
}

func (d Dump) stateDump() dgnn.StateDump {
	return dgnn.StateDump{Rows: d.Rows, Cols: d.Cols, Data: []float64(d.Data)}
}

func stateDumps(ds []Dump) []dgnn.StateDump {
	out := make([]dgnn.StateDump, len(ds))
	for i, d := range ds {
		out[i] = d.stateDump()
	}
	return out
}

func dumpMatrix(m *tensor.Matrix) Dump {
	data := make(Float64s, len(m.Data))
	copy(data, m.Data)
	return Dump{Rows: m.Rows, Cols: m.Cols, Data: data}
}

func (d Dump) matrix() (*tensor.Matrix, error) {
	if len(d.Data) != d.Rows*d.Cols {
		return nil, fmt.Errorf("cluster: %dx%d matrix payload carries %d values", d.Rows, d.Cols, len(d.Data))
	}
	m := tensor.New(d.Rows, d.Cols)
	copy(m.Data, d.Data)
	return m, nil
}

// Wire event ops.
const (
	opNode  = "node"
	opEdge  = "edge"
	opFeat  = "feat"
	opLabel = "label"
)

// WireEvent is one graph mutation in transit: the four stream.Event kinds,
// with every float carried bit-exactly (AddEdge's NaN no-label sentinel
// included) via Float64s.
type WireEvent struct {
	Op    string   `json:"op"`
	Type  int      `json:"type,omitempty"`
	U     int      `json:"u,omitempty"`
	V     int      `json:"v,omitempty"`
	Time  int64    `json:"time,omitempty"`
	Label Float64s `json:"label,omitempty"` // one element when present
	Feat  Float64s `json:"feat,omitempty"`
}

// EncodeEvents converts one step's stream events to the wire form.
func EncodeEvents(events []stream.Event) ([]WireEvent, error) {
	out := make([]WireEvent, len(events))
	for i, ev := range events {
		switch e := ev.(type) {
		case stream.AddNode:
			out[i] = WireEvent{Op: opNode, Type: int(e.Type), Feat: append(Float64s(nil), e.Feat...)}
		case stream.AddEdge:
			out[i] = WireEvent{Op: opEdge, U: e.U, V: e.V, Type: int(e.Type), Time: e.Time,
				Label: Float64s{e.Label}}
		case stream.SetFeature:
			out[i] = WireEvent{Op: opFeat, V: e.V, Feat: append(Float64s(nil), e.Feat...)}
		case stream.SetLabel:
			out[i] = WireEvent{Op: opLabel, V: e.V, Label: Float64s{e.Label}}
		default:
			return nil, fmt.Errorf("cluster: cannot encode stream event %T", ev)
		}
	}
	return out, nil
}

// check reports why the event cannot apply to a mirror of n nodes: an
// unknown op, a label payload that is not one value, or a node id outside
// [0, n).
func (w WireEvent) check(n int) error {
	switch w.Op {
	case opNode:
		return nil
	case opFeat:
	case opEdge, opLabel:
		if len(w.Label) != 1 {
			return fmt.Errorf("cluster: %s event carries %d label values, want 1", w.Op, len(w.Label))
		}
	default:
		return fmt.Errorf("cluster: unknown event op %q", w.Op)
	}
	for _, v := range w.touches(n, nil) {
		if v < 0 || v >= n {
			return fmt.Errorf("cluster: %s event names node %d outside the mirror's [0, %d)", w.Op, v, n)
		}
	}
	return nil
}

// apply replays the event onto a graph mirror — the same mutations the
// event's stream.Event counterpart performs on the coordinator's graph — or,
// when check rejects it, leaves the mirror untouched.
func (w WireEvent) apply(g *graph.Dynamic) error {
	if err := w.check(g.N()); err != nil {
		return err
	}
	switch w.Op {
	case opNode:
		g.AddNode(graph.NodeType(w.Type), w.Feat)
	case opEdge:
		g.AddLabeledEdge(w.U, w.V, graph.EdgeType(w.Type), w.Time, w.Label[0])
	case opFeat:
		g.SetFeature(w.V, w.Feat)
	case opLabel:
		g.SetLabel(w.V, w.Label[0])
	}
	return nil
}

// touches appends the node ids an event mentions (for owned/halo telemetry);
// nextID is the id an opNode event will be assigned.
func (w WireEvent) touches(nextID int, dst []int) []int {
	switch w.Op {
	case opNode:
		return append(dst, nextID)
	case opEdge:
		return append(dst, w.U, w.V)
	default:
		return append(dst, w.V)
	}
}

// StepEvents is one step's replicated event batch.
type StepEvents struct {
	Step   int         `json:"step"`
	Events []WireEvent `json:"events"`
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
		return fmt.Errorf("cluster: replica configured as shard %d of %d (%s) model=%s hidden=%d featdim=%d window=%d, coordinator wants shard %d of %d (%s) model=%s hidden=%d featdim=%d window=%d",
			have.Shard, have.Shards, have.Layout, have.Model, have.Hidden, have.FeatDim, have.WindowSteps,
			c.Shard, c.Shards, c.Layout, c.Model, c.Hidden, c.FeatDim, c.WindowSteps)
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
	Params  []Dump
	States  []Dump
}

// StatePatch carries the live recurrent-state rows for the ids committed
// since the replica's last sync or patch — the incremental alternative to a
// full ModelSync between training steps, when parameters are unchanged.
type StatePatch struct {
	IDs    []int
	States []Dump // one per state matrix, len(IDs) rows each
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
	Out Dump
	// StateRows holds the live recurrent-state rows at IDs after the
	// forward, one Dump per state matrix; nil for stateless models.
	StateRows   []Dump
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
	Rows Dump
	// HeadsVersion stamps the serving heads; Heads carries their parameter
	// dumps when the replica's held version is stale.
	HeadsVersion uint64
	Heads        []Dump
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

// WireAnswer is query.Answer with the score carried bit-exactly.
type WireAnswer struct {
	Score Float64s // one element
	OK    bool
	Err   string
}

// AnswerResponse returns one answer per request, in request order.
type AnswerResponse struct {
	Step    int
	Answers []WireAnswer
}

func wireAnswers(as []query.Answer) []WireAnswer {
	out := make([]WireAnswer, len(as))
	for i, a := range as {
		out[i] = WireAnswer{Score: Float64s{a.Score}, OK: a.OK, Err: a.Err}
	}
	return out
}

func unwireAnswers(ws []WireAnswer) ([]query.Answer, error) {
	out := make([]query.Answer, len(ws))
	for i, w := range ws {
		if len(w.Score) != 1 {
			return nil, fmt.Errorf("cluster: answer %d carries %d score values, want 1", i, len(w.Score))
		}
		out[i] = query.Answer{Score: w.Score[0], OK: w.OK, Err: w.Err}
	}
	return out, nil
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

// mergeSorted returns the ascending union of two ascending id slices.
func mergeSorted(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// restoreParams overwrites parameter values from wire dumps, validating
// every shape first so a bad payload never half-applies.
func restoreParams(params []*autodiff.Node, dumps []Dump) error {
	if len(dumps) != len(params) {
		return fmt.Errorf("cluster: sync carries %d parameters, model has %d", len(dumps), len(params))
	}
	for i, p := range params {
		d := dumps[i]
		if d.Rows != p.Value.Rows || d.Cols != p.Value.Cols || len(d.Data) != len(p.Value.Data) {
			return fmt.Errorf("cluster: parameter %d shape mismatch (%dx%d vs %dx%d)",
				i, d.Rows, d.Cols, p.Value.Rows, p.Value.Cols)
		}
	}
	for i, p := range params {
		copy(p.Value.Data, dumps[i].Data)
	}
	return nil
}

func gatherParams(params []*autodiff.Node) []Dump {
	out := make([]Dump, len(params))
	for i, p := range params {
		out[i] = dumpMatrix(p.Value)
	}
	return out
}
