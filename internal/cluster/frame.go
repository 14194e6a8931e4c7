package cluster

import (
	"fmt"

	"streamgnn/internal/dgnn"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
	"streamgnn/internal/wire"
)

// A frame is the one encoding of the four RPCs' bodies and of each WAL
// record: a version byte, then the message's fields in declaration order,
// written and read by internal/wire (layout table in DESIGN.md §17). Each
// message has one function that does both.
const frameVersion = 2

// frameMessage is one of the eight RPC messages or a WAL record; framePtr is
// its generic form.
type frameMessage interface {
	wire(*wire.Coder)
}

type framePtr[T any] interface {
	*T
	frameMessage
}

func encodeFrame(m frameMessage) ([]byte, error) {
	frame, err := wire.Encode(frameVersion, m.wire)
	if err != nil {
		return nil, fmt.Errorf("cluster: frame: %w", err)
	}
	return frame, nil
}

// decodeFrame fills m from a frame; on any error m is not to be used.
func decodeFrame(frame []byte, m frameMessage) error {
	if err := wire.Decode(frame, frameVersion, m.wire); err != nil {
		return fmt.Errorf("cluster: frame: %w", err)
	}
	return nil
}

// event frames one stream event as its kind byte and that kind's fields.
func event(ev *stream.Event, c *wire.Coder) {
	kind, ok := eventKind(*ev)
	if !ok && !c.Decoding() {
		c.Fail("cannot encode stream event %T", *ev)
	}
	c.Byte(&kind)
	var out stream.Event
	switch kind {
	case kindNode:
		e, _ := (*ev).(stream.AddNode)
		c.Byte((*byte)(&e.Type))
		c.Floats(&e.Feat)
		out = e
	case kindEdge:
		e, _ := (*ev).(stream.AddEdge)
		c.Int(&e.U)
		c.Int(&e.V)
		c.Byte((*byte)(&e.Type))
		c.Varint(&e.Time)
		c.Float(&e.Label)
		out = e
	case kindFeature:
		e, _ := (*ev).(stream.SetFeature)
		c.Int(&e.V)
		c.Floats(&e.Feat)
		out = e
	case kindLabel:
		e, _ := (*ev).(stream.SetLabel)
		c.Int(&e.V)
		c.Float(&e.Label)
		out = e
	default:
		c.Fail("unknown event kind %d", kind)
	}
	if c.Decoding() {
		*ev = out
	}
}

func (b *StepEvents) wire(c *wire.Coder) {
	c.Int(&b.Step)
	wire.List(c, &b.Events, 3, event)
}

func (cfg *ReplicaConfig) wire(c *wire.Coder) {
	c.Int(&cfg.Shard)
	c.Int(&cfg.Shards)
	c.String(&cfg.Layout)
	c.String(&cfg.Model)
	c.Int(&cfg.Hidden)
	c.Int(&cfg.FeatDim)
	c.Int(&cfg.WindowSteps)
}

func (m *HelloRequest) wire(c *wire.Coder) { m.Config.wire(c) }

func (m *HelloResponse) wire(c *wire.Coder) {
	c.Int(&m.LastApplied)
	c.Uvarint(&m.StateVersion)
}

func (s *ModelSync) wire(c *wire.Coder) {
	c.Uvarint(&s.Version)
	dgnn.WireDumps(c, &s.Params)
	dgnn.WireDumps(c, &s.States)
}

func (p *StatePatch) wire(c *wire.Coder) {
	c.Ints(&p.IDs)
	dgnn.WireDumps(c, &p.States)
}

func (m *ForwardRequest) wire(c *wire.Coder) {
	c.Int(&m.Step)
	wire.List(c, &m.Events, 2, (*StepEvents).wire)
	c.Uvarint(&m.StateVersion)
	wire.Opt(c, &m.Sync, (*ModelSync).wire)
	wire.Opt(c, &m.Patch, (*StatePatch).wire)
	c.Ints(&m.Part)
	c.Ints(&m.Exact)
}

func (m *ForwardResponse) wire(c *wire.Coder) {
	c.Int(&m.Shard)
	c.Ints(&m.IDs)
	m.Out.Wire(c)
	dgnn.WireDumps(c, &m.StateRows)
	c.Int(&m.LastApplied)
}

func (m *PublishRequest) wire(c *wire.Coder) {
	c.Int(&m.Step)
	wire.List(c, &m.Events, 2, (*StepEvents).wire)
	c.Int(&m.N)
	c.Bool(&m.Full)
	c.Ints(&m.IDs)
	m.Rows.Wire(c)
	c.Uvarint(&m.HeadsVersion)
	dgnn.WireDumps(c, &m.Heads)
}

func (m *PublishResponse) wire(c *wire.Coder) { c.Int(&m.LastApplied) }

func (m *AnswerRequest) wire(c *wire.Coder) {
	c.Int(&m.Step)
	wire.List(c, &m.Reqs, 5, func(r *query.Request, c *wire.Coder) {
		c.String(&r.Kind)
		c.Int(&r.Anchor)
		c.Int(&r.Src)
		c.Int(&r.Dst)
		c.Int(&r.Node)
	})
}

func (m *AnswerResponse) wire(c *wire.Coder) {
	c.Int(&m.Step)
	wire.List(c, &m.Answers, 10, func(a *WireAnswer, c *wire.Coder) {
		c.Float(&a.Score[0])
		c.Bool(&a.OK)
		c.String(&a.Err)
	})
}
