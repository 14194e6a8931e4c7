package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"streamgnn/internal/query"
)

// The frame is the one encoding of the four RPCs' bodies: a version byte,
// then the message's fields in declaration order (layout table and reasons in
// DESIGN.md §17). The decoder reads bytes from another process, so: the first
// error sticks and every later read returns zero; every length is checked
// against the bytes that remain before it sizes an allocation; and a frame is
// accepted only whole and canonical — minimal varints, 0/1 flags, no trailing
// bytes — so one value has exactly one frame.
const frameVersion = 1

type enc struct{ b []byte }

func (e *enc) byte(v byte)      { e.b = append(e.b, v) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) int(v int)        { e.varint(int64(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) ids(ids []int) {
	e.uvarint(uint64(len(ids)))
	prev := 0
	for _, id := range ids {
		e.int(id - prev) // wraps for extreme ids; the decoder's sum wraps back
		prev = id
	}
}

func (e *enc) floats(f Float64s) {
	e.uvarint(uint64(len(f)))
	off := len(e.b)
	e.b = append(e.b, make([]byte, 8*len(f))...)
	for i, v := range f {
		binary.LittleEndian.PutUint64(e.b[off+8*i:], math.Float64bits(v))
	}
}

type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("cluster: frame: "+format, args...)
	}
	d.b = nil
}

func (d *dec) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("flag byte missing or not 0/1")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("truncated, overlong or non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.AppendVarint wrote it
}

func (d *dec) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an element count and rejects one whose elements, at minBytes
// each, cannot fit in the bytes that remain — before anything is sized by it.
func (d *dec) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail("%d elements of >= %d bytes announced, %d bytes remain", n, minBytes, len(d.b))
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) ids() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ids := make([]int, n)
	prev := 0
	for i := range ids {
		prev += d.int()
		ids[i] = prev
	}
	return ids
}

func (d *dec) floats() Float64s {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	f := make(Float64s, n)
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return f
}

// putList and getList frame a list as a count and its elements; minBytes is
// one element's smallest encoding. A zero count decodes to nil.
func putList[T any](e *enc, s []T, put func(*enc, *T)) {
	e.uvarint(uint64(len(s)))
	for i := range s {
		put(e, &s[i])
	}
}

func getList[T any](d *dec, minBytes int, get func(*dec, *T)) []T {
	n := d.count(minBytes)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		get(d, &s[i])
	}
	return s
}

func (e *enc) dumps(ds []Dump) { putList(e, ds, (*enc).dump) }
func (d *dec) dumps() []Dump   { return getList(d, 3, (*dec).dump) }

// optDumps frames an optional list behind a presence byte, so nil stays nil
// and present-but-empty stays present.
func (e *enc) optDumps(ds []Dump) {
	e.bool(ds != nil)
	if ds != nil {
		e.dumps(ds)
	}
}

func (d *dec) optDumps() []Dump {
	if !d.bool() {
		return nil
	}
	return append([]Dump{}, d.dumps()...)
}

func (e *enc) dump(m *Dump) {
	e.int(m.Rows)
	e.int(m.Cols)
	e.floats(m.Data)
}

func (d *dec) dump(m *Dump) {
	m.Rows = d.int()
	m.Cols = d.int()
	m.Data = d.floats()
}

func (e *enc) event(w *WireEvent) {
	e.str(w.Op)
	e.int(w.Type)
	e.int(w.U)
	e.int(w.V)
	e.varint(w.Time)
	e.floats(w.Label)
	e.floats(w.Feat)
}

func (d *dec) event(w *WireEvent) {
	w.Op = d.str()
	w.Type = d.int()
	w.U = d.int()
	w.V = d.int()
	w.Time = d.varint()
	w.Label = d.floats()
	w.Feat = d.floats()
}

func (e *enc) batches(bs []StepEvents) {
	putList(e, bs, func(e *enc, b *StepEvents) {
		e.int(b.Step)
		putList(e, b.Events, (*enc).event)
	})
}

func (d *dec) batches() []StepEvents {
	return getList(d, 2, func(d *dec, b *StepEvents) {
		b.Step = d.int()
		b.Events = getList(d, 7, (*dec).event)
	})
}

func (m *HelloRequest) put(e *enc) {
	c := &m.Config
	e.int(c.Shard)
	e.int(c.Shards)
	e.str(c.Layout)
	e.str(c.Model)
	e.int(c.Hidden)
	e.int(c.FeatDim)
	e.int(c.WindowSteps)
}

func (m *HelloRequest) get(d *dec) {
	c := &m.Config
	c.Shard = d.int()
	c.Shards = d.int()
	c.Layout = d.str()
	c.Model = d.str()
	c.Hidden = d.int()
	c.FeatDim = d.int()
	c.WindowSteps = d.int()
}

func (m *HelloResponse) put(e *enc) {
	e.int(m.LastApplied)
	e.uvarint(m.StateVersion)
}

func (m *HelloResponse) get(d *dec) {
	m.LastApplied = d.int()
	m.StateVersion = d.uvarint()
}

func (m *ForwardRequest) put(e *enc) {
	e.int(m.Step)
	e.batches(m.Events)
	e.uvarint(m.StateVersion)
	e.bool(m.Sync != nil)
	if m.Sync != nil {
		e.uvarint(m.Sync.Version)
		e.dumps(m.Sync.Params)
		e.dumps(m.Sync.States)
	}
	e.bool(m.Patch != nil)
	if m.Patch != nil {
		e.ids(m.Patch.IDs)
		e.dumps(m.Patch.States)
	}
	e.ids(m.Part)
	e.ids(m.Exact)
}

func (m *ForwardRequest) get(d *dec) {
	m.Step = d.int()
	m.Events = d.batches()
	m.StateVersion = d.uvarint()
	if d.bool() {
		m.Sync = &ModelSync{Version: d.uvarint(), Params: d.dumps(), States: d.dumps()}
	}
	if d.bool() {
		m.Patch = &StatePatch{IDs: d.ids(), States: d.dumps()}
	}
	m.Part = d.ids()
	m.Exact = d.ids()
}

func (m *ForwardResponse) put(e *enc) {
	e.int(m.Shard)
	e.ids(m.IDs)
	e.dump(&m.Out)
	e.optDumps(m.StateRows)
	e.int(m.LastApplied)
}

func (m *ForwardResponse) get(d *dec) {
	m.Shard = d.int()
	m.IDs = d.ids()
	d.dump(&m.Out)
	m.StateRows = d.optDumps()
	m.LastApplied = d.int()
}

func (m *PublishRequest) put(e *enc) {
	e.int(m.Step)
	e.batches(m.Events)
	e.int(m.N)
	e.bool(m.Full)
	e.ids(m.IDs)
	e.dump(&m.Rows)
	e.uvarint(m.HeadsVersion)
	e.optDumps(m.Heads)
}

func (m *PublishRequest) get(d *dec) {
	m.Step = d.int()
	m.Events = d.batches()
	m.N = d.int()
	m.Full = d.bool()
	m.IDs = d.ids()
	d.dump(&m.Rows)
	m.HeadsVersion = d.uvarint()
	m.Heads = d.optDumps()
}

func (m *PublishResponse) put(e *enc) { e.int(m.LastApplied) }
func (m *PublishResponse) get(d *dec) { m.LastApplied = d.int() }

func (m *AnswerRequest) put(e *enc) {
	e.int(m.Step)
	putList(e, m.Reqs, func(e *enc, r *query.Request) {
		e.str(r.Kind)
		e.int(r.Anchor)
		e.int(r.Src)
		e.int(r.Dst)
		e.int(r.Node)
	})
}

func (m *AnswerRequest) get(d *dec) {
	m.Step = d.int()
	m.Reqs = getList(d, 5, func(d *dec, r *query.Request) {
		r.Kind = d.str()
		r.Anchor = d.int()
		r.Src = d.int()
		r.Dst = d.int()
		r.Node = d.int()
	})
}

func (m *AnswerResponse) put(e *enc) {
	e.int(m.Step)
	putList(e, m.Answers, func(e *enc, a *WireAnswer) {
		e.floats(a.Score)
		e.bool(a.OK)
		e.str(a.Err)
	})
}

func (m *AnswerResponse) get(d *dec) {
	m.Step = d.int()
	m.Answers = getList(d, 3, func(d *dec, a *WireAnswer) {
		a.Score = d.floats()
		a.OK = d.bool()
		a.Err = d.str()
	})
}

// frameMessage is one of the eight messages; framePtr is its generic form.
type frameMessage interface {
	put(*enc)
	get(*dec)
}

type framePtr[T any] interface {
	*T
	frameMessage
}

func encodeFrame(m frameMessage) []byte {
	e := enc{b: make([]byte, 0, 512)}
	e.byte(frameVersion)
	m.put(&e)
	return e.b
}

// decodeFrame fills m from a frame; on any error m is not to be used.
func decodeFrame(b []byte, m frameMessage) error {
	if len(b) == 0 {
		return fmt.Errorf("cluster: frame: empty")
	}
	if b[0] != frameVersion {
		return fmt.Errorf("cluster: frame: peer speaks version %d, this binary speaks version %d", b[0], frameVersion)
	}
	d := dec{b: b[1:]}
	m.get(&d)
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}
