package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"streamgnn"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
	"streamgnn/internal/wire/wiretest"
	"streamgnn/internal/workload"
)

// The eight messages of the protocol, by the name their corpus files carry.
var frameKinds = []struct {
	name string
	new  func() frameMessage
}{
	{"hello-req", func() frameMessage { return new(HelloRequest) }},
	{"hello-resp", func() frameMessage { return new(HelloResponse) }},
	{"forward-req", func() frameMessage { return new(ForwardRequest) }},
	{"forward-resp", func() frameMessage { return new(ForwardResponse) }},
	{"publish-req", func() frameMessage { return new(PublishRequest) }},
	{"publish-resp", func() frameMessage { return new(PublishResponse) }},
	{"answer-req", func() frameMessage { return new(AnswerRequest) }},
	{"answer-resp", func() frameMessage { return new(AnswerResponse) }},
}

func newFrameMessage(t testing.TB, kind string) frameMessage {
	t.Helper()
	for _, k := range frameKinds {
		if strings.HasPrefix(kind, k.name) {
			return k.new()
		}
	}
	t.Fatalf("no message kind for %q", kind)
	return nil
}

// bitEqual is reflect.DeepEqual with floats compared by their bits, so a NaN
// equals itself only when its payload survived and −0 differs from +0. Like
// DeepEqual it tells a nil slice from an empty one.
func bitEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqual(a.Elem(), b.Elem())
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

func mustFrame(t testing.TB, m frameMessage) []byte {
	t.Helper()
	frame, err := encodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// Every message must cross the codec with every field intact — floats to the
// bit — and a value must have exactly one frame (decode then encode gives the
// bytes back). want is set where the frame deliberately normalises: an empty
// list decodes to nil.
func TestFrameRoundTrip(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	odd := []float64{nanPayload, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, math.MaxFloat64, 1.0 / 3.0}
	dump := dgnn.StateDump{Rows: 2, Cols: 5, Data: odd}
	empty := dgnn.StateDump{Rows: 0, Cols: 16}
	events := []StepEvents{
		{Step: 3, Events: []stream.Event{
			stream.AddNode{Type: 2, Feat: []float64{1, nanPayload}},
			stream.AddEdge{U: 4, V: 9, Type: 1, Time: math.MinInt64, Label: math.NaN()},
			stream.AddEdge{U: 9, V: 4, Time: math.MaxInt64, Label: -0.5},
			stream.SetFeature{V: 7, Feat: []float64{}},
			stream.SetLabel{V: -1, Label: math.Inf(-1)},
		}},
		{Step: 4},
	}
	eventsWant := []StepEvents{{Step: 3, Events: append([]stream.Event(nil), events[0].Events...)}, {Step: 4}}
	eventsWant[0].Events[3] = stream.SetFeature{V: 7}
	cfg := ReplicaConfig{Shard: 1, Shards: 2, Layout: "hash", Model: "TGCN", Hidden: 16, FeatDim: 8, WindowSteps: -3}

	cases := []struct {
		name     string
		in, want frameMessage
	}{
		{name: "hello", in: &HelloRequest{Config: cfg}},
		{name: "hello zero", in: &HelloRequest{}},
		{name: "hello reply", in: &HelloResponse{LastApplied: -1, StateVersion: math.MaxUint64}},
		{name: "forward bare", in: &ForwardRequest{}},
		{name: "forward sync", in: &ForwardRequest{Step: 7, Events: events, StateVersion: 9,
			Sync: &ModelSync{Version: 9, Params: []dgnn.StateDump{dump, empty}, States: []dgnn.StateDump{dump}},
			Part: []int{0, 1, 5, 1 << 40}, Exact: []int{5}},
			want: &ForwardRequest{Step: 7, Events: eventsWant, StateVersion: 9,
				Sync: &ModelSync{Version: 9, Params: []dgnn.StateDump{dump, empty}, States: []dgnn.StateDump{dump}},
				Part: []int{0, 1, 5, 1 << 40}, Exact: []int{5}}},
		{name: "forward patch", in: &ForwardRequest{Step: -2, StateVersion: 1,
			Patch: &StatePatch{IDs: []int{2, 3}, States: []dgnn.StateDump{dump}}, Part: []int{2, 3}}},
		{name: "forward empty sync and patch", in: &ForwardRequest{Sync: &ModelSync{}, Patch: &StatePatch{}}},
		{name: "forward empty part", in: &ForwardRequest{Part: []int{}, Exact: []int{}, Events: []StepEvents{}},
			want: &ForwardRequest{}},
		{name: "forward descending ids", in: &ForwardRequest{
			Part: []int{9, 3, 3, -4, math.MaxInt64, math.MinInt64, 0}, Exact: []int{math.MinInt64}}},
		{name: "forward reply", in: &ForwardResponse{Shard: 1, IDs: []int{4, 8}, Out: dump,
			StateRows: []dgnn.StateDump{dump, dump}, LastApplied: 12}},
		{name: "forward reply nil state rows", in: &ForwardResponse{Out: empty, LastApplied: -1}},
		{name: "forward reply empty state rows", in: &ForwardResponse{StateRows: []dgnn.StateDump{}},
			want: &ForwardResponse{}},
		{name: "publish full", in: &PublishRequest{Step: 5, Events: events[1:], N: 2, Full: true, Rows: dump,
			HeadsVersion: 3, Heads: []dgnn.StateDump{dump}}},
		{name: "publish rows", in: &PublishRequest{Step: 6, N: 40, IDs: []int{1, 39}, Rows: dump, HeadsVersion: 3}},
		{name: "publish empty heads", in: &PublishRequest{Heads: []dgnn.StateDump{}}, want: &PublishRequest{}},
		{name: "publish reply", in: &PublishResponse{LastApplied: math.MinInt64}},
		{name: "answer", in: &AnswerRequest{Step: 8, Reqs: []query.Request{
			{Kind: query.KindEvent, Anchor: 3}, {Kind: query.KindLink, Src: 1, Dst: -2},
			{Kind: "", Node: math.MaxInt64}}}},
		{name: "answer none", in: &AnswerRequest{Step: 8}},
		{name: "answer reply", in: &AnswerResponse{Step: 8, Answers: []WireAnswer{
			{Score: [1]float64{nanPayload}, Err: "node 7 outside \xff\xfe the matrix"},
			{Score: [1]float64{0.25}, OK: true},
			{}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := mustFrame(t, tc.in)
			got := reflect.New(reflect.TypeOf(tc.in).Elem()).Interface().(frameMessage)
			if err := decodeFrame(frame, got); err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if want == nil {
				want = tc.in
			}
			if !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Fatalf("round trip changed the message:\n got  %+v\n want %+v", got, want)
			}
			if again := mustFrame(t, got); !bytes.Equal(again, frame) {
				t.Fatalf("decoded value re-encodes to %d bytes that differ from the %d received", len(again), len(frame))
			}
		})
	}
}

// What the decoder must refuse, each with an error that says why — and the
// announced 2^32 floats without an allocation sized by the lie. An event of a
// type the wire does not carry is refused on the way out, too.
func TestFrameRejects(t *testing.T) {
	valid := mustFrame(t, &AnswerResponse{Step: 1, Answers: []WireAnswer{{Score: [1]float64{1}, OK: true}}})
	// A forward reply: shard 0, no ids, a 0x0 Out whose data announces 2^32 floats.
	huge := []byte{frameVersion, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10}
	cases := []struct {
		name, want string
		frame      []byte
		into       frameMessage
	}{
		{"empty", "empty", nil, nil},
		{"version", fmt.Sprintf("version 9, this binary speaks version %d", frameVersion), append([]byte{9}, valid[1:]...), nil},
		{"trailing byte", "1 trailing bytes", append(append([]byte(nil), valid...), 0), nil},
		{"truncated", "frame:", valid[:len(valid)-1], nil},
		{"2^32 floats in 10 bytes", "announced", huge, new(ForwardResponse)},
		{"non-minimal varint", "non-minimal", []byte{frameVersion, 0x80, 0x00, 0}, nil},
		{"flag byte", "flag byte", append(append([]byte(nil), valid[:len(valid)-2]...), 2, 0), nil},
		// A publish at step 0 whose one batch holds one event of kind 9.
		{"unknown event kind", "unknown event kind 9", []byte{frameVersion, 0, 1, 0, 1, 9, 0, 0}, new(PublishRequest)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			into := tc.into
			if into == nil {
				into = new(AnswerResponse)
			}
			err := decodeFrame(tc.frame, into)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = decodeFrame(huge, new(ForwardResponse))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
		t.Fatalf("rejecting a %d-byte frame allocated %d bytes", len(huge), got)
	}
	foreign := &PublishRequest{Events: []StepEvents{{Events: []stream.Event{&stream.AddNode{}}}}}
	if _, err := encodeFrame(foreign); err == nil || !strings.Contains(err.Error(), "cannot encode") {
		t.Fatalf("encoding a *stream.AddNode event: error %v", err)
	}
}

// codecTransport is Loopback with the codec in the path and no socket: every
// request and every reply is encoded, handed to tap (which may record or
// damage it) and decoded into a fresh value, as the HTTP transport does.
type codecTransport struct {
	r   *Replica
	tap func(kind string, frame []byte) []byte // nil = pass through
}

func codecCall[Req, Resp any, PReq framePtr[Req], PResp framePtr[Resp]](c *codecTransport, op string, req *Req, handle func(Req) (Resp, error)) (Resp, error) {
	pass := func(kind string, m frameMessage, into frameMessage) error {
		frame, err := encodeFrame(m)
		if err != nil {
			return err
		}
		if c.tap != nil {
			frame = c.tap(kind, frame)
		}
		return decodeFrame(frame, into)
	}
	var in Req
	var out, zero Resp
	if err := pass(op+"-req", PReq(req), PReq(&in)); err != nil {
		return zero, err
	}
	resp, err := handle(in)
	if err != nil {
		return zero, err
	}
	if err := pass(op+"-resp", PResp(&resp), PResp(&out)); err != nil {
		return zero, err
	}
	return out, nil
}

func (c *codecTransport) Hello(req HelloRequest) (HelloResponse, error) {
	return codecCall(c, "hello", &req, c.r.HandleHello)
}

func (c *codecTransport) Forward(req ForwardRequest) (ForwardResponse, error) {
	return codecCall(c, "forward", &req, c.r.HandleForward)
}

func (c *codecTransport) Publish(req PublishRequest) (PublishResponse, error) {
	return codecCall(c, "publish", &req, c.r.HandlePublish)
}

func (c *codecTransport) Answer(req AnswerRequest) (AnswerResponse, error) {
	return codecCall(c, "answer", &req, c.r.HandleAnswer)
}

func codecFactory(tap func(shard int, kind string, frame []byte) []byte) transportFactory {
	return func(t *testing.T, reps []*Replica) []Transport {
		trans := make([]Transport, len(reps))
		for s := range reps {
			s := s
			ct := &codecTransport{r: reps[s]}
			if tap != nil {
				ct.tap = func(kind string, frame []byte) []byte { return tap(s, kind, frame) }
			}
			trans[s] = ct
		}
		return trans
	}
}

// The recurrent 200-step scenario with the codec alone between coordinator
// and replicas: bit-identical to in-process shards=2, as over Loopback.
func TestClusterCodecRecurrent200(t *testing.T) {
	h := newHarness(t, "TGCN", 11, 60, 2, codecFactory(nil))
	for s := 0; s < 200; s++ {
		h.step(t, s)
		if s%10 == 0 {
			h.checkRemoteServing(t, s)
		}
	}
	h.finish(t)
	if v := h.coord.tele.localFallbacks.Value(); v != 0 {
		t.Fatalf("%d local fallbacks in a healthy cluster", v)
	}
	var patches int64
	for _, r := range h.reps {
		patches += r.Stats().Patches
	}
	if patches == 0 {
		t.Fatal("no state-row patches crossed the codec")
	}
}

// A reply cut short in transit is a decode error, not a half-filled
// response: the coordinator runs the part locally and no bit moves.
func TestClusterTruncatedReplyFallsBack(t *testing.T) {
	step := 0
	var cut atomic.Int64 // the two shards' forwards run side by side
	h := newHarness(t, "TGCN", 11, 60, 2, codecFactory(func(shard int, kind string, frame []byte) []byte {
		if step == 50 && kind == "forward-resp" {
			cut.Add(1)
			return frame[:len(frame)/2]
		}
		return frame
	}))
	for step = 0; step < 100; step++ {
		h.step(t, step)
	}
	h.finish(t)
	if cut.Load() == 0 {
		t.Fatal("step 50 issued no forward RPC; nothing was truncated")
	}
	if v := h.coord.tele.localFallbacks.Value(); v < cut.Load() {
		t.Fatalf("%d replies truncated, %d local fallbacks", cut.Load(), v)
	}
	for s := range h.reps {
		if !h.coord.reps[s].connected.Load() {
			t.Fatalf("replica %d never reconnected after the truncated reply", s)
		}
	}
}

// A request frame that does not decode whole must not reach the replica:
// every strict prefix of a valid forward and publish frame, a wrong version
// byte and a trailing byte answer 400 and leave the graph mirror, the model
// mirror and the serving snapshot exactly as they were; the whole frame then
// applies, which is what makes the refusals mean something.
func TestHTTPBadFrameLeavesReplicaUntouched(t *testing.T) {
	const next = 6
	var lastForward, lastPublish []byte
	h := newHarness(t, "TGCN", 7, 24, 2, codecFactory(func(shard int, kind string, frame []byte) []byte {
		if shard == 0 && kind == "forward-req" {
			lastForward = frame
		}
		if shard == 0 && kind == "publish-req" {
			lastPublish = frame
		}
		return frame
	}))
	for s := 0; s < next; s++ {
		h.step(t, s)
	}
	if lastForward == nil || lastPublish == nil {
		t.Fatal("replica 0 saw no forward or publish in the warm-up")
	}
	batch := []StepEvents{{Step: next, Events: h.d.eventsFor(next)}}

	// The next step's requests, carrying every optional member at once.
	var fwd ForwardRequest
	if err := decodeFrame(lastForward, &fwd); err != nil {
		t.Fatal(err)
	}
	if fwd.Patch == nil {
		t.Fatal("warm-up's last forward carried no patch")
	}
	fwd.Step, fwd.Events = next, batch
	fwd.Sync = &ModelSync{Version: fwd.StateVersion,
		Params: dgnn.DumpParams(h.coord.model.Params()), States: h.coord.model.DumpState()}
	var pub PublishRequest
	if err := decodeFrame(lastPublish, &pub); err != nil {
		t.Fatal(err)
	}
	pub.Step, pub.Events = next, batch
	pub.Heads = dgnn.DumpParams(h.eng.QuerySnapshot().Heads().Params())

	rep := h.reps[0]
	handler := NewHTTPHandler(rep)
	post := func(op string, frame []byte) int {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/"+op, bytes.NewReader(frame)))
		return rec.Code
	}
	type mirror struct {
		lastApplied  int
		stateVersion uint64
		headsVersion uint64
		serving      *replicaSnapshot
		forwards     int64
		state        string
	}
	look := func() mirror {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		return mirror{rep.lastApplied, rep.stateVersion, rep.headsVersion, rep.serving.Load(),
			rep.stats.forwards.Load(), fmt.Sprint(rep.model.DumpState())}
	}
	refuse := func(op, what string, frame []byte, before mirror) {
		t.Helper()
		if code := post(op, frame); code != http.StatusBadRequest {
			t.Fatalf("%s %s: HTTP %d, want 400", op, what, code)
		}
		if after := look(); after != before {
			t.Fatalf("%s %s: replica moved from %+v to %+v", op, what, before, after)
		}
	}
	for _, rpc := range []struct {
		op    string
		frame []byte
	}{{"forward", mustFrame(t, &fwd)}, {"publish", mustFrame(t, &pub)}} {
		before := look()
		for n := 0; n < len(rpc.frame); n++ {
			refuse(rpc.op, fmt.Sprintf("prefix of %d/%d bytes", n, len(rpc.frame)), rpc.frame[:n], before)
		}
		refuse(rpc.op, "wrong version", append([]byte{frameVersion + 1}, rpc.frame[1:]...), before)
		refuse(rpc.op, "trailing byte", append(append([]byte(nil), rpc.frame...), 0), before)
		if code := post(rpc.op, rpc.frame); code != http.StatusOK {
			t.Fatalf("%s: the whole frame got HTTP %d", rpc.op, code)
		}
		after := look()
		if after.lastApplied != next || after == before {
			t.Fatalf("%s: the whole frame did not apply: %+v", rpc.op, after)
		}
	}
	if snap := rep.serving.Load(); snap.step != next {
		t.Fatalf("serving mirror at step %d after the publish, want %d", snap.step, next)
	}
}

// decodeWAL reads an input as a whole WAL: a ReplicaConfig record, then
// StepEvents records.
func decodeWAL(data []byte) (func() ([]byte, error), error) {
	var records []frameMessage
	for log, m := data, frameMessage(new(ReplicaConfig)); len(log) > 0; m = new(StepEvents) {
		var err error
		if log, err = readRecord(log, m); err != nil {
			return nil, err
		}
		records = append(records, m)
	}
	return func() ([]byte, error) {
		var out bytes.Buffer
		wal := NewWAL(&out)
		for _, m := range records {
			if err := wal.write(m); err != nil {
				return nil, err
			}
		}
		return out.Bytes(), nil
	}, nil
}

// FuzzFrameDecode feeds arbitrary bytes to all eight frame decoders, and
// FuzzWALDecode to the WAL reader, under the harness every wire decoder
// shares (wiretest.Check): an error or a value that re-encodes to exactly
// the input, no panic, and allocation within 20x the input.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameVersion})
	f.Add([]byte{frameVersion, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10}) // 2^32 floats announced
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range frameKinds {
			m := k.new()
			wiretest.Check(t, data, k.name, func(data []byte) (func() ([]byte, error), error) {
				return func() ([]byte, error) { return encodeFrame(m) }, decodeFrame(data, m)
			})
		}
	})
}

func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})                                    // a non-minimal record length
	f.Add([]byte{5, frameVersion, 0, 0, 0x80, 0x80, 0x80, 0x80}) // a record cut short
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Check(t, data, "wal", decodeWAL) })
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/Fuzz{Frame,WAL}Decode from a fresh 20-step run")

// captureCorpus runs Bitcoin × TGCN for 20 steps on two codec replicas and
// keeps the smallest frame of every shape the protocol produces there, and
// replica 0's WAL: its header alone, and with its first three batches.
func captureCorpus(t *testing.T) (frames, wal map[string][]byte) {
	t.Helper()
	d, err := workload.ByName("Bitcoin", workload.GenConfig{Seed: 1, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamgnn.NewEngine(d.FeatDim, streamgnn.Config{
		Model: "TGCN", Strategy: "full", Hidden: 4, Seed: 1, WindowSteps: d.WindowSteps,
		IncrementalForward: true, Shards: 2, Interval: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames = map[string][]byte{}
	var mu sync.Mutex // the two shards' RPCs run side by side
	keep := func(name string, frame []byte) {
		mu.Lock()
		defer mu.Unlock()
		if old, ok := frames[name]; !ok || len(frame) < len(old) {
			frames[name] = append([]byte(nil), frame...)
		}
	}
	tap := func(_ int, kind string, frame []byte) []byte {
		m := newFrameMessage(t, kind)
		if err := decodeFrame(frame, m); err != nil {
			t.Errorf("%s: %v", kind, err)
			return frame
		}
		switch m := m.(type) {
		case *ForwardRequest:
			switch {
			case m.Sync != nil:
				kind += "-sync"
			case m.Patch != nil:
				kind += "-patch"
			}
		case *PublishRequest:
			if m.Full {
				kind += "-full"
			} else {
				kind += "-rows"
			}
		case *AnswerResponse:
			for _, a := range m.Answers {
				if a.Err != "" {
					kind += "-error"
					break
				}
			}
		}
		keep(kind, frame)
		return frame
	}
	reps := []*Replica{NewReplica(), NewReplica()}
	var log recordLog
	reps[0].SetWAL(NewWAL(&log))
	coord, err := NewCoordinator(eng, codecFactory(tap)(t, reps))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range d.Queries {
		q := q
		err := eng.AddQuery(streamgnn.Query{Name: q.Name, Anchors: q.Anchors, Delta: q.Delta, Threshold: q.Threshold,
			Labeler: func(anchor, step int) (float64, bool) { return q.Labeler(eng.Graph(), anchor, step) }})
		if err != nil {
			t.Fatal(err)
		}
	}
	remotes := coord.RemoteAnswerers()
	for _, b := range d.Batches {
		if err := coord.RouteEvents(b.Step, b.Events); err != nil {
			t.Fatal(err)
		}
		applyEvents(eng, b.Events)
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		coord.PublishStep(b.Step)
		for s := range remotes {
			// One anchor that exists and one far outside the matrix, whose
			// answer carries an error string.
			remotes[s]([]query.Request{{Kind: query.KindEvent, Anchor: s}, {Kind: query.KindEvent, Anchor: 1 << 20}})
		}
	}
	if len(log) < 4 {
		t.Fatalf("replica 0 logged %d records, want a header and three batches", len(log))
	}
	wal = map[string][]byte{"header": log[0], "header-3-batches": bytes.Join(log[:4], nil)}
	return frames, wal
}

// recordLog keeps each WAL record it is written as one element.
type recordLog [][]byte

func (l *recordLog) Write(p []byte) (int, error) {
	*l = append(*l, append([]byte(nil), p...))
	return len(p), nil
}

// The committed seed corpora are the frames and the WAL of that run. They
// must still decode: a change to the frame layout fails here until the
// corpora are regenerated with -update-corpus (and frameVersion has been
// raised).
func TestFuzzCorpusDecodes(t *testing.T) {
	shapes := []string{"hello-req", "hello-resp", "forward-req-sync", "forward-req-patch", "forward-resp",
		"publish-req-full", "publish-req-rows", "publish-resp", "answer-req", "answer-resp-error"}
	if *updateCorpus {
		frames, wal := captureCorpus(t)
		for _, name := range shapes {
			if _, ok := frames[name]; !ok {
				t.Fatalf("the run produced no %s frame", name)
			}
		}
		writeCorpus(t, "FuzzFrameDecode", frames, shapes)
		writeCorpus(t, "FuzzWALDecode", wal, []string{"header", "header-3-batches"})
	}
	for _, name := range shapes {
		if err := decodeFrame(readSeed(t, "FuzzFrameDecode", name), newFrameMessage(t, name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"header", "header-3-batches"} {
		if err := NewReplica().ReplayWAL(bytes.NewReader(readSeed(t, "FuzzWALDecode", name))); err != nil {
			t.Fatalf("WAL %s: %v", name, err)
		}
	}
}

func writeCorpus(t *testing.T, target string, seeds map[string][]byte, names []string) {
	t.Helper()
	dir := filepath.Join("testdata/fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seeds[name])
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readSeed(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata/fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	var seed []byte
	if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\n[]byte(%q)", &seed); err != nil {
		t.Fatalf("%s/%s: not a one-value corpus file: %v", target, name, err)
	}
	return seed
}
