package cluster

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"streamgnn"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
)

// testStream mirrors the root package's sharding-equality stream through
// stream.Event values, so the identical mutation sequence can drive an
// in-process engine and a clustered one from the same source of truth.
type testStream struct{ n int }

func (d testStream) eventsFor(s int) []stream.Event {
	var evs []stream.Event
	if s == 0 {
		for i := 0; i < d.n; i++ {
			evs = append(evs, stream.AddNode{Feat: []float64{float64(i % 3), 0, 1}})
		}
		for i := 0; i < d.n; i++ {
			evs = append(evs, stream.SetLabel{V: i, Label: float64(i % 2)})
		}
		for i := 0; i < d.n; i++ {
			evs = append(evs,
				stream.AddEdge{U: i, V: (i + 1) % d.n, Label: math.NaN()},
				stream.AddEdge{U: (i + 1) % d.n, V: i, Label: math.NaN()})
		}
	}
	v := (s * 7) % d.n
	evs = append(evs, stream.SetFeature{V: v, Feat: []float64{float64(s%5) * 0.2, 1, 1}})
	if s%3 == 0 {
		evs = append(evs, stream.AddEdge{U: (s * 11) % d.n, V: (s * 13) % d.n, Time: int64(s), Label: math.NaN()})
	}
	return evs
}

func applyEvents(e *streamgnn.Engine, events []stream.Event) {
	for _, ev := range events {
		ev.Apply(e.Graph())
	}
}

func addTestQuery(t *testing.T, e *streamgnn.Engine, n int) {
	t.Helper()
	err := e.AddQuery(streamgnn.Query{
		Name: "act", Anchors: []int{0, n / 2}, Delta: 1, Threshold: 0.5,
		Labeler: func(anchor, step int) (float64, bool) {
			return float64((anchor+step)%2) * 0.8, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func clusterConfig(model string, seed int64, shards int) streamgnn.Config {
	cfg := streamgnn.DefaultConfig()
	cfg.Model = model
	cfg.Strategy = streamgnn.StrategyWeighted
	cfg.Hidden = 8
	cfg.Seed = seed
	cfg.Interval = 25
	cfg.IncrementalForward = true
	cfg.DirtyFullThreshold = 1
	cfg.Shards = shards
	return cfg
}

func sameMatrix(t *testing.T, step int, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("step %d: embedding lengths differ: %d vs %d", step, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: embeddings differ at %d: %v vs %v", step, i, a[i], b[i])
		}
	}
}

// harness is a coordinator engine wired to shard replicas over some
// transport, stepped in lockstep with a plain in-process sharded engine.
type harness struct {
	flat  *streamgnn.Engine // reference: in-process shards=P
	eng   *streamgnn.Engine // the coordinator's engine, same config
	coord *Coordinator
	reps  []*Replica
	d     testStream
}

type transportFactory func(t *testing.T, reps []*Replica) []Transport

func loopbackFactory(t *testing.T, reps []*Replica) []Transport {
	trans := make([]Transport, len(reps))
	for s := range reps {
		trans[s] = &Loopback{R: reps[s]}
	}
	return trans
}

func httpFactory(t *testing.T, reps []*Replica) []Transport {
	trans := make([]Transport, len(reps))
	for s := range reps {
		srv := httptest.NewServer(NewHTTPHandler(reps[s]))
		t.Cleanup(srv.Close)
		trans[s] = &HTTPTransport{Base: srv.URL}
	}
	return trans
}

func newHarness(t *testing.T, model string, seed int64, n, shards int, mk transportFactory) *harness {
	t.Helper()
	cfg := clusterConfig(model, seed, shards)
	flat, err := streamgnn.NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamgnn.NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, shards)
	for s := range reps {
		reps[s] = NewReplica()
	}
	coord, err := NewCoordinator(eng, mk(t, reps))
	if err != nil {
		t.Fatal(err)
	}
	return &harness{flat: flat, eng: eng, coord: coord, reps: reps, d: testStream{n: n}}
}

// step advances both runs through stream step s and asserts bit-identical
// serving snapshots.
func (h *harness) step(t *testing.T, s int) {
	t.Helper()
	evs := h.d.eventsFor(s)
	if err := h.coord.RouteEvents(s, evs); err != nil {
		t.Fatal(err)
	}
	applyEvents(h.flat, evs)
	applyEvents(h.eng, evs)
	if s == 0 {
		addTestQuery(t, h.flat, h.d.n)
		addTestQuery(t, h.eng, h.d.n)
	}
	if err := h.flat.Step(); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Step(); err != nil {
		t.Fatal(err)
	}
	h.coord.PublishStep(s)
	a, b := h.flat.QuerySnapshot(), h.eng.QuerySnapshot()
	if a == nil || b == nil {
		t.Fatalf("step %d: missing serving snapshot", s)
	}
	sameMatrix(t, s, a.Emb().Data, b.Emb().Data)
}

// checkRemoteServing answers event queries through the replica fan-out and
// asserts bit-equality with the coordinator's own snapshot answers.
func (h *harness) checkRemoteServing(t *testing.T, step int) {
	t.Helper()
	reqs := []query.Request{
		{Kind: query.KindEvent, Anchor: 0},
		{Kind: query.KindEvent, Anchor: h.d.n / 2},
		{Kind: query.KindEvent, Anchor: h.d.n - 1},
	}
	snap := h.eng.QuerySnapshot()
	want := snap.Answer(reqs, nil)
	remotes := h.coord.RemoteAnswerers()
	for i, r := range reqs {
		s := h.coord.Route(r)
		if s < 0 {
			continue
		}
		got := remotes[s]([]query.Request{r})
		if got == nil {
			t.Fatalf("step %d: replica %d refused to answer anchor %d", step, s, r.Anchor)
		}
		if got[0] != want[i] {
			t.Fatalf("step %d: remote answer %+v != local %+v", step, got[0], want[i])
		}
	}
	// Link and density queries always stay on the coordinator.
	if s := h.coord.Route(query.Request{Kind: query.KindLink, Src: 0, Dst: 1}); s != -1 {
		t.Fatalf("link query routed to replica %d, want local", s)
	}
	if s := h.coord.Route(query.Request{Kind: query.KindDensity, Node: 0}); s != -1 {
		t.Fatalf("density query routed to replica %d, want local", s)
	}
}

func (h *harness) finish(t *testing.T) {
	t.Helper()
	o1, o2 := h.flat.Outcomes(), h.eng.Outcomes()
	if fmt.Sprintf("%+v", o1) != fmt.Sprintf("%+v", o2) {
		t.Fatal("query outcomes diverged between in-process and clustered runs")
	}
	m1, m2 := h.flat.Metrics(), h.eng.Metrics()
	if fmt.Sprintf("%+v", m1) != fmt.Sprintf("%+v", m2) {
		t.Fatalf("metrics diverged:\n  in-process: %+v\n  clustered:  %+v", m1, m2)
	}
}

// The tentpole guarantee: a coordinator driving 2 loopback replicas is
// bit-identical to the in-process shards=2 engine over a 200-step seeded
// stream — embeddings every step, remote answers every step, and the query
// outcomes and metrics at the end. Training every 25 steps makes the
// equality survive mirror invalidation and full resyncs.
func TestClusterLoopbackBitEquality200(t *testing.T) {
	h := newHarness(t, "WinGNN", 7, 80, 2, loopbackFactory)
	for s := 0; s < 200; s++ {
		h.step(t, s)
		h.checkRemoteServing(t, s)
	}
	h.finish(t)
	if v := h.coord.tele.forwardRPCs.Value(); v == 0 {
		t.Fatal("no forward RPCs issued; test proved nothing")
	}
	if v := h.coord.tele.localFallbacks.Value(); v != 0 {
		t.Fatalf("%d local fallbacks in a healthy cluster", v)
	}
	for s, r := range h.reps {
		st := r.Stats()
		if st.Forwards == 0 || st.Publishes == 0 || st.Answers == 0 {
			t.Fatalf("replica %d sat idle: %+v", s, st)
		}
		if st.HaloEvents == 0 {
			t.Fatalf("replica %d saw no halo traffic; replication rule untested", s)
		}
	}
}

// The same equality for a recurrent model: TGCN's per-node state rows are
// mirrored by full syncs and row patches, and the advanced rows the replicas
// return must land back in the coordinator's model bit-exactly.
func TestClusterLoopbackRecurrent200(t *testing.T) {
	h := newHarness(t, "TGCN", 11, 60, 2, loopbackFactory)
	for s := 0; s < 200; s++ {
		h.step(t, s)
		if s%10 == 0 {
			h.checkRemoteServing(t, s)
		}
	}
	h.finish(t)
	var patches int64
	for _, r := range h.reps {
		patches += r.Stats().Patches
	}
	if patches == 0 {
		t.Fatal("no state-row patches shipped; the incremental mirror path never ran")
	}
}

// The localhost HTTP transport is held to the same bar: framing every
// payload (floats as raw IEEE-754 words) must not perturb a single bit over
// 200 steps, for a memoryless and a recurrent model.
func TestClusterHTTPBitEquality200(t *testing.T) {
	for _, model := range []string{"WinGNN", "TGCN"} {
		t.Run(model, func(t *testing.T) {
			h := newHarness(t, model, 7, 48, 2, httpFactory)
			for s := 0; s < 200; s++ {
				h.step(t, s)
				if s%25 == 0 {
					h.checkRemoteServing(t, s)
				}
			}
			h.finish(t)
		})
	}
}

// Three replicas and the range layout: the coordinator must be agnostic to
// both the shard count and the partition function.
func TestClusterThreeReplicasRangeLayout(t *testing.T) {
	cfg := clusterConfig("WinGNN", 5, 3)
	cfg.ShardLayout = "range"
	flat, err := streamgnn.NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamgnn.NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, 3)
	for s := range reps {
		reps[s] = NewReplica()
	}
	coord, err := NewCoordinator(eng, loopbackFactory(t, reps))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{flat: flat, eng: eng, coord: coord, reps: reps, d: testStream{n: 64}}
	for s := 0; s < 60; s++ {
		h.step(t, s)
	}
	h.finish(t)
}

// A replica failing mid-stream degrades to local execution without touching
// a bit: the coordinator falls back to in-process ForwardPart for the dead
// shard, then resyncs the replica when it comes back.
func TestClusterReplicaFailureFallback(t *testing.T) {
	h := newHarness(t, "TGCN", 13, 48, 2, loopbackFactory)
	failing := false
	h.coord.trans[0].(*Loopback).Fail = func(op string) error {
		if failing {
			return fmt.Errorf("injected %s failure", op)
		}
		return nil
	}
	for s := 0; s < 120; s++ {
		if s == 40 {
			failing = true
		}
		if s == 80 {
			failing = false
		}
		h.step(t, s)
	}
	h.finish(t)
	if v := h.coord.tele.localFallbacks.Value(); v == 0 {
		t.Fatal("failure window produced no local fallbacks")
	}
	if !h.coord.reps[0].connected.Load() {
		t.Fatal("replica 0 never reconnected after the failure window")
	}
	if h.reps[0].Stats().FullSyncs < 2 {
		t.Fatal("reconnect did not trigger a fresh full sync")
	}
}

// Kill one replica mid-stream, bring up a fresh process from its WAL alone,
// swap the transport — equality must survive, which is the per-replica
// crash-recovery contract. The WAL's first record configures the new process;
// the model mirror comes back with the reconnect's full sync.
func TestClusterKillReplicaResume(t *testing.T) {
	h := newHarness(t, "TGCN", 17, 48, 2, loopbackFactory)
	var wal bytes.Buffer
	h.reps[1].SetWAL(NewWAL(&wal))
	for s := 0; s < 120; s++ {
		h.step(t, s)
	}

	// "Crash" replica 1 and restart it from its WAL.
	fresh := NewReplica()
	if err := fresh.ReplayWAL(bytes.NewReader(wal.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Config(); got != h.reps[1].Config() {
		t.Fatalf("replayed replica configured as %+v, want %+v", got, h.reps[1].Config())
	}
	if la := fresh.LastApplied(); la != 119 {
		t.Fatalf("WAL replay brought the mirror to step %d, want 119", la)
	}
	syncs := fresh.Stats().FullSyncs
	fresh.SetWAL(NewWAL(&wal))
	h.reps[1] = fresh
	h.coord.SetTransport(1, &Loopback{R: fresh})

	for s := 120; s < 200; s++ {
		h.step(t, s)
		if s%10 == 0 {
			h.checkRemoteServing(t, s)
		}
	}
	h.finish(t)
	if st := fresh.Stats(); st.Forwards == 0 || st.FullSyncs == syncs {
		t.Fatalf("restarted replica never forwarded from a fresh full sync: %+v", st)
	}
}

// The same restart without the WAL and without re-routed history: the new
// process's mirror is empty, the coordinator's outbox no longer holds the
// batches it needs, so the coordinator must stop forwarding to it — its parts
// run locally, answers stay bit-equal, and no batch touches its mirror.
func TestClusterReplicaLostHistoryFallsBack(t *testing.T) {
	h := newHarness(t, "WinGNN", 19, 32, 2, loopbackFactory)
	for s := 0; s < 30; s++ {
		h.step(t, s)
	}
	// Replica 0 owns the ring's parts on this stream; replica 1 rarely does.
	fresh := NewReplica()
	h.reps[0] = fresh
	h.coord.SetTransport(0, &Loopback{R: fresh})
	fallbacks := h.coord.tele.localFallbacks.Value()
	for s := 30; s < 60; s++ {
		h.step(t, s)
		h.checkRemoteServing(t, s)
	}
	h.finish(t)
	if h.coord.tele.localFallbacks.Value() == fallbacks {
		t.Fatal("the replica without history ran no part locally")
	}
	if st := fresh.Stats(); st.EventsApplied != 0 || st.Forwards != 0 || fresh.LastApplied() != -1 {
		t.Fatalf("a replica without history was forwarded to: %+v", st)
	}
}

// A replica restarted with nothing but its checkpoint (WAL lost) is still
// brought current by outbox redelivery alone, because the coordinator keeps
// every unacknowledged batch and re-routes replayed history on resume.
func TestClusterReplicaRestartWithoutWAL(t *testing.T) {
	h := newHarness(t, "WinGNN", 19, 32, 2, loopbackFactory)
	for s := 0; s < 30; s++ {
		h.step(t, s)
	}
	// The outbox was pruned as batches were acknowledged; a fresh unseeded
	// replica therefore needs redelivery from step 0. Simulate a coordinator
	// restart having re-routed history (RouteEvents for every replayed step).
	fresh := NewReplica()
	h.reps[1] = fresh
	h.coord.SetTransport(1, &Loopback{R: fresh})
	for s := 0; s < 30; s++ {
		if err := h.coord.RouteEvents(s, h.d.eventsFor(s)); err != nil {
			t.Fatal(err)
		}
	}
	// Replica 0 deduplicates the replayed batches by step; replica 1 applies
	// them all on its next contact.
	for s := 30; s < 60; s++ {
		h.step(t, s)
	}
	h.finish(t)
	if la := fresh.LastApplied(); la != 59 {
		t.Fatalf("redelivered replica at step %d, want 59", la)
	}
}

// The forwards happen on the replicas, so the rows they covered are counted
// there: together the replicas' demand rows are the flat engine's, depth by
// depth, and the coordinator — which ran no part itself — counts none.
func TestReplicasCountDemandRows(t *testing.T) {
	h := newHarness(t, "TGCN", 7, 24, 2, loopbackFactory)
	for s := 0; s < 12; s++ {
		h.step(t, s)
	}
	var got [3]int64
	for _, r := range h.reps {
		for d, rows := range r.Stats().DemandRows {
			got[d] += rows
		}
	}
	want := h.flat.Telemetry().ForwardDemandRows
	if want[0] == 0 || got != want {
		t.Fatalf("replicas covered %v rows, the in-process engine %v", got, want)
	}
	if own := h.eng.Telemetry().ForwardDemandRows; own != [3]int64{} {
		t.Fatalf("coordinator counted %v rows without a local fallback", own)
	}
}
