package cluster

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"streamgnn"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/obs"
	"streamgnn/internal/query"
	"streamgnn/internal/shard"
	"streamgnn/internal/stream"
)

// Coordinator owns the authoritative Engine and drives one replica per
// shard over a Transport. It implements streamgnn.ShardForwarder: the
// engine keeps computing everything P-dependent-free (dirty sets, regions,
// fallback decisions, training, workload), and the coordinator farms out
// only the per-shard region forwards, folding the returned embedding and
// state rows back so the engine's model stays the single source of truth.
//
// Failure handling is fallback-first: any transport error marks the replica
// down and the coordinator runs that part locally via dgnn.ForwardPart —
// the in-process code path, so results never change, only where they are
// computed. Delivery is at-least-once: every routed event batch stays in a
// per-replica outbox until the replica acknowledges it (dedup by step on
// the replica), and a reconnecting replica is brought current with a fresh
// Hello, outbox redelivery and a full model sync.
//
// The coordinator is driven from the step loop (RouteEvents before the
// engine step, PublishStep after) and is not itself goroutine-safe, with
// one deliberate exception: the serving fan-out path (Route/RemoteAnswerers)
// touches only atomics and the transports, so query serving never contends
// with stepping.
type Coordinator struct {
	eng    *streamgnn.Engine
	g      *graph.Dynamic
	model  dgnn.Model
	sh     *shard.Sharding
	hidden int
	base   ReplicaConfig // template; Shard is filled per replica

	trans []Transport
	reps  []repState

	stateVersion uint64
	headsVersion uint64
	// stepChanged collects the ids committed by the current step's sharded
	// forward; PublishStep turns them into the incremental serving delta.
	stepChanged []int

	tele coordTelemetry
}

type repState struct {
	connected atomic.Bool
	needFull  bool
	serveFull bool
	sentHeads uint64
	pending   []int // ids committed since the replica's last sync/patch
	outbox    []StepEvents
	// pruned is the last step dropped from outbox as acknowledged (-1 none),
	// lowered again when RouteEvents re-routes history: a replica reporting
	// less has lost batches only a re-route can give back.
	pruned int
}

// serveStep is the step whose serving snapshot replicas currently mirror;
// read by the answer fan-out concurrently with the step loop.
type coordTelemetry struct {
	serveStep atomic.Int64

	forwardRPCs    obs.Counter
	forwardErrors  obs.Counter
	localFallbacks obs.Counter
	fullSyncs      obs.Counter
	patches        obs.Counter
	patchRows      obs.Counter
	publishes      obs.Counter
	publishErrors  obs.Counter
	remoteAnswers  obs.Counter
	answerErrors   obs.Counter
	reconnects     obs.Counter

	forwardLatency *obs.Histogram
	publishLatency *obs.Histogram
	answerLatency  *obs.Histogram

	ownedEvents []int64 // per replica, atomic
	haloEvents  []int64 // per replica, atomic
	lastApplied []int64 // per replica, atomic: last acked event step
	outboxLen   []int64 // per replica, atomic
}

// NewCoordinator wraps eng — a sharded engine (Config.Shards == len(trans))
// — and installs itself as the engine's shard forwarder. The model must
// support distribution: per-node recurrent state only (dgnn.StatePregrower;
// EvolveGCN's per-step weight dynamics cannot be mirrored row-wise).
func NewCoordinator(eng *streamgnn.Engine, trans []Transport) (*Coordinator, error) {
	g := eng.Graph()
	sh := g.Sharding()
	if sh == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a sharded engine (Config.Shards > 1)")
	}
	if sh.P != len(trans) {
		return nil, fmt.Errorf("cluster: engine has %d shards, got %d replica transports", sh.P, len(trans))
	}
	model := eng.Model()
	if _, ok := model.(dgnn.StatePregrower); !ok {
		return nil, fmt.Errorf("cluster: model %s cannot be distributed (per-step weight dynamics on the committed path)", model.Name())
	}
	cfg := eng.Config()
	c := &Coordinator{
		eng:    eng,
		g:      g,
		model:  model,
		sh:     sh,
		hidden: model.Hidden(),
		base: ReplicaConfig{
			Shards:      sh.P,
			Layout:      sh.Layout.String(),
			Model:       cfg.Model,
			Hidden:      cfg.Hidden,
			FeatDim:     g.FeatDim(),
			WindowSteps: cfg.WindowSteps,
		},
		trans:        trans,
		reps:         make([]repState, sh.P),
		stateVersion: 1,
		headsVersion: 1,
	}
	for r := range c.reps {
		c.reps[r].needFull = true
		c.reps[r].serveFull = true
		c.reps[r].pruned = -1
	}
	c.tele.serveStep.Store(-1)
	c.tele.forwardLatency = obs.NewHistogram(obs.DefaultLatencyBuckets())
	c.tele.publishLatency = obs.NewHistogram(obs.DefaultLatencyBuckets())
	c.tele.answerLatency = obs.NewHistogram(obs.DefaultLatencyBuckets())
	c.tele.ownedEvents = make([]int64, sh.P)
	c.tele.haloEvents = make([]int64, sh.P)
	c.tele.lastApplied = make([]int64, sh.P)
	for s := range c.tele.lastApplied {
		c.tele.lastApplied[s] = -1
	}
	c.tele.outboxLen = make([]int64, sh.P)
	if err := eng.SetShardForwarder(c); err != nil {
		return nil, err
	}
	return c, nil
}

// SetTransport swaps the transport for one shard (a replica restarted at a
// new address) and marks the replica down so the next contact renegotiates.
func (c *Coordinator) SetTransport(s int, t Transport) {
	c.trans[s] = t
	c.markDown(s)
}

// RouteEvents replicates one step's event batch to every replica outbox.
// Full replication is the halo rule taken to its closure: region parts are
// connected components that may span shards, and subgraph normalization
// reads global degrees, so every replica needs the whole event stream; the
// owned/halo split is accounted per replica for telemetry (see DESIGN.md
// §17). Call it for every step batch, before the engine step that consumes
// it — including during resume fast-forward, so replicas behind a restarted
// coordinator are redelivered the replayed history (they dedup by step).
// The outbox holds events itself until every replica acknowledged them, so
// the caller must not change them afterwards.
func (c *Coordinator) RouteEvents(step int, events []stream.Event) error {
	if len(events) == 0 {
		return nil
	}
	for _, ev := range events {
		if _, ok := eventKind(ev); !ok {
			return fmt.Errorf("cluster: cannot route stream event %T", ev)
		}
	}
	// Owned/halo accounting: an event is "owned" by every replica holding
	// one of the nodes it touches, halo traffic for the rest.
	nextID := c.g.N()
	scratch := make([]int, 0, 2)
	ownerHit := make([]bool, c.sh.P)
	for _, ev := range events {
		scratch = touches(ev, nextID, scratch[:0])
		if _, ok := ev.(stream.AddNode); ok {
			nextID++
		}
		for r := range ownerHit {
			ownerHit[r] = false
		}
		for _, v := range scratch {
			ownerHit[c.sh.Of(v)] = true
		}
		for r := range ownerHit {
			if ownerHit[r] {
				atomic.AddInt64(&c.tele.ownedEvents[r], 1)
			} else {
				atomic.AddInt64(&c.tele.haloEvents[r], 1)
			}
		}
	}
	batch := StepEvents{Step: step, Events: events}
	for r := range c.reps {
		// Re-routed history: from this step on the outbox holds it again.
		c.reps[r].pruned = min(c.reps[r].pruned, step-1)
		c.reps[r].outbox = append(c.reps[r].outbox, batch)
		atomic.StoreInt64(&c.tele.outboxLen[r], int64(len(c.reps[r].outbox)))
	}
	return nil
}

// hello (re)opens the session with replica s: prune the outbox to what the
// replica already holds and schedule a full model sync plus a full serving
// publish — reconnects never assume any mirror survived. A replica whose
// mirror ends before batches this outbox already dropped (restarted without
// its WAL, history not re-routed) could apply none of what follows: it stays
// down and its parts run locally.
func (c *Coordinator) hello(s int) bool {
	cfg := c.base
	cfg.Shard = s
	resp, err := c.trans[s].Hello(HelloRequest{Config: cfg})
	if err != nil || resp.LastApplied < c.reps[s].pruned {
		c.reps[s].connected.Store(false)
		return false
	}
	c.pruneOutbox(s, resp.LastApplied)
	c.reps[s].needFull = true
	c.reps[s].serveFull = true
	c.reps[s].sentHeads = 0
	c.reps[s].connected.Store(true)
	c.tele.reconnects.Inc()
	return true
}

func (c *Coordinator) pruneOutbox(s, lastApplied int) {
	ob := c.reps[s].outbox
	keep := 0
	for keep < len(ob) && ob[keep].Step <= lastApplied {
		keep++
	}
	if keep > 0 {
		c.reps[s].pruned = max(c.reps[s].pruned, ob[keep-1].Step)
		c.reps[s].outbox = append([]StepEvents(nil), ob[keep:]...)
	}
	atomic.StoreInt64(&c.tele.outboxLen[s], int64(len(c.reps[s].outbox)))
	atomic.StoreInt64(&c.tele.lastApplied[s], int64(lastApplied))
}

func (c *Coordinator) markDown(s int) {
	c.reps[s].connected.Store(false)
	c.reps[s].needFull = true
	c.reps[s].serveFull = true
}

// ForwardShards implements streamgnn.ShardForwarder in three phases. Phase
// one (serial) prepares every request: state buffers are pregrown for the
// whole graph, and each replica's sync or patch is gathered from the
// model's live state *before any part runs* — at this point live state
// equals the BeginStep snapshot, which is exactly the state the replica
// must forward from. Phase two (parallel) issues the RPCs, with local
// dgnn.ForwardPart fallbacks for down replicas running on workers exactly
// like the in-process fan-out. Phase three (serial, shard order) validates
// responses, scatters the returned live state rows into the engine's model,
// and assembles the dgnn.ShardForward results the engine merges; any
// failure inside a response falls back to running that part locally, which
// is always safe because the coordinator holds the full graph and model.
func (c *Coordinator) ForwardShards(step int, parts [][]int, exact []int) []dgnn.ShardForward {
	P := len(parts)
	res := make([]dgnn.ShardForward, P)
	c.stepChanged = append([]int(nil), exact...)
	if pg, ok := c.model.(dgnn.StatePregrower); ok {
		pg.PregrowState(c.g.N())
	}
	sr, hasStateRows := c.model.(dgnn.StateRows)

	// Phase 1: prepare requests serially, before any state moves. A full
	// sync is the same for every replica that needs one: gathered once, and
	// shared read-only (both transports copy on receipt).
	var fullSync *ModelSync
	reqs := make([]*ForwardRequest, P)
	for s := 0; s < P; s++ {
		if len(parts[s]) == 0 {
			res[s].Shard = s
			continue
		}
		if !c.reps[s].connected.Load() && !c.hello(s) {
			continue // phase 2 runs this part locally
		}
		req := &ForwardRequest{
			Step:         step,
			Events:       c.reps[s].outbox,
			StateVersion: c.stateVersion,
			Part:         parts[s],
			Exact:        exact,
		}
		if c.reps[s].needFull {
			if fullSync == nil {
				fullSync = &ModelSync{
					Version: c.stateVersion,
					Params:  dgnn.DumpParams(c.model.Params()),
					States:  c.model.DumpState(),
				}
			}
			req.Sync = fullSync
		} else if hasStateRows && len(c.reps[s].pending) > 0 {
			ids := c.reps[s].pending
			req.Patch = &StatePatch{IDs: ids, States: sr.GatherStateRows(ids)}
		}
		reqs[s] = req
	}

	// Phase 2: remote forwards and local fallbacks in parallel; remote
	// responses do not touch the engine's model until phase 3.
	resps := make([]*ForwardResponse, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for s := 0; s < P; s++ {
		if len(parts[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if reqs[s] == nil {
				res[s] = dgnn.ForwardPart(c.g, c.model, s, parts[s], exact)
				c.tele.localFallbacks.Inc()
				return
			}
			t0 := time.Now() //streamlint:ordered-ok RPC latency telemetry; the timestamp never feeds computation
			resp, err := c.trans[s].Forward(*reqs[s])
			c.tele.forwardLatency.ObserveSince(t0)
			c.tele.forwardRPCs.Inc()
			if err != nil {
				errs[s] = err
				return
			}
			resps[s] = &resp
		}(s)
	}
	wg.Wait()

	// Phase 3: fold results back in shard order.
	for s := 0; s < P; s++ {
		if len(parts[s]) == 0 || reqs[s] == nil {
			continue
		}
		sf, err := c.adoptForward(s, reqs[s], resps[s], errs[s])
		if err != nil {
			c.tele.forwardErrors.Inc()
			c.markDown(s)
			res[s] = dgnn.ForwardPart(c.g, c.model, s, parts[s], exact)
			c.tele.localFallbacks.Inc()
			continue
		}
		res[s] = sf
	}

	// Every replica owes the rows this step committed — its own included
	// (harmless: the values are identical) — until its next sync or patch.
	for s := 0; s < P; s++ {
		c.reps[s].pending = dgnn.MergeSorted(c.reps[s].pending, exact)
	}
	return res
}

// adoptForward validates one replica's forward response, scatters its state
// rows into the engine's model, and returns the merged ShardForward. The
// validation runs before any mutation, so a bad response leaves the model
// untouched for the local fallback.
func (c *Coordinator) adoptForward(s int, req *ForwardRequest, resp *ForwardResponse, rpcErr error) (dgnn.ShardForward, error) {
	if rpcErr != nil {
		return dgnn.ShardForward{}, rpcErr
	}
	want := dgnn.IntersectSorted(req.Exact, req.Part)
	if resp.Shard != s || len(resp.IDs) != len(want) {
		return dgnn.ShardForward{}, fmt.Errorf("cluster: shard %d returned %d rows, part holds %d exact rows", resp.Shard, len(resp.IDs), len(want))
	}
	for i := range want {
		if resp.IDs[i] != want[i] {
			return dgnn.ShardForward{}, fmt.Errorf("cluster: shard %d returned row id %d, want %d", s, resp.IDs[i], want[i])
		}
	}
	out, err := resp.Out.Matrix()
	if err != nil {
		return dgnn.ShardForward{}, err
	}
	if out.Rows != len(want) || out.Cols != c.hidden {
		return dgnn.ShardForward{}, fmt.Errorf("cluster: shard %d embedding payload %dx%d, want %dx%d", s, out.Rows, out.Cols, len(want), c.hidden)
	}
	if sr, ok := c.model.(dgnn.StateRows); ok {
		if err := sr.ScatterStateRows(resp.IDs, resp.StateRows); err != nil {
			return dgnn.ShardForward{}, err
		}
	} else if len(resp.StateRows) != 0 {
		return dgnn.ShardForward{}, fmt.Errorf("cluster: stateless model %s returned %d state matrices", c.model.Name(), len(resp.StateRows))
	}
	// Bookkeeping: the replica is now current through this sync/patch.
	c.pruneOutbox(s, resp.LastApplied)
	c.reps[s].needFull = false
	c.reps[s].pending = nil
	if req.Sync != nil {
		c.tele.fullSyncs.Inc()
	} else if req.Patch != nil {
		c.tele.patches.Inc()
		c.tele.patchRows.Add(int64(len(req.Patch.IDs)))
	}
	rows := make([]int, len(resp.IDs))
	for i := range rows {
		rows[i] = i
	}
	return dgnn.ShardForward{Shard: s, IDs: resp.IDs, Rows: rows, Out: out}, nil
}

// InvalidateMirrors implements streamgnn.ShardForwarder: training moved the
// parameters (or a full forward rewrote every state row), so every model
// mirror, state patch baseline and serving mirror is stale.
func (c *Coordinator) InvalidateMirrors() {
	c.stateVersion++
	c.headsVersion++
	for s := range c.reps {
		c.reps[s].needFull = true
		c.reps[s].serveFull = true
		c.reps[s].pending = nil
	}
}

// PublishStep pushes the engine's post-step serving snapshot to every
// replica's serving mirror: the rows this step's forward committed (or the
// whole matrix after a full forward, invalidation or reconnect), the heads
// when their version moved, plus the event outbox so replicas stay fresh
// even on steps their shard sat out. Call it after every Engine.Step.
// Replica failures only mark the replica down — serving falls back to the
// coordinator, never blocks the stream.
func (c *Coordinator) PublishStep(step int) {
	snap := c.eng.QuerySnapshot()
	if snap == nil {
		return
	}
	emb := snap.Emb()
	heads := snap.Heads()
	changed := c.stepChanged
	c.stepChanged = nil
	var headDumps []dgnn.StateDump
	var fullRows dgnn.StateDump // identical for every replica due a full publish
	var wg sync.WaitGroup
	P := c.sh.P
	reqs := make([]*PublishRequest, P)
	for s := 0; s < P; s++ {
		if !c.reps[s].connected.Load() && !c.hello(s) {
			continue
		}
		req := &PublishRequest{
			Step:         step,
			Events:       c.reps[s].outbox,
			N:            emb.Rows,
			HeadsVersion: c.headsVersion,
		}
		if c.reps[s].serveFull {
			req.Full = true
			if fullRows.Data == nil {
				fullRows = dgnn.DumpMatrix(emb)
			}
			req.Rows = fullRows
		} else {
			req.IDs = changed
			req.Rows = dgnn.StateDump{Rows: len(changed), Cols: c.hidden, Data: make([]float64, len(changed)*c.hidden)}
			for k, id := range changed {
				copy(req.Rows.Data[k*c.hidden:(k+1)*c.hidden], emb.Row(id))
			}
		}
		if c.reps[s].sentHeads != c.headsVersion {
			if headDumps == nil {
				headDumps = dgnn.DumpParams(heads.Params())
			}
			req.Heads = headDumps
		}
		reqs[s] = req
	}
	resps := make([]*PublishResponse, P)
	errs := make([]error, P)
	for s := 0; s < P; s++ {
		if reqs[s] == nil {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			t0 := time.Now() //streamlint:ordered-ok RPC latency telemetry; the timestamp never feeds computation
			resp, err := c.trans[s].Publish(*reqs[s])
			c.tele.publishLatency.ObserveSince(t0)
			if err != nil {
				errs[s] = err
				return
			}
			resps[s] = &resp
		}(s)
	}
	wg.Wait()
	for s := 0; s < P; s++ {
		if reqs[s] == nil {
			continue
		}
		if errs[s] != nil {
			c.tele.publishErrors.Inc()
			c.markDown(s)
			continue
		}
		c.tele.publishes.Inc()
		c.pruneOutbox(s, resps[s].LastApplied)
		c.reps[s].serveFull = false
		c.reps[s].sentHeads = c.headsVersion
	}
	c.tele.serveStep.Store(int64(step))
}

// Route decides where a predictive query is answered: event queries go to
// the replica owning the anchor, everything else (link pairs span shards,
// density needs the coordinator's KDE state) stays local. Lock-free — safe
// on serving goroutines (serve.Router for serve.NewFanout).
func (c *Coordinator) Route(req query.Request) int {
	if req.Kind != query.KindEvent || req.Anchor < 0 {
		return -1
	}
	s := c.sh.Of(req.Anchor)
	if !c.reps[s].connected.Load() {
		return -1
	}
	return s
}

// RemoteAnswerers returns one serve.Answerer-shaped function per replica,
// for serve.NewFanout. Each pins the coordinator's last published step, so
// a lagging replica refuses and the batch falls back to the local answerer
// — remote serving is an accelerator, never a source of different answers.
// A transport error returns nil (fan-out falls back locally) without
// touching replica state: the step loop owns reconnection.
func (c *Coordinator) RemoteAnswerers() []func([]query.Request) []query.Answer {
	out := make([]func([]query.Request) []query.Answer, c.sh.P)
	for s := range out {
		out[s] = func(reqs []query.Request) []query.Answer {
			step := c.tele.serveStep.Load()
			if step < 0 || !c.reps[s].connected.Load() {
				return nil
			}
			t0 := time.Now() //streamlint:ordered-ok RPC latency telemetry; the timestamp never feeds computation
			resp, err := c.trans[s].Answer(AnswerRequest{Step: int(step), Reqs: reqs})
			c.tele.answerLatency.ObserveSince(t0)
			if err != nil {
				c.tele.answerErrors.Inc()
				return nil
			}
			answers := make([]query.Answer, len(resp.Answers))
			for i, a := range resp.Answers {
				answers[i] = query.Answer{Score: a.Score[0], OK: a.OK, Err: a.Err}
			}
			c.tele.remoteAnswers.Add(int64(len(reqs)))
			return answers
		}
	}
	return out
}

// WriteMetrics appends the streamgnn_cluster_* metric family in Prometheus
// text format: RPC and fallback counters, sync/patch traffic, per-replica
// owned/halo event replication, per-replica lag and outbox depth, and the
// three fan-out latency histograms. Counters and gauges are atomics, so
// this is safe to call from the /metrics handler while the step loop runs.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	t := &c.tele
	obs.WriteGauge(w, "streamgnn_cluster_replicas", "Configured shard replicas.", obs.Value(c.sh.P))
	obs.WriteCounter(w, "streamgnn_cluster_forward_rpcs_total", "Forward RPCs issued to replicas.", obs.Value(t.forwardRPCs.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_forward_errors_total", "Forward RPCs that failed or returned invalid results.", obs.Value(t.forwardErrors.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_local_fallbacks_total", "Shard parts the coordinator ran locally (replica down or failed).", obs.Value(t.localFallbacks.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_full_syncs_total", "Full model-mirror syncs shipped to replicas.", obs.Value(t.fullSyncs.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_state_patches_total", "Incremental state-row patches shipped to replicas.", obs.Value(t.patches.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_state_patch_rows_total", "State rows shipped in incremental patches.", obs.Value(t.patchRows.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_publishes_total", "Serving-snapshot publishes delivered to replicas.", obs.Value(t.publishes.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_publish_errors_total", "Serving-snapshot publishes that failed.", obs.Value(t.publishErrors.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_remote_answers_total", "Predictive queries answered by replicas via fan-out.", obs.Value(t.remoteAnswers.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_answer_errors_total", "Answer fan-out calls that fell back to local serving.", obs.Value(t.answerErrors.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_reconnects_total", "Successful Hello handshakes (first connects included).", obs.Value(t.reconnects.Value()))
	obs.WriteCounter(w, "streamgnn_cluster_events_owned_total", "Replicated events touching a node the replica owns.", obs.Indexed("replica", atomicSnapshot(t.ownedEvents))...)
	obs.WriteCounter(w, "streamgnn_cluster_events_halo_total", "Replicated events that are pure halo traffic for the replica.", obs.Indexed("replica", atomicSnapshot(t.haloEvents))...)
	serveStep := t.serveStep.Load()
	lags := make([]int64, c.sh.P)
	for s := range lags {
		if serveStep >= 0 {
			lags[s] = serveStep - atomic.LoadInt64(&t.lastApplied[s])
		}
	}
	obs.WriteGauge(w, "streamgnn_cluster_replica_lag_steps", "Steps between the last published step and the replica's last applied event batch.", obs.Indexed("replica", lags)...)
	obs.WriteGauge(w, "streamgnn_cluster_outbox_batches", "Unacknowledged event batches queued per replica.", obs.Indexed("replica", atomicSnapshot(t.outboxLen))...)
	obs.WriteHistogram(w, "streamgnn_cluster_forward_latency_seconds", "Forward RPC latency, including requests that failed.", obs.Series{Snapshot: t.forwardLatency.Snapshot()})
	obs.WriteHistogram(w, "streamgnn_cluster_publish_latency_seconds", "Serving-snapshot publish RPC latency, including requests that failed.", obs.Series{Snapshot: t.publishLatency.Snapshot()})
	obs.WriteHistogram(w, "streamgnn_cluster_answer_latency_seconds", "Answer fan-out RPC latency, including requests that failed.", obs.Series{Snapshot: t.answerLatency.Snapshot()})
}

func atomicSnapshot(vals []int64) []int64 {
	out := make([]int64, len(vals))
	for i := range vals {
		out[i] = atomic.LoadInt64(&vals[i])
	}
	return out
}
