package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/query"
	"streamgnn/internal/shard"
	"streamgnn/internal/stream"
	"streamgnn/internal/tensor"
)

// Replica is one shard-replica service: a full graph mirror fed by
// replicated event batches, a model mirror synchronized by the coordinator
// (full syncs after training, row patches between), and a lock-free serving
// mirror (embedding matrix + prediction heads) for fanned-out predictive
// queries. It executes dgnn.ForwardPart for its shard — exactly the
// computation the in-process fan-out runs — so distributed steps stay
// bit-identical to single-process sharded ones.
//
// A replica starts unconfigured; the coordinator's first Hello configures it
// (or validates the configuration its replayed WAL named). Its graph mirror is
// the only state worth recovering — the model and serving mirrors are
// resynchronized in full on every reconnect — so the WAL is its whole recovery
// state. All handlers are safe for concurrent use: Hello/Forward/Publish
// serialize on a mutex, HandleAnswer reads only the atomic serving snapshot.
type Replica struct {
	mu          sync.Mutex
	configured  bool
	cfg         ReplicaConfig
	expectShard int // -1 = accept any shard index from Hello
	g           *graph.Dynamic
	sh          *shard.Sharding
	model       dgnn.Model

	lastApplied  int // last step whose event batch has been applied; -1 none
	stateVersion uint64
	headsVersion uint64
	heads        *query.Heads // current serving heads (immutable once built)

	serving atomic.Pointer[replicaSnapshot]
	// mirror holds the serving rows; each publish writes the rows it carries
	// and freezes a view of them into serving, so it copies the pages it
	// writes, not the mirror.
	mirror *tensor.Paged
	wal    *WAL

	stats replicaCounters
}

// replicaSnapshot is the replica's immutable serving state for one step.
type replicaSnapshot struct {
	step  int
	emb   *tensor.RowView
	heads *query.Heads
}

// ReplicaStats is a point-in-time snapshot of the replica's observability
// counters (Stats()).
type ReplicaStats struct {
	EventsApplied int64
	OwnedEvents   int64
	HaloEvents    int64
	Forwards      int64
	FullSyncs     int64
	Patches       int64
	Publishes     int64
	Answers       int64
	LastApplied   int64
	// DemandRows totals the rows this replica's forwards covered at depth 0
	// (exact), 1 (one hop out) and 2 (its part of the region).
	DemandRows [3]int64
}

// replicaCounters are the live counters behind ReplicaStats; atomic.Int64
// keeps them alignment-safe on 32-bit targets regardless of struct layout.
type replicaCounters struct {
	eventsApplied atomic.Int64
	ownedEvents   atomic.Int64
	haloEvents    atomic.Int64
	forwards      atomic.Int64
	fullSyncs     atomic.Int64
	patches       atomic.Int64
	publishes     atomic.Int64
	answers       atomic.Int64
	lastApplied   atomic.Int64
	demandRows    [3]atomic.Int64
}

// NewReplica returns an unconfigured replica that accepts any shard index;
// the coordinator's first Hello configures it.
func NewReplica() *Replica {
	return &Replica{expectShard: -1, lastApplied: -1}
}

// SetExpectShard pins the shard index this replica will serve: a Hello for
// any other index is rejected (the queryd -replica-id flag).
func (r *Replica) SetExpectShard(s int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expectShard = s
}

// SetWAL attaches a write-ahead log: the configuration the first Hello brings
// is its first line and every applied event batch is appended, so a restarted
// replica rebuilds itself from the log alone (ReplayWAL). Attach after
// ReplayWAL and before the first Hello.
func (r *Replica) SetWAL(w *WAL) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wal = w
}

// Config returns the replica's configuration (zero before configuration).
func (r *Replica) Config() ReplicaConfig {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg
}

// LastApplied returns the last event step applied to the graph mirror.
func (r *Replica) LastApplied() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastApplied
}

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() ReplicaStats {
	var demand [3]int64
	for d := range demand {
		demand[d] = r.stats.demandRows[d].Load()
	}
	return ReplicaStats{
		DemandRows:    demand,
		EventsApplied: r.stats.eventsApplied.Load(),
		OwnedEvents:   r.stats.ownedEvents.Load(),
		HaloEvents:    r.stats.haloEvents.Load(),
		Forwards:      r.stats.forwards.Load(),
		FullSyncs:     r.stats.fullSyncs.Load(),
		Patches:       r.stats.patches.Load(),
		Publishes:     r.stats.publishes.Load(),
		Answers:       r.stats.answers.Load(),
		LastApplied:   r.stats.lastApplied.Load(),
	}
}

// configure builds the mirrors cfg describes and, with a WAL attached, logs
// cfg as its first line. ReplayWAL runs without one, so a configuration read
// from the log is not written back.
func (r *Replica) configure(cfg ReplicaConfig) error {
	if r.expectShard >= 0 && cfg.Shard != r.expectShard {
		return fmt.Errorf("cluster: this replica serves shard %d, asked to serve shard %d", r.expectShard, cfg.Shard)
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return fmt.Errorf("cluster: shard index %d outside [0, %d)", cfg.Shard, cfg.Shards)
	}
	if cfg.Hidden <= 0 || cfg.FeatDim < 0 {
		return fmt.Errorf("cluster: invalid model geometry hidden=%d featdim=%d", cfg.Hidden, cfg.FeatDim)
	}
	layout, err := shard.ParseLayout(cfg.Layout)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	sh, err := shard.New(cfg.Shards, layout)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	kind, err := dgnn.ParseKind(cfg.Model)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if r.wal != nil {
		if err := r.wal.write(&cfg); err != nil {
			return fmt.Errorf("cluster: wal: %w", err)
		}
	}
	// The mirror's initial random parameters are irrelevant: the first
	// Forward always carries a full sync. The rng only fixes shapes.
	r.model = dgnn.New(kind, rand.New(rand.NewSource(1)), cfg.FeatDim, cfg.Hidden)
	r.g = graph.NewDynamic(cfg.FeatDim)
	r.sh = sh
	r.cfg = cfg
	r.configured = true
	return nil
}

// HandleHello implements the Hello RPC: configure on first contact, validate
// configuration equality afterwards, and report how far the mirror is.
func (r *Replica) HandleHello(req HelloRequest) (HelloResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.configured {
		if err := r.configure(req.Config); err != nil {
			return HelloResponse{}, err
		}
	} else if err := req.Config.validateAgainst(r.cfg); err != nil {
		return HelloResponse{}, err
	}
	return HelloResponse{LastApplied: r.lastApplied, StateVersion: r.stateVersion}, nil
}

// applyBatches replays unseen event batches onto the graph mirror, in step
// order, deduplicating by step (at-least-once delivery: the coordinator
// resends its whole outbox until acknowledged). A batch applies whole or not
// at all: every event is checked against the mirror first, counting the
// batch's own node additions, so a batch that references history this mirror
// never saw returns an error and leaves the mirror as it was. Caller holds
// the mutex.
func (r *Replica) applyBatches(batches []StepEvents) error {
	scratch := make([]int, 0, 2)
	for _, b := range batches {
		if b.Step <= r.lastApplied {
			continue
		}
		n := r.g.N()
		for _, ev := range b.Events {
			if _, ok := ev.(stream.AddNode); ok {
				n++
				continue
			}
			for _, v := range touches(ev, n, scratch[:0]) {
				if v < 0 || v >= n {
					return fmt.Errorf("cluster: step %d batch does not apply to the mirror (applied through step %d): %T event names node %d outside [0, %d)",
						b.Step, r.lastApplied, ev, v, n)
				}
			}
		}
		for _, ev := range b.Events {
			scratch = touches(ev, r.g.N(), scratch[:0])
			owned := false
			for _, v := range scratch {
				if r.sh.Of(v) == r.cfg.Shard {
					owned = true
					break
				}
			}
			if owned {
				r.stats.ownedEvents.Add(1)
			} else {
				r.stats.haloEvents.Add(1)
			}
			ev.Apply(r.g)
			r.stats.eventsApplied.Add(1)
		}
		if r.wal != nil {
			if err := r.wal.write(&b); err != nil {
				return fmt.Errorf("cluster: wal append: %w", err)
			}
		}
		r.lastApplied = b.Step
		r.stats.lastApplied.Store(int64(b.Step))
	}
	return nil
}

// HandleForward implements the Forward RPC. The phase order reproduces the
// engine's step exactly: apply pending events, run the sliding-window
// expiry for this step (idempotent — a replica that skipped steps catches up
// with one call), bring the model mirror to the coordinator's pre-step live
// state (full sync or row patch), begin the step (no training forward reads
// a snapshot here, so none is kept), and run the part's committed forward.
// The response carries the committed embedding rows plus, for recurrent
// models, the advanced live state rows at the same ids — everything the
// coordinator needs to stay authoritative.
func (r *Replica) HandleForward(req ForwardRequest) (ForwardResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.configured {
		return ForwardResponse{}, fmt.Errorf("cluster: replica not configured (no Hello yet)")
	}
	if err := r.applyBatches(req.Events); err != nil {
		return ForwardResponse{}, err
	}
	if r.cfg.WindowSteps > 0 {
		r.g.ExpireEdgesBefore(int64(req.Step - r.cfg.WindowSteps + 1))
	}
	switch {
	case req.Sync != nil:
		installParams, err := dgnn.RestoreParams(r.model.Params(), req.Sync.Params)
		if err != nil {
			return ForwardResponse{}, err
		}
		installStates, err := r.model.RestoreState(req.Sync.States)
		if err != nil {
			return ForwardResponse{}, err
		}
		installParams()
		installStates()
		r.stateVersion = req.Sync.Version
		r.stats.fullSyncs.Add(1)
	case req.StateVersion != r.stateVersion:
		return ForwardResponse{}, fmt.Errorf("cluster: model mirror at version %d, coordinator assumes %d (resync needed)",
			r.stateVersion, req.StateVersion)
	case req.Patch != nil:
		sr, ok := r.model.(dgnn.StateRows)
		if !ok {
			return ForwardResponse{}, fmt.Errorf("cluster: model %s cannot apply state-row patches", r.cfg.Model)
		}
		if err := sr.ScatterStateRows(req.Patch.IDs, req.Patch.States); err != nil {
			return ForwardResponse{}, err
		}
		r.stats.patches.Add(1)
	}
	r.model.BeginStep(req.Step)
	dgnn.DropSnapshot(r.model) // a replica runs no training forward to read it
	sf := dgnn.ForwardPart(r.g, r.model, r.cfg.Shard, req.Part, req.Exact)
	resp := ForwardResponse{Shard: r.cfg.Shard, IDs: sf.IDs, LastApplied: r.lastApplied}
	hidden := r.cfg.Hidden
	resp.Out = dgnn.StateDump{Rows: len(sf.IDs), Cols: hidden, Data: make([]float64, len(sf.IDs)*hidden)}
	for k, row := range sf.Rows {
		copy(resp.Out.Data[k*hidden:(k+1)*hidden], sf.Out.Row(row))
	}
	if sr, ok := r.model.(dgnn.StateRows); ok {
		resp.StateRows = sr.GatherStateRows(sf.IDs)
	}
	r.stats.forwards.Add(1)
	for d, rows := range sf.Demand {
		r.stats.demandRows[d].Add(int64(rows))
	}
	return resp, nil
}

// HandlePublish implements the Publish RPC: refresh the serving mirror
// (embedding rows, heads when their version moved) and flush the event
// outbox. The new snapshot is built aside and installed atomically, so
// concurrent HandleAnswer readers keep a consistent view.
func (r *Replica) HandlePublish(req PublishRequest) (PublishResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.configured {
		return PublishResponse{}, fmt.Errorf("cluster: replica not configured (no Hello yet)")
	}
	if err := r.applyBatches(req.Events); err != nil {
		return PublishResponse{}, err
	}
	if req.N < 0 {
		return PublishResponse{}, fmt.Errorf("cluster: publish of %d rows", req.N)
	}
	hidden := r.cfg.Hidden
	heads := r.heads
	if len(req.Heads) > 0 {
		h := query.NewHeads(rand.New(rand.NewSource(1)), hidden)
		install, err := dgnn.RestoreParams(h.Params(), req.Heads)
		if err != nil {
			return PublishResponse{}, err
		}
		install()
		heads = h
		r.heads = h
		r.headsVersion = req.HeadsVersion
	} else if req.HeadsVersion != r.headsVersion || heads == nil {
		return PublishResponse{}, fmt.Errorf("cluster: serving heads at version %d, publish assumes %d", r.headsVersion, req.HeadsVersion)
	}
	if req.Full {
		if req.Rows.Rows != req.N || req.Rows.Cols != hidden || len(req.Rows.Data) != req.N*hidden {
			return PublishResponse{}, fmt.Errorf("cluster: full publish payload %dx%d for %d rows", req.Rows.Rows, req.Rows.Cols, req.N)
		}
		m := tensor.New(req.N, hidden)
		copy(m.Data, req.Rows.Data)
		r.mirror = tensor.PagedFrom(m)
	} else {
		if r.mirror == nil {
			return PublishResponse{}, fmt.Errorf("cluster: incremental publish without a base snapshot")
		}
		if r.mirror.Rows() > req.N {
			return PublishResponse{}, fmt.Errorf("cluster: publish shrinks the snapshot (%d -> %d rows)", r.mirror.Rows(), req.N)
		}
		if req.Rows.Rows != len(req.IDs) || req.Rows.Cols != hidden || len(req.Rows.Data) != len(req.IDs)*hidden {
			return PublishResponse{}, fmt.Errorf("cluster: publish payload %dx%d for %d changed rows", req.Rows.Rows, req.Rows.Cols, len(req.IDs))
		}
		for _, id := range req.IDs {
			if id < 0 || id >= req.N {
				return PublishResponse{}, fmt.Errorf("cluster: published row %d outside [0, %d)", id, req.N)
			}
		}
		r.mirror.Grow(req.N)
		for k, id := range req.IDs {
			r.mirror.SetRow(id, req.Rows.Data[k*hidden:(k+1)*hidden])
		}
	}
	r.serving.Store(&replicaSnapshot{step: req.Step, emb: r.mirror.Freeze(), heads: heads})
	r.stats.publishes.Add(1)
	return PublishResponse{LastApplied: r.lastApplied}, nil
}

// HandleAnswer implements the Answer RPC against the atomic serving
// snapshot — no locks, so query fan-out never contends with the step loop.
// A snapshot at any step other than the requested one is refused; the
// coordinator then answers locally, keeping answers step-exact.
//
//streamlint:lockfree
func (r *Replica) HandleAnswer(req AnswerRequest) (AnswerResponse, error) {
	snap := r.serving.Load()
	if snap == nil {
		return AnswerResponse{}, fmt.Errorf("cluster: no serving snapshot published yet")
	}
	if snap.step != req.Step {
		return AnswerResponse{}, fmt.Errorf("cluster: serving mirror at step %d, batch wants %d", snap.step, req.Step)
	}
	answers := query.AnswerBatch(snap.heads, snap.emb, req.Reqs)
	r.stats.answers.Add(int64(len(req.Reqs)))
	resp := AnswerResponse{Step: snap.step, Answers: make([]WireAnswer, len(answers))}
	for i, a := range answers {
		resp.Answers[i] = WireAnswer{Score: [1]float64{a.Score}, OK: a.OK, Err: a.Err}
	}
	return resp, nil
}
