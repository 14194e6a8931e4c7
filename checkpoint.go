package streamgnn

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/drift"
	"streamgnn/internal/query"
	"streamgnn/internal/tensor"
	"streamgnn/internal/wire"
)

// A checkpoint is checkpointMagic, then one internal/wire frame of version
// checkpointVersion holding the checkpoint struct's fields in declaration order
// (checkpoint.wire) — canonical, so one engine state has exactly one file.
const (
	checkpointMagic   = "streamgnn checkpoint\n"
	checkpointVersion = 9
)

// CheckpointInfo is the identifying header of a saved checkpoint.
type CheckpointInfo struct {
	Version  int
	Model    string
	Strategy string
	Hidden   int
	// Step is the next step the resumed engine will execute.
	Step int
	// Shards is the saved run's effective shard count (1 = unsharded) and
	// ShardLayout its layout name; a resuming service configures its engine
	// to match (cmd/queryd does).
	Shards      int
	ShardLayout string
}

// checkpoint is the engine state a checkpoint carries: everything *learned*
// — model and head parameters, recurrent state, the chip distribution — plus
// the runtime state needed to continue the exact trajectory: the engine's
// random stream, optimizer moments, the workload's revealed/pending/replay
// state, KDE seed window, drift-detector statistics, and the observability
// counters. The graph snapshot itself is NOT included: reconstruct it by
// replaying the stream (see internal/stream's JSONL encoding), then load the
// checkpoint to resume.
type checkpoint struct {
	CheckpointInfo // Version is the frame's, not a field of its own

	Params []dgnn.StateDump
	States []dgnn.StateDump
	Chips  []int

	RngState   uint64
	Counters   []int64 // Engine.counters, in its order
	TrainSteps int
	Trained    int
	Moves      int
	// KDESeeds is the KDE seed window, empty when the engine has none yet.
	KDESeeds     []int
	KDEOldest    int
	Opt          autodiff.OptState
	Workload     query.WorkloadState
	Drift        *drift.PageHinkleyState
	SeenOutcomes int

	// Emb is the incremental-forward embedding cache; nil when the cache was
	// invalid at save time (engine not in incremental mode, or pre-Step).
	Emb         *dgnn.StateDump
	EmbLastFull int

	// Delta and DeltaCommitted are reserved slots of the retired delta
	// forward's caches (DESIGN.md §14): written empty, and decoded and
	// dropped on load, so v9 files from before the retirement still load.
	// ROADMAP item 1(e) removes them with the next version.
	Delta          []dgnn.StateDump
	DeltaCommitted []int
}

func (ck *checkpoint) wire(c *wire.Coder) {
	c.String(&ck.Model)
	c.String(&ck.Strategy)
	c.Int(&ck.Hidden)
	c.Int(&ck.Step)
	c.Int(&ck.Shards)
	c.String(&ck.ShardLayout)
	dgnn.WireDumps(c, &ck.Params)
	dgnn.WireDumps(c, &ck.States)
	c.Ints(&ck.Chips)
	c.Uvarint(&ck.RngState)
	wire.List(c, &ck.Counters, 1, func(v *int64, c *wire.Coder) { c.Varint(v) })
	c.Int(&ck.TrainSteps)
	c.Int(&ck.Trained)
	c.Int(&ck.Moves)
	c.Ints(&ck.KDESeeds)
	c.Int(&ck.KDEOldest)
	optState(&ck.Opt, c)
	workloadState(&ck.Workload, c)
	wire.Opt(c, &ck.Drift, func(d *drift.PageHinkleyState, c *wire.Coder) {
		c.Int(&d.N)
		c.Float(&d.Mean)
		c.Float(&d.Cum)
		c.Float(&d.Min)
	})
	c.Int(&ck.SeenOutcomes)
	wire.Opt(c, &ck.Emb, (*dgnn.StateDump).Wire)
	c.Int(&ck.EmbLastFull)
	dgnn.WireDumps(c, &ck.Delta)
	c.Ints(&ck.DeltaCommitted)
}

// rows codes a list of non-empty float rows. Refusing an empty row keeps
// every row at 9 bytes or more, so a decoded list costs at most a few times
// its bytes in slice headers.
func rows(c *wire.Coder, p *[][]float64) {
	wire.List(c, p, 9, func(row *[]float64, c *wire.Coder) {
		c.Floats(row)
		if len(*row) == 0 {
			c.Fail("empty float row")
		}
	})
}

// optState codes an optimizer's state and the one optimizer state a
// decorating optimizer may nest in it.
func optState(o *autodiff.OptState, c *wire.Coder) {
	optFields(o, c)
	wire.Opt(c, &o.Inner, func(in *autodiff.OptState, c *wire.Coder) {
		optFields(in, c)
		if in.Inner != nil {
			c.Fail("optimizer state nested more than one level deep")
		}
	})
}

func optFields(o *autodiff.OptState, c *wire.Coder) {
	c.Int(&o.Step)
	rows(c, &o.Moments)
	c.Uvarint(&o.RNG)
	wire.List(c, &o.History, 10, func(snap *[][]float64, c *wire.Coder) {
		rows(c, snap)
		if len(*snap) == 0 {
			c.Fail("empty gradient snapshot")
		}
	})
}

func workloadState(w *query.WorkloadState, c *wire.Coder) {
	wire.List(c, &w.Revealed, 10, func(t *query.NodeTarget, c *wire.Coder) {
		c.Int(&t.Node)
		c.Float(&t.Value)
		c.Int(&t.Step)
	})
	wire.List(c, &w.Replay, 9, func(r *query.ReplayExample, c *wire.Coder) {
		c.Floats(&r.Emb)
		c.Float(&r.Truth)
	})
	c.Int(&w.ReplayPos)
	wire.List(c, &w.Pending, 12, func(p *query.PendingPrediction, c *wire.Coder) {
		c.String(&p.Query)
		c.Int(&p.Anchor)
		c.Int(&p.Due)
		c.Float(&p.Score)
		c.Floats(&p.Emb)
	})
	wire.List(c, &w.Outcomes, 20, func(o *query.Outcome, c *wire.Coder) {
		c.String(&o.Query)
		c.Int(&o.Anchor)
		c.Int(&o.Step)
		c.Float(&o.Score)
		c.Float(&o.Truth)
		c.Bool(&o.Event)
	})
	wire.Opt(c, &w.Link, func(l *query.LinkState, c *wire.Coder) {
		c.Uvarint(&l.RngState)
		c.Int(&l.LastStep)
		wire.Opt(c, &l.LastEmb, func(m *tensor.Matrix, c *wire.Coder) { (*dgnn.StateDump)(m).Wire(c) })
		wire.List(c, &l.RecentPairs, 10, func(p *query.Pair, c *wire.Coder) {
			c.Int(&p.U)
			c.Int(&p.V)
			c.Float(&p.Label)
		})
		c.Floats(&l.Scores)
		wire.List(c, &l.Labels, 1, func(b *bool, c *wire.Coder) { c.Bool(b) })
		c.Ints(&l.Ranks)
		rows(c, &l.ReplayEmb)
		c.Floats(&l.ReplayLbl)
	})
}

func (ck *checkpoint) encode() ([]byte, error) {
	frame, err := wire.Encode(checkpointVersion, ck.wire)
	if err != nil {
		return nil, fmt.Errorf("streamgnn: encoding checkpoint: %w", err)
	}
	return append([]byte(checkpointMagic), frame...), nil
}

// decodeCheckpoint reads and parses a whole checkpoint.
func decodeCheckpoint(r io.Reader) (*checkpoint, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("streamgnn: reading checkpoint: %w", err)
	}
	frame, ok := bytes.CutPrefix(b, []byte(checkpointMagic))
	if !ok {
		// A gob stream names the struct it encodes in its first bytes.
		if bytes.Contains(b[:min(len(b), 32)], []byte("checkpoint")) {
			return nil, fmt.Errorf("streamgnn: checkpoint is a gob stream (format v7 or older), which this build no longer reads; it reads v%d", checkpointVersion)
		}
		return nil, fmt.Errorf("streamgnn: not a streamgnn checkpoint")
	}
	ck := checkpoint{CheckpointInfo: CheckpointInfo{Version: checkpointVersion}}
	if err := wire.Decode(frame, checkpointVersion, ck.wire); err != nil {
		return nil, fmt.Errorf("streamgnn: decoding checkpoint: %w", err)
	}
	return &ck, nil
}

// PeekCheckpoint decodes a checkpoint and returns its identifying header,
// so a service can learn how far to replay the stream (Info.Step) and which
// model/strategy to configure before constructing the engine.
func PeekCheckpoint(r io.Reader) (CheckpointInfo, error) {
	ck, err := decodeCheckpoint(r)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return ck.CheckpointInfo, nil
}

// counters lists the observability counters a checkpoint carries, in its
// order: the trainer's five target counts.
func (e *Engine) counters() []*int64 {
	st := &e.trainer.Stats
	//streamlint:atommix the pointers reach sync/atomic alone, in SaveCheckpoint and LoadCheckpoint
	return []*int64{&st.SelfNodeTargets, &st.SelfEdgeTargets, &st.SupNodeTargets, &st.SupPairTargets, &st.ReplayTargets}
}

// SaveCheckpoint writes the engine's learned and runtime state to w.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	ck := checkpoint{
		CheckpointInfo: CheckpointInfo{Version: checkpointVersion, Model: e.cfg.Model, Strategy: e.cfg.Strategy,
			Hidden: e.cfg.Hidden, Step: e.step, Shards: 1},
		Params:       dgnn.DumpParams(e.allParams()),
		States:       e.model.DumpState(),
		RngState:     e.src.State(),
		TrainSteps:   e.sched.TrainSteps,
		Opt:          e.opt.DumpState(),
		Workload:     e.wl.DumpState(),
		SeenOutcomes: e.seenOutcomes,
		Emb:          e.emb.Dump(),
		EmbLastFull:  e.emb.LastFullStep(),
	}
	if e.shards != nil {
		ck.Shards = e.shards.P
		ck.ShardLayout = e.shards.Layout.String()
	}
	for _, c := range e.counters() {
		ck.Counters = append(ck.Counters, atomic.LoadInt64(c))
	}
	if e.driftDet != nil {
		ds := e.driftDet.State()
		ck.Drift = &ds
	}
	if a := e.sched.Adaptive; a != nil {
		ck.Chips = a.Chips.Counts()
		ck.Trained, ck.Moves = a.Trained, a.Moves
		if ks := a.KDE(); ks != nil {
			ck.KDESeeds, ck.KDEOldest = ks.SeedState()
		}
	}
	b, err := ck.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// LoadCheckpoint restores state saved by SaveCheckpoint into a compatible
// engine (same model, strategy, hidden size and shard layout). The graph
// snapshot must be reconstructed separately — by replaying the stream up to
// the checkpoint's step — before stepping resumes, and queries (plus the link
// task, if it was enabled) must be re-registered before the call. It decodes
// the whole checkpoint, then checks every section against the engine and the
// replayed graph, and only then installs any of it: a refused checkpoint
// leaves the engine as it was. After a successful load, continued stepping
// follows the exact trajectory of the uninterrupted run: the random stream,
// optimizer moments, replay buffers and chip distribution all pick up where
// they left off.
func (e *Engine) LoadCheckpoint(r io.Reader) error {
	ck, err := decodeCheckpoint(r)
	if err != nil {
		return err
	}
	if ck.Model != e.cfg.Model || ck.Strategy != e.cfg.Strategy || ck.Hidden != e.cfg.Hidden {
		return fmt.Errorf("streamgnn: checkpoint is for %s/%s/h=%d, engine is %s/%s/h=%d",
			ck.Model, ck.Strategy, ck.Hidden, e.cfg.Model, e.cfg.Strategy, e.cfg.Hidden)
	}
	engShards, engLayout := 1, ""
	if e.shards != nil {
		engShards, engLayout = e.shards.P, e.shards.Layout.String()
	}
	if ck.Shards != engShards || ck.ShardLayout != engLayout {
		return fmt.Errorf("streamgnn: checkpoint is for shards=%d/%s, engine is shards=%d/%s (resume with the saved partition; services adopt it from CheckpointInfo)",
			ck.Shards, ck.ShardLayout, engShards, engLayout)
	}
	// Each section checks itself and hands back its install; the first
	// refusal ends the load before any install has run.
	var installs []func()
	stage := func(install func(), sectionErr error) {
		if err == nil {
			installs, err = append(installs, install), sectionErr
		}
	}
	params := e.allParams()
	stage(dgnn.RestoreParams(params, ck.Params))
	counters := e.counters()
	if len(ck.Counters) != len(counters) {
		stage(nil, fmt.Errorf("streamgnn: checkpoint carries %d counters, engine keeps %d", len(ck.Counters), len(counters)))
	}
	a := e.sched.Adaptive
	if a != nil {
		stage(a.Restore(ck.Chips, ck.KDESeeds, ck.KDEOldest))
	}
	stage(e.opt.RestoreState(ck.Opt))
	stage(e.wl.RestoreState(ck.Workload))
	stage(e.model.RestoreState(ck.States))
	stage(e.emb.Restore(ck.Emb, ck.EmbLastFull))
	if err != nil {
		return err
	}
	for _, install := range installs {
		install()
	}
	autodiff.CopyValues(e.opt.Params(), params) // the learner's copy of θ
	e.step = ck.Step
	e.src.SetState(ck.RngState)
	e.seenOutcomes = ck.SeenOutcomes
	for i, c := range counters {
		atomic.StoreInt64(c, ck.Counters[i])
	}
	if e.driftDet != nil && ck.Drift != nil {
		e.driftDet.RestoreState(*ck.Drift)
	}
	e.sched.TrainSteps = ck.TrainSteps
	if a != nil {
		a.Trained, a.Moves = ck.Trained, ck.Moves
	}
	if e.emb.Valid() {
		e.lastEmb = e.emb.Publish()
	}
	// The caller rebuilt the graph by replaying the whole stream, which marks
	// every node updated; the saved run had cleared the set at the end of its
	// last step. Clear it so the first resumed step sees only the mutations
	// applied after this load. The replay also kept the edges the saved run's
	// window had expired: expire them as its last step did. The forward-dirty
	// set accumulated the replay churn and that expiry: drain it too, or the
	// first resumed step would advance rows the saved run holds.
	e.g.ResetUpdated()
	if e.cfg.WindowSteps > 0 {
		e.g.ExpireEdgesBefore(int64(e.step - e.cfg.WindowSteps))
	}
	e.g.TakeDirty()
	return nil
}
