package streamgnn

import (
	"encoding/gob"
	"fmt"
	"io"
	"sync/atomic"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/drift"
	"streamgnn/internal/query"
)

// checkpointVersion guards the on-disk format. Version 2 extended the
// learned-state-only v1 with the full runtime state (random stream,
// optimizer moments, workload, scheduler counters), making a graceful
// shutdown + resume reproduce the uninterrupted run. Version 3 added the
// incremental-forward embedding cache (Emb/EmbLastFull), so a resumed
// incremental run splices into the same matrix instead of starting with a
// forced full forward. Version 4 extended the optimizer state with WinGNN's
// gradient-aggregation window (nested inner state, window RNG position,
// gradient history) — new fields on the gob-encoded OptState, so v3
// checkpoints still decode; checkpointVersionMin marks the oldest readable
// format. A v3 WinGNN checkpoint simply carries no optimizer state (the old
// winOptimizer was not Stateful) and resumes with an empty window. Version 5
// records the shard layout (Shards/ShardLayout) so a resumed engine can be
// validated against — and a service can adopt — the saved partition; the
// fields gob-decode to zero from older checkpoints, which skips the
// validation (pre-v5 runs were always unsharded). Version 6 adds the
// delta-propagation caches (Delta/DeltaCommitted/HasDelta) so a resumed
// DeltaForward run with a nonzero epsilon continues from the exact stage
// caches of the uninterrupted run instead of resynchronizing with a full
// forward; the fields gob-decode to zero from v3-v5 checkpoints, which simply
// leaves the caches invalid (the first resumed delta step runs full — at
// epsilon 0 that is bit-identical anyway). Version 7 adds the dependency
// scheduler's observability counters (SchedSteps/SchedGroups/SchedUnits/
// SchedCollapsed) — the scheduler keeps no other persistent state (its
// conflict scratch and gradient sinks are rebuilt every step), so resumed
// runs stay bit-identical; the fields gob-decode to zero from older
// checkpoints.
const (
	checkpointVersion    = 7
	checkpointVersionMin = 3
)

// checkpoint is the gob-encoded engine state: everything *learned* — model
// and head parameters, recurrent state, the chip distribution — plus the
// runtime state needed to continue the exact trajectory: the engine's random
// stream, optimizer moments, the workload's revealed/pending/replay state,
// KDE seed window, drift-detector statistics, and the observability
// counters. The graph snapshot itself is NOT included: reconstruct it by
// replaying the stream (see internal/stream's JSONL encoding), then load the
// checkpoint to resume.
type checkpoint struct {
	Version  int
	Model    string
	Strategy string
	Hidden   int
	Step     int
	Params   []dgnn.StateDump
	States   []dgnn.StateDump
	Chips    []int

	// Runtime state (v2).
	RngState      uint64
	TrainerStats  [5]int64
	TrainSteps    int
	Trained       int
	Moves         int
	ParallelUnits int64
	KDESeeds      []int
	KDEOldest     int
	HasKDESeeds   bool
	Opt           *autodiff.OptState
	Workload      query.WorkloadState
	Drift         *drift.PageHinkleyState
	SeenOutcomes  int

	// Incremental-forward embedding cache (v3); nil when the cache was
	// invalid at save time (engine not in incremental mode, or pre-Step).
	Emb         *dgnn.StateDump
	EmbLastFull int

	// Shard layout (v5): the effective shard count (1 when unsharded) and
	// the layout name ("" when unsharded). 0 in pre-v5 checkpoints.
	Shards      int
	ShardLayout string

	// Delta-propagation caches (v6): one stage-output dump per model stage
	// plus the ids whose recurrent state the last pass committed. HasDelta
	// is false — and the slices nil — when the engine was not in delta mode
	// or the caches were invalid at save time, and in pre-v6 checkpoints.
	Delta          []dgnn.StateDump
	DeltaCommitted []int
	HasDelta       bool

	// Dependency-scheduler counters (v7): steps, groups, units, collapsed
	// steps. Zero in pre-v7 checkpoints.
	SchedSteps     int64
	SchedGroups    int64
	SchedUnits     int64
	SchedCollapsed int64
}

// CheckpointInfo is the identifying header of a saved checkpoint.
type CheckpointInfo struct {
	Version  int
	Model    string
	Strategy string
	Hidden   int
	// Step is the next step the resumed engine will execute.
	Step int
	// Shards is the saved run's effective shard count (1 = unsharded, 0 =
	// pre-v5 checkpoint) and ShardLayout its layout name; a resuming
	// service configures its engine to match (cmd/queryd does).
	Shards      int
	ShardLayout string
}

// PeekCheckpoint decodes just the identifying header of a checkpoint, so a
// service can learn how far to replay the stream (Info.Step) and which
// model/strategy to configure before constructing the engine.
func PeekCheckpoint(r io.Reader) (CheckpointInfo, error) {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return CheckpointInfo{}, fmt.Errorf("streamgnn: decoding checkpoint: %w", err)
	}
	return CheckpointInfo{Version: ck.Version, Model: ck.Model, Strategy: ck.Strategy,
		Hidden: ck.Hidden, Step: ck.Step, Shards: ck.Shards, ShardLayout: ck.ShardLayout}, nil
}

// SaveCheckpoint writes the engine's learned and runtime state to w.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	ck := checkpoint{
		Version:      checkpointVersion,
		Model:        e.cfg.Model,
		Strategy:     e.cfg.Strategy,
		Hidden:       e.cfg.Hidden,
		Step:         e.step,
		States:       e.model.DumpState(),
		RngState:     e.src.State(),
		Workload:     e.wl.DumpState(),
		SeenOutcomes: e.seenOutcomes,
		Emb:          e.emb.Dump(),
		EmbLastFull:  e.emb.LastFullStep(),
		Shards:       1,
	}
	if e.shards != nil {
		ck.Shards = e.shards.P
		ck.ShardLayout = e.shards.Layout.String()
	}
	if e.deltaFwd != nil {
		ck.Delta, ck.DeltaCommitted, ck.HasDelta = e.delta.DeltaDump()
	}
	for _, p := range e.allParams() {
		ck.Params = append(ck.Params, dgnn.StateDump{
			Rows: p.Value.Rows, Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	st := &e.trainer.Stats
	ck.TrainerStats = [5]int64{
		atomic.LoadInt64(&st.SelfNodeTargets),
		atomic.LoadInt64(&st.SelfEdgeTargets),
		atomic.LoadInt64(&st.SupNodeTargets),
		atomic.LoadInt64(&st.SupPairTargets),
		atomic.LoadInt64(&st.ReplayTargets),
	}
	if opt, ok := e.opt.(autodiff.Stateful); ok {
		os := opt.DumpState()
		ck.Opt = &os
	}
	if e.driftDet != nil {
		ds := e.driftDet.State()
		ck.Drift = &ds
	}
	ck.TrainSteps = e.sched.TrainSteps
	if a := e.sched.Adaptive; a != nil {
		ck.Chips = a.Chips.Counts()
		ck.Trained, ck.Moves = a.Trained, a.Moves
		ck.ParallelUnits = atomic.LoadInt64(&a.ParallelUnits)
		ck.SchedSteps = atomic.LoadInt64(&a.SchedSteps)
		ck.SchedGroups = atomic.LoadInt64(&a.SchedGroups)
		ck.SchedUnits = atomic.LoadInt64(&a.SchedUnits)
		ck.SchedCollapsed = atomic.LoadInt64(&a.SchedCollapsed)
		if ks := a.KDE(); ks != nil {
			ck.KDESeeds, ck.KDEOldest = ks.SeedState()
			ck.HasKDESeeds = true
		}
	}
	return gob.NewEncoder(w).Encode(ck)
}

// LoadCheckpoint restores state saved by SaveCheckpoint into a compatible
// engine (same model, strategy and hidden size). The graph snapshot must be
// reconstructed separately — by replaying the stream up to the checkpoint's
// step — before stepping resumes, and queries (plus the link task, if it was
// enabled) must be re-registered before the call. After a successful load,
// continued stepping follows the exact trajectory of the uninterrupted run:
// the random stream, optimizer moments, replay buffers and chip distribution
// all pick up where they left off.
func (e *Engine) LoadCheckpoint(r io.Reader) error {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("streamgnn: decoding checkpoint: %w", err)
	}
	if ck.Version < checkpointVersionMin || ck.Version > checkpointVersion {
		return fmt.Errorf("streamgnn: checkpoint version %d, want %d..%d", ck.Version, checkpointVersionMin, checkpointVersion)
	}
	if ck.Model != e.cfg.Model || ck.Strategy != e.cfg.Strategy || ck.Hidden != e.cfg.Hidden {
		return fmt.Errorf("streamgnn: checkpoint is for %s/%s/h=%d, engine is %s/%s/h=%d",
			ck.Model, ck.Strategy, ck.Hidden, e.cfg.Model, e.cfg.Strategy, e.cfg.Hidden)
	}
	if ck.Shards != 0 { // 0 = pre-v5 checkpoint: always unsharded, skip
		engShards, engLayout := 1, ""
		if e.shards != nil {
			engShards, engLayout = e.shards.P, e.shards.Layout.String()
		}
		if ck.Shards != engShards || ck.ShardLayout != engLayout {
			return fmt.Errorf("streamgnn: checkpoint is for shards=%d/%s, engine is shards=%d/%s (resume with the saved partition; services adopt it from CheckpointInfo)",
				ck.Shards, ck.ShardLayout, engShards, engLayout)
		}
	}
	params := e.allParams()
	if len(ck.Params) != len(params) {
		return fmt.Errorf("streamgnn: checkpoint has %d parameters, engine has %d", len(ck.Params), len(params))
	}
	for i, p := range params {
		d := ck.Params[i]
		if d.Rows != p.Value.Rows || d.Cols != p.Value.Cols || len(d.Data) != len(p.Value.Data) {
			return fmt.Errorf("streamgnn: parameter %d shape mismatch (%dx%d vs %dx%d)",
				i, d.Rows, d.Cols, p.Value.Rows, p.Value.Cols)
		}
	}
	// All validations that can fail cleanly come before any mutation. The
	// learner checks its chip counts and seed window against the replayed
	// graph before it installs either, so a checkpoint that does not fit the
	// graph leaves the engine as it was.
	a := e.sched.Adaptive
	if a != nil {
		if err := a.Restore(ck.Chips, ck.KDESeeds, ck.KDEOldest, ck.HasKDESeeds); err != nil {
			return err
		}
	}
	if ck.Opt != nil {
		opt, ok := e.opt.(autodiff.Stateful)
		if !ok {
			return fmt.Errorf("streamgnn: checkpoint carries optimizer state but the %s optimizer cannot restore it", e.cfg.Model)
		}
		if err := opt.RestoreState(*ck.Opt); err != nil {
			return err
		}
	}
	if err := e.wl.RestoreState(ck.Workload); err != nil {
		return err
	}
	for i, p := range params {
		copy(p.Value.Data, ck.Params[i].Data)
	}
	autodiff.CopyValues(e.opt.Params(), params) // the learner's copy of θ
	if err := e.model.RestoreState(ck.States); err != nil {
		return err
	}
	e.step = ck.Step
	e.src.SetState(ck.RngState)
	e.seenOutcomes = ck.SeenOutcomes
	st := &e.trainer.Stats
	atomic.StoreInt64(&st.SelfNodeTargets, ck.TrainerStats[0])
	atomic.StoreInt64(&st.SelfEdgeTargets, ck.TrainerStats[1])
	atomic.StoreInt64(&st.SupNodeTargets, ck.TrainerStats[2])
	atomic.StoreInt64(&st.SupPairTargets, ck.TrainerStats[3])
	atomic.StoreInt64(&st.ReplayTargets, ck.TrainerStats[4])
	if e.driftDet != nil && ck.Drift != nil {
		e.driftDet.RestoreState(*ck.Drift)
	}
	e.sched.TrainSteps = ck.TrainSteps
	if a != nil {
		a.Trained, a.Moves = ck.Trained, ck.Moves
		atomic.StoreInt64(&a.ParallelUnits, ck.ParallelUnits)
		atomic.StoreInt64(&a.SchedSteps, ck.SchedSteps)
		atomic.StoreInt64(&a.SchedGroups, ck.SchedGroups)
		atomic.StoreInt64(&a.SchedUnits, ck.SchedUnits)
		atomic.StoreInt64(&a.SchedCollapsed, ck.SchedCollapsed)
		// The telemetry watermarks follow, so the first resumed step observes
		// only its own group fraction, not the whole restored history.
		e.tele.prevSchedGroups, e.tele.prevSchedUnits = ck.SchedGroups, ck.SchedUnits
	}
	if err := e.emb.Restore(ck.Emb, ck.EmbLastFull); err != nil {
		return err
	}
	if ck.HasDelta && e.deltaFwd != nil {
		// DeltaRestore validates the stage count and widths before mutating;
		// a checkpoint without delta caches (pre-v6, or saved invalid) leaves
		// them invalid and the first resumed delta step runs full.
		if err := e.delta.DeltaRestore(e.deltaFwd, ck.Delta, ck.DeltaCommitted); err != nil {
			return err
		}
	} else {
		e.delta.Invalidate()
	}
	if e.emb.Valid() {
		e.lastEmb = e.emb.Matrix()
	}
	// The caller rebuilt the graph by replaying the whole stream, which marks
	// every node updated; the saved run had cleared the set at the end of its
	// last step. Clear it so the first resumed step sees only the mutations
	// applied after this load. The forward-dirty set accumulated the same
	// replay churn: drain it too, or the first resumed incremental step would
	// recompute the whole graph.
	e.g.ResetUpdated()
	e.g.TakeDirty()
	return nil
}
