package streamgnn

import (
	"bytes"
	"fmt"
	"testing"
)

// shardedPair builds an unsharded incremental engine and a sharded one over
// the same stream config. Both take the incremental path on every non-trained
// step, so any divergence is the sharded fan-out's.
func shardedPair(t *testing.T, base Config, shards int, layout string) (eFlat, eShard *Engine) {
	t.Helper()
	base.IncrementalForward = true

	sh := base
	sh.Shards = shards
	sh.ShardLayout = layout

	var err error
	if eFlat, err = NewEngine(3, base); err != nil {
		t.Fatal(err)
	}
	if eShard, err = NewEngine(3, sh); err != nil {
		t.Fatal(err)
	}
	return eFlat, eShard
}

// runShardedEquality drives both engines through the incStream and asserts
// bit-identical embeddings every step, then identical outcomes and metrics.
func runShardedEquality(t *testing.T, eFlat, eShard *Engine, n, steps int) {
	t.Helper()
	d := incStream{n: n}
	d.init(t, eFlat)
	d.init(t, eShard)
	for s := 0; s < steps; s++ {
		d.mutate(eFlat, s)
		d.mutate(eShard, s)
		if err := eFlat.Step(); err != nil {
			t.Fatal(err)
		}
		if err := eShard.Step(); err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, s, eFlat.lastEmb.Dense().Data, eShard.lastEmb.Dense().Data)
	}
	o1, o2 := eFlat.Outcomes(), eShard.Outcomes()
	if fmt.Sprintf("%+v", o1) != fmt.Sprintf("%+v", o2) {
		t.Fatal("query outcomes diverged between shard widths")
	}
	m1, m2 := eFlat.Metrics(), eShard.Metrics()
	if fmt.Sprintf("%+v", m1) != fmt.Sprintf("%+v", m2) {
		t.Fatalf("metrics diverged between shard widths:\n  shards=1: %+v\n  sharded:  %+v", m1, m2)
	}
}

// The tentpole guarantee of the sharded pipeline: a seeded 200-step run is
// bit-identical at shards=1 and shards=4 — embeddings at every step, and the
// query outcomes and metrics at the end. WinGNN is memoryless, so this also
// composes with exact incremental inference; training every 25 steps makes
// the equality survive cache invalidation and full-forward rebuilds.
func TestShardedBitEquality200(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "WinGNN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 8
	cfg.Seed = 7
	cfg.Interval = 25

	const n, steps = 80, 200
	eFlat, eShard := shardedPair(t, cfg, 4, "hash")
	runShardedEquality(t, eFlat, eShard, n, steps)

	tele := eShard.Telemetry()
	if tele.Shards != 4 {
		t.Fatalf("Telemetry.Shards = %d, want 4", tele.Shards)
	}
	var occ, rows int64
	for _, v := range tele.ShardNodes {
		occ += v
	}
	for _, v := range tele.ShardSplicedRows {
		rows += v
	}
	if occ != n {
		t.Fatalf("shard occupancy sums to %d, want %d", occ, n)
	}
	if rows == 0 {
		t.Fatal("no rows spliced through the shard fan-out; test proved nothing")
	}
	if tele.CrossShardEdgeFraction <= 0 || tele.CrossShardEdgeFraction > 1 {
		t.Fatalf("CrossShardEdgeFraction = %v, want in (0, 1]", tele.CrossShardEdgeFraction)
	}
	if tele.ShardMerge.Count == 0 {
		t.Fatal("merge-phase histogram recorded nothing")
	}
	if flat := eFlat.Telemetry(); flat.Shards != 0 || flat.ShardNodes != nil {
		t.Fatalf("unsharded engine reports shard telemetry: %+v", flat.Shards)
	}
}

// The same equality for a recurrent model: TGCN's incremental forwards are
// bounded-staleness, but the sharded fan-out must reproduce the unsharded
// incremental run bit for bit — components are forwarded whole, so the
// effective receptive field is identical at any shard width.
func TestShardedBitEqualityRecurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "TGCN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 8
	cfg.Seed = 11
	cfg.Interval = 25

	eFlat, eShard := shardedPair(t, cfg, 4, "hash")
	runShardedEquality(t, eFlat, eShard, 60, 120)
	if eShard.Telemetry().IncrementalForwards == 0 {
		t.Fatal("incremental path never ran")
	}

	// On a stream whose rows go edgeless, the step after a training step
	// takes the live rule. One with at least 0.85 of its rows live fans out
	// through RegionParts like a splice, every live row spliced by a shard.
	held := Config{Model: "TGCN", Strategy: StrategyKDE, Hidden: 6, Seed: 2, WindowSteps: 3, Interval: 4, IncrementalForward: true}
	flat, flatStream := heldEngine(t, held)
	held.Shards = 2
	sharded, shardStream := heldEngine(t, held)
	dense := 0
	for s := 0; s < 14; s++ {
		if s > 0 {
			flatStream.mutate(flat, s)
			shardStream.mutate(sharded, s)
		}
		before := sharded.Telemetry()
		for _, e := range []*Engine{flat, sharded} {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		sameMatrix(t, s, flat.lastEmb.Dense().Data, sharded.lastEmb.Dense().Data)
		after := sharded.Telemetry()
		live := after.FullForwards > before.FullForwards && after.SkippedRows > before.SkippedRows
		if !live || float64(after.ForwardRows) < 0.85*float64(sharded.NumNodes()) {
			continue
		}
		dense++
		var spliced int64
		for i, rows := range after.ShardSplicedRows {
			spliced += rows - before.ShardSplicedRows[i]
		}
		if spliced != after.ForwardRows {
			t.Fatalf("step %d: the shards spliced %d of the %d live rows", s, spliced, after.ForwardRows)
		}
	}
	if dense == 0 {
		t.Fatal("no live step advanced at least 0.85 of the rows; the test proved nothing")
	}
}

// The range layout partitions contiguous id blocks; equality must hold for
// it exactly as for hash.
func TestShardedBitEqualityRangeLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "WinGNN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 8
	cfg.Seed = 5
	cfg.Interval = 20

	eFlat, eShard := shardedPair(t, cfg, 3, "range")
	runShardedEquality(t, eFlat, eShard, 64, 60)
}

// Checkpoint/resume equality under sharding: the v5 checkpoint records the
// partition, and a resumed sharded run must be indistinguishable from an
// uninterrupted one.
func TestCheckpointResumeEqualitySharded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	cfg.Interval = 3
	cfg.IncrementalForward = true
	cfg.Shards = 4
	resumeEquality(t, cfg)
}

// A sharded checkpoint must not load into an engine with a different
// partition (or none), and vice versa — silently adopting a different shard
// width would change splice ordering guarantees mid-stream.
func TestCheckpointRejectsShardMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	cfg.Shards = 4
	e1 := endToEnd(t, cfg, 4)
	var buf bytes.Buffer
	if err := e1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	info, err := PeekCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 4 || info.ShardLayout != "hash" {
		t.Fatalf("peek shards = %d/%q, want 4/hash", info.Shards, info.ShardLayout)
	}

	flat := cfg
	flat.Shards = 0
	eFlat, _ := NewEngine(3, flat)
	if err := eFlat.LoadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("sharded checkpoint accepted by unsharded engine")
	}

	narrower := cfg
	narrower.Shards = 2
	eNarrow, _ := NewEngine(3, narrower)
	if err := eNarrow.LoadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("shards=4 checkpoint accepted by shards=2 engine")
	}

	ranged := cfg
	ranged.ShardLayout = "range"
	eRange, _ := NewEngine(3, ranged)
	if err := eRange.LoadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("hash-layout checkpoint accepted by range-layout engine")
	}

	same, _ := NewEngine(3, cfg)
	const n = 12
	for i := 0; i < n; i++ {
		same.AddNode(0, []float64{float64(i % 2), 0, 1})
	}
	for i := 0; i < n; i++ {
		same.AddUndirectedEdge(i, (i+1)%n, 0)
	}
	if err := same.LoadCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("matching partition rejected: %v", err)
	}
}

func TestNewEngineShardValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = -1
	if _, err := NewEngine(3, cfg); err == nil {
		t.Fatal("negative Shards accepted")
	}
	cfg = DefaultConfig()
	cfg.Shards = 4
	cfg.ShardLayout = "mod"
	if _, err := NewEngine(3, cfg); err == nil {
		t.Fatal("unknown ShardLayout accepted")
	}
}

// Shards > 1 implies incremental forward inference: without a dirty-region
// path there is nothing to fan out, so fill() switches it on.
func TestShardsImplyIncrementalForward(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "WinGNN"
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 8
	cfg.Interval = 1000
	cfg.Shards = 4

	d := incStream{n: 30}
	e, err := NewEngine(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.init(t, e)
	for s := 0; s < 6; s++ {
		d.mutate(e, s)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Telemetry().IncrementalForwards == 0 {
		t.Fatal("Shards=4 did not enable the incremental forward path")
	}
}

// Shard-width equality on a stream that adds nodes: every step attaches one
// new node to the ring, so training steps gather recurrent state for nodes
// newer than the BeginStep snapshot. Those must read as zero rows at every
// shard width — the fixed-node-set tests above never exercised that gather.
// The DCRNN row attaches every other node a step late: the graph alternates
// between every row active and one isolated row, the region forwards between
// DCRNN's two op sequences, on shard workers' pooled inference tapes.
func TestShardedBitEqualityGrowingStream(t *testing.T) {
	for _, tc := range []struct {
		model string
		late  bool
	}{{"TGCN", false}, {"DCRNN", true}} {
		t.Run(tc.model, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Model = tc.model
			cfg.Strategy = StrategyWeighted
			cfg.Hidden = 8
			cfg.Seed = 13
			cfg.Interval = 5
			cfg.IncrementalForward = true

			const n, steps = 40, 24
			d := incStream{n: n}
			run := func(shards int) *Engine {
				c := cfg
				c.Shards = shards
				e, err := NewEngine(3, c)
				if err != nil {
					t.Fatal(err)
				}
				d.init(t, e)
				isolated := 0 // steps that ran with a row outside the active block
				for s := 0; s < steps; s++ {
					d.mutate(e, s)
					v := e.AddNode(0, []float64{float64(s % 3), 1, 0})
					e.SetNodeLabel(v, float64(s%2))
					switch {
					case !tc.late:
						e.AddUndirectedEdge(v, (s*5)%n, 0)
					case s%2 == 1:
						e.AddUndirectedEdge(v-1, (s*5)%n, 0)
						e.AddUndirectedEdge(v, (s*7)%n, 0)
					}
					if g := e.Graph(); g.Diffusion().ActiveRows() < g.N() {
						isolated++
					}
					if err := e.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if tc.late && (isolated == 0 || isolated == steps) {
					t.Fatalf("shards=%d: %d of %d steps saw an isolated row, want some and not all", shards, isolated, steps)
				}
				return e
			}
			ref := run(0)
			for _, shards := range []int{2, 4} {
				e := run(shards)
				sameMatrix(t, steps-1, ref.lastEmb.Dense().Data, e.lastEmb.Dense().Data)
				pr, pe := ref.allParams(), e.allParams()
				for i := range pr {
					if !pr[i].Value.Equal(pe[i].Value) {
						t.Fatalf("shards=%d: parameter tensor %d differs from unsharded", shards, i)
					}
				}
				if fmt.Sprintf("%+v", ref.Outcomes()) != fmt.Sprintf("%+v", e.Outcomes()) {
					t.Fatalf("shards=%d: query outcomes differ from unsharded", shards)
				}
				if e.Telemetry().IncrementalForwards == 0 {
					t.Fatalf("shards=%d: incremental path never ran", shards)
				}
			}
		})
	}
}
