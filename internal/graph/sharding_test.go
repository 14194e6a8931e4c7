package graph

import (
	"testing"

	"streamgnn/internal/shard"
)

func attach(t *testing.T, g *Dynamic, p int, l shard.Layout) *shard.Sharding {
	t.Helper()
	s, err := shard.New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	g.AttachSharding(s)
	return s
}

// Dirty marks accumulated before AttachSharding survive the switch to
// per-shard trackers.
func TestAttachShardingCarriesDirtyMarks(t *testing.T) {
	g := NewDynamic(2)
	g.EnableDirtyTracking()
	for i := 0; i < 6; i++ {
		g.AddNode(nil)
	}
	attach(t, g, 2, shard.Hash)
	ids := g.TakeDirty()
	if len(ids) != 6 {
		t.Fatalf("carried %d dirty marks across AttachSharding, want 6", len(ids))
	}
}

// Edge classification: local vs cross counters, the boundary index, and
// occupancy — maintained through insertion, late attachment, and expiry.
func TestShardEdgeClassificationAndExpiry(t *testing.T) {
	g := NewDynamic(2)
	// Range layout with block 256: nodes 0..9 all land on shard 0 of 2 only
	// if ids stay under the block size — use ids around the block edge for a
	// guaranteed cross-shard pair.
	attach(t, g, 2, shard.Range)
	n := shard.RangeBlock + 4
	for i := 0; i < n; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1, 0, 10)                                 // local (both shard 0)
	g.AddEdge(2, shard.RangeBlock, 0, 20)                  // cross (shard 0 → 1)
	g.AddEdge(shard.RangeBlock, shard.RangeBlock+1, 0, 30) // local on shard 1

	st := g.ShardStats()
	if st.Shards != 2 || st.Layout != "range" {
		t.Fatalf("stats header = %d/%s, want 2/range", st.Shards, st.Layout)
	}
	if st.LocalEdges != 2 || st.CrossEdges != 1 {
		t.Fatalf("edges = %d local / %d cross, want 2/1", st.LocalEdges, st.CrossEdges)
	}
	if got := st.CrossFraction(); got != 1.0/3.0 {
		t.Fatalf("CrossFraction = %v, want 1/3", got)
	}
	if st.BoundaryNodes != 2 {
		t.Fatalf("BoundaryNodes = %d, want 2", st.BoundaryNodes)
	}
	if st.Occupancy[0] != int64(shard.RangeBlock) || st.Occupancy[1] != 4 {
		t.Fatalf("occupancy = %v", st.Occupancy)
	}

	// Expiring the cross edge must decrement the counters and clear the
	// boundary marks; the younger local edges survive.
	g.ExpireEdgesBefore(25)
	st = g.ShardStats()
	if st.CrossEdges != 0 || st.LocalEdges != 1 {
		t.Fatalf("after expiry: %d local / %d cross, want 1/0", st.LocalEdges, st.CrossEdges)
	}
	if st.BoundaryNodes != 0 {
		t.Fatal("boundary index not decremented by expiry")
	}
}

// Attaching to an already-populated graph re-indexes existing nodes and
// edges, matching what incremental maintenance would have produced.
func TestAttachShardingScansExistingGraph(t *testing.T) {
	g := NewDynamic(2)
	n := 2 * shard.RangeBlock
	for i := 0; i < n; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1, 0, 0)                  // local after attach
	g.AddEdge(1, shard.RangeBlock+1, 0, 0) // cross after attach
	attach(t, g, 2, shard.Range)
	st := g.ShardStats()
	if st.LocalEdges != 1 || st.CrossEdges != 1 {
		t.Fatalf("rescan found %d local / %d cross, want 1/1", st.LocalEdges, st.CrossEdges)
	}
	if st.Occupancy[0] != int64(shard.RangeBlock) || st.Occupancy[1] != int64(shard.RangeBlock) {
		t.Fatalf("rescan occupancy = %v", st.Occupancy)
	}
}

// The unsharded graph reports zero-value stats.
func TestUnshardedStatsAreZero(t *testing.T) {
	g := NewDynamic(2)
	g.AddNode(nil)
	if st := g.ShardStats(); st.Shards != 0 {
		t.Fatalf("unsharded ShardStats = %+v", st)
	}
	if g.Sharding() != nil {
		t.Fatal("unsharded accessors leaked shard state")
	}
}
