package graph

import (
	"sort"

	"streamgnn/internal/shard"
)

// Shard-aware ingestion. With a sharding attached, the graph classifies every
// mutation by the shard owning the touched node and keeps one forward-dirty
// tracker per shard, so the engine can route each shard's dirty frontier to
// its own worker goroutine without a global drain-and-split pass. Edge
// insertions are additionally classified shard-local vs cross-shard, and a
// per-node boundary index (the count of incident cross-shard edges) is
// maintained incrementally — including through window expiry — for telemetry
// and for reasoning about merge-phase work.
type shardState struct {
	s *shard.Sharding
	// dirty is the per-shard forward-dirty tracker: dirty[Of(v)] accumulates
	// v between TakeDirtySharded calls. Replaces the single fwdDirty map.
	dirty []map[int]struct{}
	// occupancy counts nodes owned by each shard.
	occupancy []int64
	// crossDeg[v] counts v's incident cross-shard edges (both directions):
	// the boundary-edge index. A node with crossDeg > 0 is a boundary node —
	// its L-hop ball spans shards, so its recomputation involves rows another
	// shard owns.
	crossDeg []int32
	// localEdges / crossEdges count live directed edges whose endpoints
	// share / do not share a shard.
	localEdges, crossEdges int64
}

// AttachSharding partitions the node-id space with s and switches dirty
// tracking to per-shard trackers (implicitly enabling it). Existing nodes,
// edges and accumulated dirty marks are re-indexed, so attaching to a
// populated graph is allowed; attaching twice or concurrently with use is
// not.
func (g *Dynamic) AttachSharding(s *shard.Sharding) {
	sh := &shardState{
		s:         s,
		dirty:     make([]map[int]struct{}, s.P),
		occupancy: make([]int64, s.P),
		crossDeg:  make([]int32, g.N()),
	}
	for i := range sh.dirty {
		sh.dirty[i] = make(map[int]struct{})
	}
	for v := 0; v < g.N(); v++ {
		sh.occupancy[s.Of(v)]++
		for _, e := range g.out[v] {
			sh.noteEdge(v, e.To, +1)
		}
	}
	// Carry over dirty marks accumulated under the unsharded tracker.
	for v := range g.fwdDirty {
		sh.dirty[s.Of(v)][v] = struct{}{}
	}
	g.fwdDirty = nil
	g.sh = sh
}

// Sharding returns the attached node-space partition, nil when unsharded.
func (g *Dynamic) Sharding() *shard.Sharding {
	if g.sh == nil {
		return nil
	}
	return g.sh.s
}

// noteEdge updates the cross/local counters and the boundary index for a
// directed edge u→v being inserted (delta +1) or expired (delta -1).
func (sh *shardState) noteEdge(u, v, delta int) {
	if sh.s.Of(u) != sh.s.Of(v) {
		sh.crossEdges += int64(delta)
		sh.crossDeg[u] += int32(delta)
		sh.crossDeg[v] += int32(delta)
		return
	}
	sh.localEdges += int64(delta)
}

// TakeDirtySharded drains the per-shard forward-dirty trackers and returns
// one ascending id slice per shard (empty shards yield nil slices). Nil when
// no sharding is attached — callers on the unsharded path use TakeDirty.
func (g *Dynamic) TakeDirtySharded() [][]int {
	if g.sh == nil {
		return nil
	}
	parts := make([][]int, len(g.sh.dirty))
	for si, m := range g.sh.dirty {
		if len(m) == 0 {
			continue
		}
		ids := make([]int, 0, len(m))
		for v := range m {
			ids = append(ids, v)
		}
		sort.Ints(ids)
		parts[si] = ids
		g.sh.dirty[si] = make(map[int]struct{})
	}
	return parts
}

// RegionParts partitions a compute region (ascending global ids, as produced
// by Ball) into one node list per shard, grouping by connected component:
// each component of the region's induced subgraph goes, whole, to the shard
// owning its smallest node id. Components are edge-isolated — no message can
// cross them at any layer and subgraph normalization uses global degrees —
// so forwarding a shard's part is bit-identical, row for row, to forwarding
// the whole region, whatever P is. That makes the assignment safe even for
// models whose effective receptive field exceeds Layers() (nested GRU gates
// convolve gated state): the per-shard computation never sees a differently
// truncated neighborhood, only a differently grouped one.
//
// Each part comes back ascending; shards with no components yield nil.
// Panics when no sharding is attached.
func (g *Dynamic) RegionParts(region []int) [][]int {
	if g.sh == nil {
		panic("graph: RegionParts without an attached sharding")
	}
	parts := make([][]int, g.sh.s.P)
	if len(region) == 0 {
		return parts
	}
	// mark: 0 = outside region, 1 = in region, 2 = assigned to a component.
	mark := getScratch(g.N())
	for _, v := range region {
		g.checkNode(v)
		mark[v] = 1
	}
	var frontier []int
	for _, v := range region {
		if mark[v] != 1 {
			continue
		}
		// v is the smallest unassigned node, hence the smallest of its
		// component (region is ascending): it names the owner.
		owner := g.sh.s.Of(v)
		mark[v] = 2
		comp := append([]int(nil), v)
		frontier = append(frontier[:0], v)
		for len(frontier) > 0 {
			var next []int
			for _, u := range frontier {
				for _, e := range g.out[u] {
					if mark[e.To] == 1 {
						mark[e.To] = 2
						next = append(next, e.To)
					}
				}
				for _, e := range g.in[u] {
					if mark[e.To] == 1 {
						mark[e.To] = 2
						next = append(next, e.To)
					}
				}
			}
			comp = append(comp, next...)
			frontier = next
		}
		parts[owner] = append(parts[owner], comp...)
	}
	for _, v := range region {
		mark[v] = 0
	}
	putScratch(mark)
	for si := range parts {
		sort.Ints(parts[si])
	}
	return parts
}

// ShardStats is a point-in-time summary of the shard layout's health.
type ShardStats struct {
	// Shards is the partition width P; 0 means no sharding is attached and
	// every other field is zero.
	Shards int
	Layout string
	// Occupancy[s] counts the nodes owned by shard s.
	Occupancy []int64
	// LocalEdges / CrossEdges count live directed edges by whether both
	// endpoints share a shard. BoundaryNodes counts nodes with at least one
	// incident cross-shard edge.
	LocalEdges    int64
	CrossEdges    int64
	BoundaryNodes int
}

// CrossFraction returns CrossEdges / (LocalEdges + CrossEdges), 0 when the
// graph has no edges.
func (st ShardStats) CrossFraction() float64 {
	total := st.LocalEdges + st.CrossEdges
	if total == 0 {
		return 0
	}
	return float64(st.CrossEdges) / float64(total)
}

// ShardStats summarizes the attached sharding (zero value when unsharded).
func (g *Dynamic) ShardStats() ShardStats {
	sh := g.sh
	if sh == nil {
		return ShardStats{}
	}
	st := ShardStats{
		Shards:     sh.s.P,
		Layout:     sh.s.Layout.String(),
		Occupancy:  append([]int64(nil), sh.occupancy...),
		LocalEdges: sh.localEdges,
		CrossEdges: sh.crossEdges,
	}
	for _, d := range sh.crossDeg {
		if d > 0 {
			st.BoundaryNodes++
		}
	}
	return st
}
