package graph

import (
	"sort"

	"streamgnn/internal/shard"
)

// AttachSharding partitions the node-id space with s — the partition
// RegionParts groups compute regions by and ShardStats reports on — and turns
// forward-dirty tracking on: the sharded pipeline is the incremental path's
// fan-out. Ownership is a pure function of the id, so attaching to a
// populated graph is allowed; attaching concurrently with use is not.
func (g *Dynamic) AttachSharding(s *shard.Sharding) {
	g.sh = s
	g.EnableDirtyTracking()
}

// Sharding returns the attached node-space partition, nil when unsharded.
func (g *Dynamic) Sharding() *shard.Sharding { return g.sh }

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
	parts := make([][]int, g.sh.P)
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
		owner := g.sh.Of(v)
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

// ShardStats counts the attached sharding's occupancy and edge split from the
// graph, one pass over the nodes and their edges (zero value when unsharded).
// Only telemetry reads it, so nothing is maintained per mutation.
func (g *Dynamic) ShardStats() ShardStats {
	s := g.sh
	if s == nil {
		return ShardStats{}
	}
	st := ShardStats{Shards: s.P, Layout: s.Layout.String(), Occupancy: make([]int64, s.P)}
	for v, out := range g.out {
		sv := s.Of(v)
		st.Occupancy[sv]++
		boundary := false
		for _, e := range out {
			if s.Of(e.To) == sv {
				st.LocalEdges++
			} else {
				st.CrossEdges++
				boundary = true
			}
		}
		for _, e := range g.in[v] {
			boundary = boundary || s.Of(e.To) != sv
		}
		if boundary {
			st.BoundaryNodes++
		}
	}
	return st
}
