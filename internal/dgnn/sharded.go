package dgnn

import (
	"sync"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

// Sharded incremental forward: the engine computes a step's exact rows and
// compute region globally (so the full-forward fallback decision and the
// region itself never depend on P), partitions the region by connected
// component with graph.RegionParts, runs one forward per shard part, and
// merges the results back into the shared embedding store in a deterministic
// order. Component isolation makes each part's rows bit-identical to the
// same rows of a whole-region forward, so shards=1 and shards=P agree bit
// for bit on seeded runs.

// partScratch is what one incremental forward works in: the hop-ordered
// region it lays out and the inference tape it runs on. Each ForwardPart
// borrows one for its duration, so concurrent parts share neither, and a warm
// one brings back the region's arrays and the tape's node shells and release
// plan.
type partScratch struct {
	region graph.Region
	tape   *autodiff.Tape
}

var partPool = sync.Pool{New: func() any { return &partScratch{tape: autodiff.NewInferenceTape()} }}

// ShardForward is one shard's slice of a sharded incremental forward.
type ShardForward struct {
	// Shard is the owning shard index.
	Shard int
	// IDs are the exact rows that fell inside this shard's region part —
	// ascending global ids, the rows Out carries committed values for and
	// the rows MergeShards splices.
	IDs []int
	// Rows are the rows of Out that hold IDs' embeddings, in IDs' order.
	Rows []int
	// Out is the embedding matrix the part's forward returned — the exact
	// rows lead it; nil for a shard with no region nodes.
	Out *tensor.Matrix
	// Demand counts the rows the forward had to cover at depth 0 (the exact
	// rows), 1 (within a hop of them) and 2 (the part).
	Demand [3]int
}

// ForwardShards runs one committed incremental forward per non-empty shard
// part and returns the per-shard results, indexed like parts. parts must be
// a component-respecting partition of the step's compute region
// (graph.RegionParts) and exact the global exact-row set (ascending) whose
// L-hop balls that region covers; each shard commits exactly the exact rows
// its part contains, so the union of commits over shards equals the
// unsharded commit set.
//
// Models implementing StatePregrower run in parallel: state buffers are
// grown up front on this goroutine, every per-shard view sets SnapshotState
// so gathers read the BeginStep snapshot (identical to live state at this
// point in the step), and the parts' disjoint node sets keep state writes
// row-disjoint across workers. Models without it — EvolveGCN mutates weight
// recurrences inside a committed Forward — fall back to a serial loop in
// shard index order, which computes the same values since each shard still
// sees only its own components.
//
// The caller must have called m.BeginStep for this step already (the engine
// does), so a snapshot exists and matches the live state.
func ForwardShards(g *graph.Dynamic, m Model, parts [][]int, exact []int) []ShardForward {
	res := make([]ShardForward, len(parts))
	pg, parallel := m.(StatePregrower)
	if parallel {
		pg.PregrowState(g.N())
	}
	run := func(s int) {
		res[s] = ForwardPart(g, m, s, parts[s], exact)
	}
	if !parallel || len(parts) == 1 {
		for s := range parts {
			run(s)
		}
		return res
	}
	var wg sync.WaitGroup
	for s := range parts {
		if len(parts[s]) == 0 {
			res[s].Shard = s
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			run(s)
		}(s)
	}
	wg.Wait()
	return res
}

// ForwardPart is THE incremental forward — the unit of work ForwardShards
// fans out, the whole of an unsharded engine's splice step (one part: the
// region), and the exact computation a shard replica executes remotely
// (internal/cluster), so all three share one code path and stay bit-identical.
// It lays the part out in demand order around the exact rows it contains
// (graph.Region) and runs the committed forward over that: state gathered from
// the BeginStep snapshot, each intermediate computed on the rows the exact
// rows read, state written back for the exact rows alone. Every row it returns
// equals, bit for bit, the same node's row of the whole-part forward on the
// ascending subgraph (DirtyView over Induced), which stays as the reference.
// nodes must be one component-respecting part (graph.RegionParts) and exact
// the global exact-row set (ascending); both may span other shards — the
// intersection is taken here. The caller is responsible for BeginStep and,
// when parts run concurrently, for PregrowState.
func ForwardPart(g *graph.Dynamic, m Model, s int, nodes, exact []int) ShardForward {
	res := ShardForward{Shard: s}
	if len(nodes) == 0 {
		return res
	}
	sc := partPool.Get().(*partScratch)
	res.IDs = IntersectSorted(exact, nodes)
	sc.region.Build(g, nodes, res.IDs, m.Layers())
	v := RegionView(&sc.region)
	v.SnapshotState = true
	res.Demand = [3]int{v.rows(0), v.rows(1), v.N}
	res.Out = Infer(sc.tape, m, v)
	partPool.Put(sc)
	res.Rows = make([]int, len(res.IDs))
	for i := range res.Rows {
		res.Rows[i] = i
	}
	return res
}

// MergeSorted merges two ascending id slices into a fresh ascending slice
// without duplicates.
func MergeSorted(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 {
		return append([]int(nil), a...)
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// IntersectSorted returns the elements common to two ascending id slices.
func IntersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// MergeShards splices every shard's exact rows into the shared embedding
// store, in shard index order with each shard's rows ascending — a fixed
// total order, so the merged store is identical however the per-shard
// forwards were scheduled. Returns the number of rows spliced. (Order only
// matters for determinism of iteration-sensitive consumers; the row sets
// themselves are disjoint across shards.)
func MergeShards(store *EmbStore, res []ShardForward) int {
	rows := 0
	for _, r := range res {
		if r.Out == nil {
			continue
		}
		store.Splice(r.Out, r.Rows, r.IDs)
		rows += len(r.IDs)
	}
	return rows
}
