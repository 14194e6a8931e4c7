package graph

import "sort"

// Forward-inference dirty tracking. When enabled, the graph accumulates the
// set of nodes whose forward-pass inputs changed — feature writes, label
// writes, incident-edge insertions, *and* window expiry (unlike the
// algorithmic update set U, which expiry deliberately does not feed; a
// degree change alters the GCN normalization of every incident message, so
// inference must see it). The engine drains the set once per step and
// expands it to the model's L-hop affected frontier with Ball; everything
// outside that frontier provably kept the same forward inputs, so its cached
// embedding row can be reused.
//
// Tracking rides the mutation funnel (touch / ExpireEdgesBefore) that every
// mutation passes through, so no mutation path can bypass it.

// EnableDirtyTracking starts accumulating forward-dirty nodes. Idempotent;
// tracking is off by default so engines that always run full forwards pay
// nothing. AttachSharding turns it on as well.
func (g *Dynamic) EnableDirtyTracking() {
	if g.fwdDirty == nil {
		g.fwdDirty = make(map[int]struct{})
	}
}

// TakeDirty drains and returns, in ascending order, the nodes whose forward
// inputs changed since the previous call. Nil when tracking is disabled or
// nothing changed.
func (g *Dynamic) TakeDirty() []int {
	if len(g.fwdDirty) == 0 {
		return nil
	}
	ids := make([]int, 0, len(g.fwdDirty))
	for v := range g.fwdDirty {
		ids = append(ids, v)
	}
	g.fwdDirty = make(map[int]struct{})
	sort.Ints(ids)
	return ids
}

// Ball returns the nodes within L undirected hops of any source (sources
// included, deduplicated), in ascending id order. One source is the node set
// of its training partition G_v (Section III-C); the dirty set is the sources
// of a step's exact rows. Visited marks live in a pooled scratch slice instead
// of a per-call map.
func (g *Dynamic) Ball(sources []int, L int) []int {
	if len(sources) == 0 {
		return nil
	}
	seen := getScratch(len(g.ntype))
	ids := make([]int, 0, len(sources))
	for _, v := range sources {
		g.checkNode(v)
		if seen[v] == 0 {
			seen[v] = 1
			ids = append(ids, v)
		}
	}
	frontier := ids
	for hop := 0; hop < L && len(frontier) > 0; hop++ {
		var next []int
		for _, u := range frontier {
			for _, e := range g.out[u] {
				if seen[e.To] == 0 {
					seen[e.To] = 1
					next = append(next, e.To)
				}
			}
			for _, e := range g.in[u] {
				if seen[e.To] == 0 {
					seen[e.To] = 1
					next = append(next, e.To)
				}
			}
		}
		ids = append(ids, next...)
		frontier = next
	}
	for _, u := range ids {
		seen[u] = 0
	}
	putScratch(seen)
	sort.Ints(ids)
	return ids
}
