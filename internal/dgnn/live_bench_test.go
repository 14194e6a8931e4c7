package dgnn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
)

// liveGraph is an n-node graph in which a random share of the nodes have
// edges (two undirected edges each, to other such nodes) and the rest none,
// so the edged nodes are closed under every ball. It returns them ascending.
func liveGraph(n int, share float64, rng *rand.Rand) (*graph.Dynamic, []int) {
	g := graph.NewDynamic(4)
	for v := 0; v < n; v++ {
		g.AddNode([]float64{rng.Float64(), rng.Float64(), 1, 0})
	}
	live := rng.Perm(n)[:int(share*float64(n))]
	sort.Ints(live)
	for _, u := range live {
		for k := 0; k < 2; k++ {
			g.AddUndirectedEdge(u, live[rng.Intn(len(live))], 0, 0)
		}
	}
	return g, live
}

// BenchmarkLiveExecutors times the engine's two executors of a live step
// with held rows, for the six kinds that hold rows, over live shares of the
// graph: a region forward over the live rows spliced into a published store,
// and a full forward masked to them (View.CommitRows) whose held rows are
// copied from the store (EmbStore.SetLive). Both give the live rows the same
// bits; the share at which the masked one becomes cheaper is the engine's
// liveRegionShare.
func BenchmarkLiveExecutors(b *testing.B) {
	const hidden = 16
	for _, k := range Kinds() {
		if !k.HoldsNodeState() {
			continue
		}
		for _, c := range []struct {
			n     int
			share float64
		}{{400, 0.5}, {400, 0.65}, {400, 0.8}, {400, 0.9}, {4000, 0.5}, {4000, 0.65}, {4000, 0.8}, {4000, 0.9}} {
			n, share := c.n, c.share
			for _, exec := range []string{"region", "masked"} {
				b.Run(fmt.Sprintf("%s/n=%d/live=%.2f/%s", k, n, share, exec), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					g, live := liveGraph(n, share, rng)
					m := New(k, rng, 4, hidden)
					tp := autodiff.NewInferenceTape()
					store := NewEmbStore()
					m.BeginStep(0)
					store.SetFull(Infer(tp, m, FullView(g)), 0)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m.BeginStep(i + 1)
						store.Publish()
						if exec == "region" {
							MergeShards(store, ForwardShards(g, m, [][]int{live}, live))
							continue
						}
						v := FullView(g)
						v.CommitRows = live
						store.SetLive(Infer(tp, m, v), live, i+1)
					}
				})
			}
		}
	}
}
