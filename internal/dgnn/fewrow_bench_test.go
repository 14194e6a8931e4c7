package dgnn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
)

// edgedGraph is an n-node graph in which a random share of the nodes have
// edges (two undirected edges each, to other such nodes) and the rest none.
func edgedGraph(n int, share float64, rng *rand.Rand) *graph.Dynamic {
	g := graph.NewDynamic(4)
	for v := 0; v < n; v++ {
		g.AddNode([]float64{rng.Float64(), rng.Float64(), 1, 0})
	}
	edged := rng.Perm(n)[:int(share*float64(n))]
	sort.Ints(edged)
	for _, u := range edged {
		for k := 0; k < 2; k++ {
			g.AddUndirectedEdge(u, edged[rng.Intn(len(edged))], 0, 0)
		}
	}
	return g
}

// BenchmarkFewRowForward times a planned NoCommit forward read on a few rows
// of a 2 800-node graph — the pass a link learner runs for its negatives
// beside the step's full forward — against that full forward, for every kind.
// The few-row pass's bookkeeping (Tape.settle, zeros, CSR.Block, the row
// table of Tape.positions and Tape.scattered) is what separates its cost from
// the rows' share of the full one. The few-row passes run the step's copy of
// the model (StepForward), as the learner's do, so every timed EvolveGCN pass
// but the first reads the step's evolution of its weights instead of running
// the GRU.
func BenchmarkFewRowForward(b *testing.B) {
	const n, hidden = 2800, 16
	for _, k := range Kinds() {
		for _, rows := range []int{3, 24, 0} {
			name := fmt.Sprintf("%s/rows=%d", k, rows)
			if rows == 0 {
				name = fmt.Sprintf("%s/full", k)
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				g := edgedGraph(n, 0.6, rng)
				m := New(k, rng, 4, hidden)
				tp := autodiff.NewInferenceTape()
				m.BeginStep(0)
				Infer(tp, m, FullView(g))
				m.BeginStep(1)
				v, f := FullView(g), m
				v.NoCommit = true
				if rows > 0 {
					v.Out, f = rng.Perm(n)[:rows], StepForward(m)
					sort.Ints(v.Out)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Forward(tp, v)
					tp.Release()
				}
			})
		}
	}
}
