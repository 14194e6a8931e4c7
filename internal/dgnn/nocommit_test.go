package dgnn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

// TestNoCommitRowsMatchCommittedFullForward is what lets a learner compute
// the rows of a step's full forward it reads instead of waiting for them:
// after BeginStep, a planned NoCommit forward over the whole graph, read on
// random rows — nodes new this step among them, edgeless ones too — gives
// those rows of the step's committed full forward bit for bit, whether it runs
// before that forward or after it has written its state. Every kind, over a
// growing stream; from the second step on, once a snapshot exists.
func TestNoCommitRowsMatchCommittedFullForward(t *testing.T) {
	const hidden = 6
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + k)))
			g := typedGraph(40, 4)
			m := New(k, rng, 4, hidden)
			tp, few := autodiff.NewInferenceTape(), autodiff.NewInferenceTape()
			m.BeginStep(0)
			Infer(tp, m, FullView(g))
			for step := 1; step <= 5; step++ {
				mutateTyped(g, step)
				first := g.N()
				for i := 0; i < 3; i++ {
					v := g.AddNode([]float64{rng.NormFloat64(), 1, 0, float64(i)})
					if i > 0 {
						g.AddEdge(v, rng.Intn(first), graph.EdgeType(i%3), int64(100+step))
					}
				}
				m.BeginStep(step)
				out := []int{first + rng.Intn(3)}
				for v := 0; v < g.N(); v++ {
					if v != out[0] && rng.Intn(6) == 0 {
						out = append(out, v)
					}
				}
				slices.Sort(out)
				before := noCommitRows(few, m, g, out)
				full := Infer(tp, m, FullView(g))
				after := noCommitRows(few, m, g, out)
				for i, v := range out {
					for j, want := range full.Row(v) {
						for _, c := range []struct {
							when string
							got  *tensor.Matrix
						}{{"before", before}, {"after", after}} {
							if got := c.got.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("step %d, row %d, col %d, %s the committed forward: %v, the full forward %v", step, v, j, c.when, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// noCommitRows runs a planned NoCommit forward of m over the whole of g on tp,
// read on rows out, and returns a copy of them.
func noCommitRows(tp *autodiff.Tape, m Model, g *graph.Dynamic, out []int) *tensor.Matrix {
	v := FullView(g)
	v.NoCommit, v.Out = true, out
	rows := m.Forward(tp, v).Value.Clone()
	tp.Release()
	return rows
}
