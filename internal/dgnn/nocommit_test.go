package dgnn

import (
	"fmt"
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

// A step's copy of an EvolveGCN model (StepForward) evolves its weights once
// for the step's NoCommit forwards on an inference tape: several passes on
// different rows read bit for bit what the live model's own passes read, and
// every pass after the first meters fewer floats. A copy made after BeginStep
// of the next step, and one made after a checkpoint restore at the same step,
// with the GRU's values changed each time, read the weights the new values
// evolve, and the copy made before does not; any other kind's is the live
// model itself.
func TestEvolveGCNStepForwardEvolvesOnce(t *testing.T) {
	const hidden = 6
	g := typedGraph(40, 4)
	tp := autodiff.NewInferenceTape()
	m := New(EvolveGCN, rand.New(rand.NewSource(17)), 4, hidden)
	m.BeginStep(0)
	Infer(tp, m, FullView(g))
	nudge := func() {
		for _, p := range m.Params() {
			for i := range p.Value.Data {
				p.Value.Data[i] *= 1.01
			}
		}
	}
	same := func(when string, s Model, out []int, want bool) {
		t.Helper()
		got, live := noCommitRows(tp, s, g, out), noCommitRows(tp, m, g, out)
		if eq := slices.Equal(bits(got.Data), bits(live.Data)); eq != want {
			t.Fatalf("%s: rows bit-equal to the live model's: %v, want %v", when, eq, want)
		}
	}
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	m.BeginStep(1)
	s := StepForward(m)
	var first int64
	for pass, out := range [][]int{{3}, {0, 7, 21}, {3}, {5, 39}} {
		tensor.ResetMeter()
		rows := noCommitRows(tp, s, g, out)
		floats := tensor.TotalFloats()
		tensor.Recycle(rows)
		if pass == 0 {
			first = floats
		} else if floats >= first {
			t.Fatalf("pass %d of the step metered %d floats, the first %d", pass, floats, first)
		}
		same(fmt.Sprintf("pass %d of step 1", pass), s, out, true)
	}
	nudge()
	m.BeginStep(2)
	same("the step 1 copy at step 2", s, []int{2, 30}, false)
	s = StepForward(m)
	same("a copy made at step 2", s, []int{2, 30}, true)
	nudge()
	restore, err := m.RestoreState(m.DumpState())
	if err != nil {
		t.Fatal(err)
	}
	restore()
	same("the copy made before a restore", s, []int{2, 30}, false)
	same("a copy made after a restore", StepForward(m), []int{2, 30}, true)
	if other := New(GCLSTM, rand.New(rand.NewSource(1)), 4, hidden); StepForward(other) != other {
		t.Fatal("StepForward of a GCLSTM model is not the model itself")
	}
}

func bits(x []float64) []uint64 {
	b := make([]uint64, len(x))
	for i, v := range x {
		b[i] = math.Float64bits(v)
	}
	return b
}
