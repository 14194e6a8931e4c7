package dgnn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// directedGraph holds the shapes a directed demand tells apart: pure sources
// 0–2 into a hub 3, which feeds pure sinks 4–6; a chain 7→8→9→10→11; isolated
// nodes 12–15.
func directedGraph(rng *rand.Rand) *graph.Dynamic {
	g := graph.NewDynamic(3)
	for i := 0; i < 16; i++ {
		g.AddNode([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	for s := 0; s < 3; s++ {
		g.AddEdge(s, 3, 0, 0)
	}
	for t := 4; t < 7; t++ {
		g.AddEdge(3, t, 0, 0)
	}
	for v := 7; v < 11; v++ {
		g.AddEdge(v, v+1, 0, 0)
	}
	return g
}

// TestDCRNNDirectedDemand is the candidate's directed demand on wanted rows
// that are pure sources, pure sinks, part of a chain, a hub and isolated:
//   - each hop's rows, per direction, are the hand-derived demand — the last
//     hop on the wanted active rows, the one below on those and on what they
//     read through that direction, less rows with no entry in it (+0 there:
//     the hub's sinks forward, its sources in reverse) — a strict subset of
//     the active rows, and a direction without entries among the wanted rows
//     holds their +0 rows alone;
//   - every listed row is needed: with it left out the convolution on the
//     wanted rows cannot be computed or reads another value;
//   - a forward on the wanted rows is Float64bits-equal, in value and in
//     every parameter gradient, to the forward on every row with those rows
//     gathered.
func TestDCRNNDirectedDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := directedGraph(rng)
	m := NewDCRNN(rng, 3, 4)
	// One committed forward: the recurrent state is no longer all zero.
	tp := autodiff.NewTape()
	m.Forward(tp, FullView(g))
	tp.Release()
	p := g.Diffusion()
	if p.ActiveRows() != 12 {
		t.Fatalf("%d active rows, want 12", p.ActiveRows())
	}
	type hops = [2][2][]int // [hop-1][forward, reverse]
	for _, c := range []struct {
		want []int
		hops hops
	}{
		{[]int{0, 1}, hops{{{0, 1, 3}, {0, 1}}, {{0, 1}, {0, 1}}}},
		{[]int{5, 6}, hops{{{5, 6}, {3, 5, 6}}, {{5, 6}, {5, 6}}}},
		{[]int{9}, hops{{{9, 10}, {8, 9}}, {{9}, {9}}}},
		{[]int{3, 12}, hops{{{3}, {3}}, {{3}, {3}}}},
		{[]int{7, 11, 13}, hops{{{7, 8, 11}, {7, 10, 11}}, {{7, 11}, {7, 11}}}},
	} {
		name := fmt.Sprint("want ", c.want)
		got := hopDemand(p, c.want, 2)
		for k := range got {
			for dir := range got[k] {
				if !slices.Equal(got[k][dir], c.hops[k][dir]) {
					t.Fatalf("%s: hop %d direction %d rows %v, want %v", name, k+1, dir, got[k][dir], c.hops[k][dir])
				}
			}
		}
		checkDemandNeeded(t, name, p, c.want, got)
		checkWantedForward(t, name, m, g, c.want)
	}
}

// checkDemandNeeded drops each listed row of each hop in turn: the
// convolution on want over the shortened lists must then panic or read
// another value than over the whole propagation.
func checkDemandNeeded(t *testing.T, name string, p *tensor.Diffusion, want []int, hops [][2][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	conv := nn.NewDiffusionConv(rng, 3, 2, 2)
	x := autodiff.Constant(tensor.NewRandom(rng, p.Rows(), 3, 1))
	apply := func(lists [][2][]int) []float64 {
		tp := autodiff.NewTape()
		y := conv.ApplyDiffused(tp, nn.Diffuse(tp, p, x, 2, lists), want)
		return slices.Clone(y.Value.Data)
	}
	whole := apply(hops)
	for k := range hops {
		for dir := range hops[k] {
			for i := range hops[k][dir] {
				short := slices.Clone(hops)
				short[k][dir] = slices.Delete(slices.Clone(hops[k][dir]), i, i+1)
				func() {
					defer func() { recover() }()
					if sameBits(apply(short), whole) {
						t.Fatalf("%s: hop %d direction %d computed the same without row %d", name, k+1, dir, hops[k][dir][i])
					}
				}()
			}
		}
	}
}

// checkWantedForward runs m on want (View.Want) and on every row with want
// gathered, a loss over those rows each time, and compares the values and
// every parameter gradient bit for bit.
func checkWantedForward(t *testing.T, name string, m *DCRNNModel, g *graph.Dynamic, want []int) {
	t.Helper()
	target := tensor.NewRandom(rand.New(rand.NewSource(2)), len(want), m.Hidden(), 1)
	run := func(listed bool) [][]float64 {
		v := FullView(g)
		v.NoCommit = true
		if listed {
			v.Want = want
		}
		tp := autodiff.NewTape()
		emb := m.Forward(tp, v)
		if !listed {
			emb = tp.GatherRows(emb, want)
		}
		tp.Backward(mse(tp, tp.Tanh(emb), target))
		out := [][]float64{slices.Clone(emb.Value.Data)}
		for _, prm := range m.Params() {
			if prm.Grad == nil {
				out = append(out, nil)
				continue
			}
			out = append(out, slices.Clone(prm.Grad.Data))
			prm.Grad = nil
		}
		tp.Release()
		return out
	}
	every, listed := run(false), run(true)
	for i := range every {
		if !sameBits(every[i], listed[i]) {
			t.Fatalf("%s: value or gradient %d of %d differs from every row's", name, i, len(every))
		}
	}
}
