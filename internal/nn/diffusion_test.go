package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

// diffusionGraph is n nodes of which the last n·isolated have no edge. The
// rest carry random directed edges; with every row wanted active a ring covers
// them all, otherwise one node is kept out-only and one in-only — rows inside
// the active block whose hop input is zero in one direction.
func diffusionGraph(rng *rand.Rand, n int, isolated float64) *graph.Dynamic {
	g := graph.NewDynamic(1)
	for i := 0; i < n; i++ {
		g.AddNode(nil)
	}
	m := int(float64(n) * (1 - isolated))
	switch {
	case m == n:
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, 0, 0)
		}
		for e := 0; e < n; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 0, 0)
		}
	case m >= 3:
		for e := 0; e < 2*m; e++ {
			g.AddEdge(rng.Intn(m-2), rng.Intn(m-2), 0, 0)
		}
		g.AddEdge(m-2, rng.Intn(m-2), 0, 0) // m-2: out-edges only
		g.AddEdge(rng.Intn(m-2), m-1, 0, 0) // m-1: in-edges only
	}
	return g
}

// denseHops and denseDiffusionConv are the convolution as its formula reads,
// over all n rows with unfused ops: the reference Diffuse and ApplyDiffused
// must match bit for bit. hops[k-1] is the pair P_f^k·x, P_r^k·x.
func denseHops(tp *autodiff.Tape, fwd, rev *tensor.CSR, x *autodiff.Node, K int) (hops [][2]*autodiff.Node) {
	xf, xr := x, x
	for k := 1; k <= K; k++ {
		xf, xr = tp.SpMM(fwd, xf), tp.SpMM(rev, xr)
		hops = append(hops, [2]*autodiff.Node{xf, xr})
	}
	return hops
}

func denseDiffusionConv(tp *autodiff.Tape, c *DiffusionConv, x *autodiff.Node, hops [][2]*autodiff.Node) *autodiff.Node {
	sum := tp.Add(tp.MatMul(x, c.Wf[0]), tp.MatMul(x, c.Wr[0]))
	for k, h := range hops {
		sum = tp.Add(sum, tp.MatMul(h[0], c.Wf[k+1]))
		sum = tp.Add(sum, tp.MatMul(h[1], c.Wr[k+1]))
	}
	return tp.AddBias(sum, c.B)
}

func sameBits(a, b *tensor.Matrix) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// The diffusion convolution on the active block against the dense reference,
// over graphs from every row active to none: value, every weight and bias
// gradient and the input gradient on a recording tape, and the value of a
// planned forward on an inference tape reused for three passes with pooling
// on, which recycles each intermediate at its last use.
func TestDiffusionConvMatchesDenseReference(t *testing.T) {
	const n, in, out, K = 60, 5, 4, 2
	for _, isolated := range []float64{0, 0.5, 0.97, 1} {
		for trial := int64(0); trial < 4; trial++ {
			t.Run(fmt.Sprintf("isolated=%v/%d", isolated, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(10*trial + 1))
				g := diffusionGraph(rng, n, isolated)
				p := g.Diffusion()
				fwd, rev := rwAdj(p, p.FwdIn), rwAdj(p, p.RevIn)
				if (p.ActiveRows() == n) != (isolated == 0) {
					t.Fatalf("graph with isolated share %v has %d of %d rows active", isolated, p.ActiveRows(), n)
				}
				xm := tensor.NewRandom(rng, n, in, 1)
				target := tensor.NewRandom(rng, n, out, 1)
				// Two consumers of one propagation, as a GRU's update and
				// reset gates are, and a second reader of x beside it.
				run := func(dense bool) (val *tensor.Matrix, grads []*tensor.Matrix) {
					r := rand.New(rand.NewSource(trial))
					c1, c2 := NewDiffusionConv(r, in, out, K), NewDiffusionConv(r, in, out, K)
					x := autodiff.Param(xm.Clone())
					tp := autodiff.NewTape()
					var y *autodiff.Node
					if dense {
						hops := denseHops(tp, fwd, rev, x, K)
						y = tp.Mul(denseDiffusionConv(tp, c1, x, hops), denseDiffusionConv(tp, c2, x, hops))
					} else {
						d := Diffuse(tp, p, x, K)
						y = tp.Mul(c1.ApplyDiffused(tp, d), c2.ApplyDiffused(tp, d))
					}
					y = tp.Add(y, tp.MatMul(x, c1.Wf[0]))
					tp.Backward(mse(tp, tp.Tanh(y), target))
					for _, prm := range append(CollectParams(c1, c2), x) {
						grads = append(grads, prm.Grad)
					}
					return y.Value, grads
				}
				wantV, wantG := run(true)
				gotV, gotG := run(false)
				if !sameBits(wantV, gotV) {
					t.Fatal("value differs from the dense reference")
				}
				for i := range wantG {
					if !sameBits(wantG[i], gotG[i]) {
						t.Fatalf("gradient %d of %d (Wf, Wr, B per conv, then x) differs from the dense reference", i, len(wantG))
					}
				}

				c := NewDiffusionConv(rand.New(rand.NewSource(trial)), in, out, K)
				ref, xc := autodiff.NewTape(), autodiff.Constant(xm)
				want := denseDiffusionConv(ref, c, xc, denseHops(ref, fwd, rev, xc, K)).Value
				tp := autodiff.NewInferenceTape()
				for pass := 0; pass < 3; pass++ {
					tp.Plan()
					x := tp.OwnedConstant(xm.Clone())
					got := tp.Detach(tp.Run(c.ApplyDiffused(tp, Diffuse(tp, p, x, K)), nil))
					tp.Release()
					if !sameBits(want, got) {
						t.Fatalf("inference pass %d: value differs from the dense reference", pass)
					}
				}
			})
		}
	}
}

// A convolution read on wanted rows, recorded on a planning tape beside a
// second consumer of the same propagation read on every row (a GRU's reset
// gate beside its update gate), against the same program computed on every
// row: the wanted rows' values and every weight, bias and input gradient are
// Float64bits-equal, over graphs from every row active to none and wanted
// sets from none to all, active and inactive rows mixed.
func TestDiffusionConvWantedRowsMatchEveryRow(t *testing.T) {
	const n, in, out, K = 40, 5, 4, 2
	for _, isolated := range []float64{0, 0.5, 0.97, 1} {
		for trial := int64(0); trial < 6; trial++ {
			rng := rand.New(rand.NewSource(20*trial + 3))
			p := diffusionGraph(rng, n, isolated).Diffusion()
			xm := tensor.NewRandom(rng, n, in, 1)
			want := wantedRows(rng, n, float64(trial)/5)
			target := tensor.NewRandom(rng, len(want), out, 1)
			run := func(planned bool) []*tensor.Matrix {
				r := rand.New(rand.NewSource(trial))
				c1, c2 := NewDiffusionConv(r, in, out, K), NewDiffusionConv(r, in, out, K)
				x := autodiff.Param(xm.Clone())
				tp := autodiff.NewTape()
				if planned {
					tp.Plan()
				}
				d := Diffuse(tp, p, x, K)
				y := tp.GatherRows(c1.ApplyDiffused(tp, d), want)
				tp.Pin(y) // read after Backward, which Tanh may write over
				loss := tp.Add(mse(tp, tp.Tanh(y), target), tp.Mean(tp.Tanh(c2.ApplyDiffused(tp, d))))
				tp.Backward(loss)
				outs := []*tensor.Matrix{y.Value}
				for _, prm := range append(CollectParams(c1, c2), x) {
					outs = append(outs, prm.Grad)
				}
				return outs
			}
			checkWantedRuns(t, fmt.Sprintf("isolated %v, %d wanted rows", isolated, len(want)), run)
		}
	}
}

// BenchmarkDiffusionConv times one diffusion convolution of the taxi-infer
// forward's shape (10000 rows, 23 → 16 channels, K = 2) on a reused inference
// tape, with 95 % of the nodes isolated — the active block — and with none,
// where it is the dense ops. `make bench-kernels` runs it.
func BenchmarkDiffusionConv(b *testing.B) {
	const n, in, out, K = 10000, 23, 16, 2
	for _, isolated := range []float64{0.95, 0} {
		b.Run(fmt.Sprintf("n=%d/isolated=%v", n, isolated), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			p := diffusionGraph(rng, n, isolated).Diffusion()
			c := NewDiffusionConv(rng, in, out, K)
			xm := tensor.NewRandom(rng, n, in, 1)
			tp := autodiff.NewInferenceTape()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := tp.OwnedConstant(xm.Clone())
				y := tp.Detach(c.ApplyDiffused(tp, Diffuse(tp, p, x, K)))
				tp.Release()
				tensor.Recycle(y)
			}
			b.ReportMetric(float64(p.ActiveRows()), "active-rows")
		})
	}
}

// rwAdj expands the active rows of one of p's matrices over all n columns
// back to the n×n random-walk adjacency, whose other rows are empty.
func rwAdj(p *tensor.Diffusion, in *tensor.CSR) *tensor.CSR {
	if in.NRows == in.NCols {
		return in
	}
	entries := make([][]tensor.CSREntry, in.NCols)
	for i, r := range p.Active {
		for k := in.RowPtr[i]; k < in.RowPtr[i+1]; k++ {
			entries[r] = append(entries[r], tensor.CSREntry{Col: in.ColIdx[k], Val: in.Val[k]})
		}
	}
	return tensor.NewCSR(in.NCols, in.NCols, entries)
}

// mse is the mean squared error of pred against the constant target, as one
// segment.
func mse(tp *autodiff.Tape, pred *autodiff.Node, target *tensor.Matrix) *autodiff.Node {
	return tp.MSESeg(pred, target, []int{target.Rows})
}
