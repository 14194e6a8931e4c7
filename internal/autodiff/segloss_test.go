package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

// segEnds has an empty first, middle and last segment around three real ones.
var segEnds = []int{0, 3, 3, 4, 9, 9}

type segLoss struct {
	name string
	seg  func(tp *Tape, pred *Node, target *tensor.Matrix, ends []int) *Node
	one  func(tp *Tape, pred *Node, target *tensor.Matrix) *Node
	// ref is the scalar definition over rows alone: the mean loss and, times
	// upstream, its gradient per element.
	ref func(pred, target []float64, upstream float64) (float64, []float64)
}

var segLosses = []segLoss{
	{
		name: "MSESeg",
		seg:  (*Tape).MSESeg,
		one:  (*Tape).MSE,
		ref: func(pred, target []float64, upstream float64) (float64, []float64) {
			var s float64
			grad := make([]float64, len(pred))
			n := float64(len(pred))
			for i := range pred {
				d := pred[i] - target[i]
				s += d * d
				grad[i] = upstream * 2 / n * d
			}
			return s / n, grad
		},
	},
	{
		name: "BCESeg",
		seg:  (*Tape).BCESeg,
		one:  (*Tape).BCEWithLogits,
		ref: func(logits, target []float64, upstream float64) (float64, []float64) {
			var s float64
			grad := make([]float64, len(logits))
			n := float64(len(logits))
			for i, z := range logits {
				y := target[i]
				if z > 0 {
					s += z - y*z + math.Log1p(math.Exp(-z))
				} else {
					s += -y*z + math.Log1p(math.Exp(z))
				}
				grad[i] = upstream / n * (tensor.Sigmoid(z) - y)
			}
			return s / n, grad
		},
	},
}

func segFixture(seed int64, cols int) (*Node, *tensor.Matrix, *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	rows := segEnds[len(segEnds)-1]
	pred := Param(tensor.NewRandom(rng, rows, cols, 2))
	target := tensor.New(rows, cols)
	for i := range target.Data {
		target.Data[i] = float64(rng.Intn(2))
	}
	weights := tensor.NewRandom(rng, len(segEnds), 1, 1)
	return pred, target, weights
}

// TestSegLossGrad checks both segmented losses against finite differences,
// each segment under its own weight so no segment's gradient can hide behind
// another's.
func TestSegLossGrad(t *testing.T) {
	for _, l := range segLosses {
		for _, cols := range []int{1, 2} {
			pred, target, weights := segFixture(11, cols)
			checkGrad(t, []*Node{pred}, func(tp *Tape) *Node {
				return tp.Sum(tp.Mul(l.seg(tp, pred, target, segEnds), Constant(weights)))
			})
		}
	}
}

// TestSegLossMatchesPerSegment is the property the training round's
// utilities rest on: entry s of the column, and the gradient it passes to its
// rows, are bit for bit the scalar loss over those rows alone — also when the
// tape computes that one segment with MSE/BCEWithLogits over gathered rows —
// and an empty segment reads +0 and touches no gradient.
func TestSegLossMatchesPerSegment(t *testing.T) {
	for _, l := range segLosses {
		pred, target, weights := segFixture(12, 1)
		tp := NewTape()
		col := l.seg(tp, pred, target, segEnds)
		tp.Backward(tp.Sum(tp.Mul(col, Constant(weights))))
		lo := 0
		for s, hi := range segEnds {
			if hi == lo {
				if v := col.Value.Data[s]; v != 0 || math.Signbit(v) {
					t.Fatalf("%s: empty segment %d reads %v, want +0", l.name, s, v)
				}
				continue
			}
			want, wantGrad := l.ref(pred.Value.Data[lo:hi], target.Data[lo:hi], weights.Data[s])
			if math.Float64bits(col.Value.Data[s]) != math.Float64bits(want) {
				t.Fatalf("%s: segment %d value %v, alone %v", l.name, s, col.Value.Data[s], want)
			}
			for i, g := range wantGrad {
				if got := pred.Grad.Data[lo+i]; math.Float64bits(got) != math.Float64bits(0+g) {
					t.Fatalf("%s: segment %d row %d gradient %v, alone %v", l.name, s, i, got, g)
				}
			}
			// The same rows as a loss of their own on a tape of their own.
			rows := make([]int, 0, hi-lo)
			for r := lo; r < hi; r++ {
				rows = append(rows, r)
			}
			alone := Param(tensor.GatherRowsConcatTo(nil, one(pred.Value), rows))
			tp1 := NewTape()
			out := l.one(tp1, alone, tensor.GatherRowsConcatTo(nil, one(target), rows))
			tp1.Backward(tp1.Scale(out, weights.Data[s]))
			if math.Float64bits(out.Value.Data[0]) != math.Float64bits(want) {
				t.Fatalf("%s: one-segment op value %v, reference %v", l.name, out.Value.Data[0], want)
			}
			for i, g := range alone.Grad.Data {
				if math.Float64bits(g) != math.Float64bits(pred.Grad.Data[lo+i]) {
					t.Fatalf("%s: segment %d row %d gradient %v on its own tape, %v in the column", l.name, s, i, g, pred.Grad.Data[lo+i])
				}
			}
			lo = hi
		}
		pred.Grad = nil
	}
}

// TestSegLossInference runs the ops on an inference tape: values only, same
// bits, nothing recorded for a backward that cannot happen.
func TestSegLossInference(t *testing.T) {
	for _, l := range segLosses {
		pred, target, _ := segFixture(13, 1)
		want := l.seg(NewTape(), pred, target, segEnds).Value
		inf := NewInferenceTape()
		got := l.seg(inf, pred, target, segEnds)
		if !got.Value.Equal(want) {
			t.Fatalf("%s: inference value %v, recording %v", l.name, got.Value, want)
		}
		if got.auxInts != nil {
			t.Fatalf("%s: inference tape copied the segment ends", l.name)
		}
		inf.Release()
	}
}

// TestSegLossValidation rejects ends that do not partition the rows.
func TestSegLossValidation(t *testing.T) {
	pred, target, _ := segFixture(14, 1)
	for name, ends := range map[string][]int{
		"descending": {4, 3, 9},
		"short":      {3, 8},
		"long":       {3, 10},
		"none":       {},
	} {
		for _, l := range segLosses {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted %s ends %v", l.name, name, ends)
					}
				}()
				l.seg(NewTape(), pred, target, ends)
			}()
		}
	}
}

// MSE is MSESeg over one segment: the mean squared error between pred and the
// constant target.
func (t *Tape) MSE(pred *Node, target *tensor.Matrix) *Node {
	return t.MSESeg(pred, target, []int{pred.Value.Rows})
}

// BCEWithLogits is BCESeg over one segment: the mean binary cross-entropy of
// logits against the constant 0/1 target.
func (t *Tape) BCEWithLogits(logits *Node, target *tensor.Matrix) *Node {
	return t.BCESeg(logits, target, []int{logits.Value.Rows})
}

// one is m as a concatenation of one part.
func one(m *tensor.Matrix) tensor.Concat {
	return tensor.Concat{Rows: m.Rows, Parts: []*tensor.Matrix{m}}
}

// dense copies a concatenation's parts side by side into one new matrix.
func dense(c tensor.Concat) *tensor.Matrix {
	out := tensor.New(c.Rows, c.Cols())
	for r := 0; r < c.Rows; r++ {
		off := 0
		for _, p := range c.Parts {
			off += copy(out.Row(r)[off:], p.Row(r))
		}
	}
	return out
}

// sliceCols returns the column range [from, to) of m as a new matrix.
func sliceCols(m *tensor.Matrix, from, to int) *tensor.Matrix {
	out := tensor.New(m.Rows, to-from)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r)[from:to])
	}
	return out
}
