package nn

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
)

// Which relations have an edge changes with the stream, and with it which ops
// read the convolution's input. A planned forward on one inference tape
// releases the input after its own last reader of it, whatever readers the
// pass before had: never under the readers a live relation adds.
func TestRGCNConvRelationAppearsBetweenPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewRGCNConv(rng, 3, 2, 2)
	xm := tensor.NewRandom(rng, 4, 3, 1)
	empty := tensor.NewCSR(4, 4, nil)
	ring := tensor.NewCSR(4, 4, [][]tensor.CSREntry{{{Col: 1, Val: .5}}, {{Col: 2, Val: .5}}, {{Col: 3, Val: .5}}, {{Col: 0, Val: .5}}})
	forward := func(tp *autodiff.Tape, typed []*tensor.CSR) *tensor.Matrix {
		tp.Plan()
		out := c.Apply(tp, typed, tp.Tanh(tp.OwnedConstant(xm.Clone())))
		return tp.Detach(tp.Run(out, nil))
	}
	tp := autodiff.NewInferenceTape()
	for pass, typed := range [][]*tensor.CSR{{empty, empty}, {empty, empty}, {empty, ring}, {ring, ring}, {empty, empty}} {
		want := forward(autodiff.NewTape(), typed)
		got := forward(tp, typed)
		tp.Release()
		if !want.Equal(got) {
			t.Fatalf("pass %d differs from a recording tape", pass)
		}
	}
}
