// Fixture for the poolsafe analyzer: use-after-release and double-release of
// pooled matrices and released tape nodes.
package a

import (
	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
)

// Positive: reading a matrix after handing it back to the pool.
func useAfterRecycle() float64 {
	m := tensor.New(2, 2)
	tensor.Recycle(m)
	return tensor.Sum(m) // want `use after release: m is a recycled matrix`
}

// Positive: recycling the same matrix twice.
func doubleRecycle() {
	m := tensor.New(2, 2)
	tensor.Recycle(m)
	tensor.Recycle(m) // want `double release: m was already recycled`
}

// Positive: a tape-produced node outlives the tape's Release.
func useAfterTapeRelease() *autodiff.Node {
	tp := autodiff.NewTape()
	n := tp.Add(nil, nil)
	tp.Release()
	return n // want `use after release: n is a released tape node`
}

// Positive: the scatter's output is the tape's like any op's, whatever became
// of the base it copied.
func useScatterAfterTapeRelease(base, src *autodiff.Node) *tensor.Matrix {
	tp := autodiff.NewTape()
	sc := tp.ScatterRows(base, src, []int{0})
	tp.Release()
	return sc.Value // want `use after release: sc is a released tape node`
}

// Positive: a head is a copy the tape owns, not a view that lives as long as
// whatever it was taken from.
func useHeadAfterTapeRelease(emb *autodiff.Node) *tensor.Matrix {
	tp := autodiff.NewTape()
	h := tp.Head(emb, 2)
	tp.Release()
	return h.Value // want `use after release: h is a released tape node`
}

// Positive: a segmented loss's column of per-unit means is the tape's too —
// a round's utilities must be read off it before the tape is released.
func useSegLossAfterTapeRelease(pred *autodiff.Node, target *tensor.Matrix) float64 {
	tp := autodiff.NewTape()
	col := tp.MSESeg(pred, target, []int{1, 2})
	tp.Release()
	return col.Value.Data[0] // want `use after release: col is a released tape node`
}

// Positive: nodes from free functions that take the tape count too.
func useAfterTapeReleaseFree(x *tensor.Matrix) *autodiff.Node {
	tp := autodiff.NewTape()
	n := autodiff.Forward(tp, x)
	tp.Release()
	return n // want `use after release: n is a released tape node`
}

// Negative: reassignment gives the name a fresh buffer.
func reassigned() float64 {
	m := tensor.New(2, 2)
	tensor.Recycle(m)
	m = tensor.New(2, 2)
	return tensor.Sum(m)
}

// Negative: a release inside a branch may not execute, so statements after
// the branch stay clean.
func branchRelease(cond bool) float64 {
	m := tensor.New(2, 2)
	if cond {
		tensor.Recycle(m)
	}
	return tensor.Sum(m)
}

// Negative: deferred release runs at function exit, after every use.
func deferredRelease() float64 {
	tp := autodiff.NewTape()
	defer tp.Release()
	n := tp.Add(nil, nil)
	return float64(len(n.Value.Data))
}

// Escape hatch: a justified //streamlint:pool-ok waives the check.
func waived() float64 {
	m := tensor.New(2, 2)
	tensor.Recycle(m)
	//streamlint:pool-ok read-only diagnostic access before the pool can reuse the buffer
	return tensor.Sum(m)
}
