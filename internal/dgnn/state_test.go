package dgnn

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
)

// The invariant behind node-level training partitions: within a step, a
// NoCommit forward over a node's L-hop partition reproduces the inference
// embedding of that node — exactly for models whose receptive field equals
// Layers() (GCLSTM, DyGrEncoder, ROLAND, WinGNN, EvolveGCN), and to within
// a small epsilon for the gated-conv recurrences whose reset-gate nesting
// adds one effective hop (TGCN, DCRNN).
func TestPartitionCenterEmbeddingMatchesInference(t *testing.T) {
	g := ring(12, 3)
	tolerance := map[Kind]float64{
		TGCN:  1e-3,
		DCRNN: 1e-2, // K=2 diffusion inside the reset gate: 2 extra hops
		RTGCN: 5e-3, // same gate nesting as TGCN
	}
	for _, k := range Kinds() {
		tol, ok := tolerance[k]
		if !ok {
			tol = 1e-9
		}
		rng := rand.New(rand.NewSource(3))
		m := New(k, rng, 3, 4)
		// Warm up two committed steps so state is non-trivial.
		for step := 0; step < 2; step++ {
			m.BeginStep(step)
			tp := autodiff.NewTape()
			m.Forward(tp, FullView(g))
		}
		m.BeginStep(2)
		tp := autodiff.NewTape()
		inf := m.Forward(tp, FullView(g)).Value
		for _, v := range []int{0, 5, 9} {
			sub := g.Partition(v, m.Layers())
			sv := SubView(sub)
			sv.NoCommit = true
			tp2 := autodiff.NewTape()
			part := m.Forward(tp2, sv).Value
			for c := 0; c < 4; c++ {
				got := part.At(sub.Center, c)
				want := inf.At(v, c)
				if diff := got - want; diff > tol || diff < -tol {
					t.Fatalf("%s: node %d dim %d: partition %v vs inference %v", k, v, c, got, want)
				}
			}
		}
	}
}

// The state snapshot must survive multiple training forwards within a step:
// repeated NoCommit forwards are idempotent even after inference committed.
func TestNoCommitIdempotentAfterCommit(t *testing.T) {
	g := ring(8, 3)
	for _, k := range []Kind{TGCN, DCRNN, GCLSTM, DyGrEncoder, ROLAND} {
		rng := rand.New(rand.NewSource(4))
		m := New(k, rng, 3, 4)
		m.BeginStep(0)
		tp := autodiff.NewTape()
		m.Forward(tp, FullView(g)) // commit
		sub := g.Partition(2, m.Layers())
		sv := SubView(sub)
		sv.NoCommit = true
		tp = autodiff.NewTape()
		out1 := m.Forward(tp, sv).Value.Clone()
		tp = autodiff.NewTape()
		out2 := m.Forward(tp, sv).Value
		if !out1.AllClose(out2, 1e-12) {
			t.Fatalf("%s: NoCommit forwards differ within a step", k)
		}
	}
}

// Snapshot growth: nodes added after a snapshot still forward safely.
func TestSnapshotWithGraphGrowth(t *testing.T) {
	g := ring(6, 3)
	rng := rand.New(rand.NewSource(5))
	m := NewTGCN(rng, 3, 4)
	m.BeginStep(0)
	tp := autodiff.NewTape()
	m.Forward(tp, FullView(g))
	// New node arrives mid-step; a training forward touching it must not
	// panic and must see zero state for it.
	v := g.AddNode([]float64{1, 0, 0})
	g.AddUndirectedEdge(v, 0, 0, 1)
	sub := g.Partition(v, m.Layers())
	sv := SubView(sub)
	sv.NoCommit = true
	tp = autodiff.NewTape()
	out := m.Forward(tp, sv)
	if out.Value.Rows != sub.N() {
		t.Fatal("growth forward wrong shape")
	}
}

// gather returns the state rows of every node of the view, as a forward's
// input holds them (a copy).
func (s *nodeState) gather(v View) *tensor.Matrix {
	out := tensor.NewUninit(v.N, s.dim)
	s.source(v)(nil, out)
	return out
}
