package graph

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// typedDirected is sparseDirected with three edge types.
func typedDirected(rng *rand.Rand, n int, isolated float64) *Dynamic {
	g := NewDynamic(2)
	for i := 0; i < n; i++ {
		g.AddNode(0, []float64{rng.Float64(), rng.Float64()})
	}
	if m := int(float64(n) * (1 - isolated)); m > 1 {
		for e := 0; e < m; e++ {
			g.AddEdge(rng.Intn(m), rng.Intn(m), EdgeType(rng.Intn(3)), int64(e))
		}
	}
	return g
}

// blockDiagonal is the dense reference: the blocks' dense forms on the
// diagonal of a zero matrix. Blocks may be rectangular (rows ≤ cols), as a
// diffusion's In matrices are; rowOff and colOff place block b.
func blockDiagonal(blocks []*tensor.CSR) *tensor.Matrix {
	rows, cols := 0, 0
	for _, b := range blocks {
		rows, cols = rows+b.NRows, cols+b.NCols
	}
	out := tensor.New(rows, cols)
	r0, c0 := 0, 0
	for _, b := range blocks {
		d := b.Dense()
		for r := 0; r < b.NRows; r++ {
			copy(out.Row(r0 + r)[c0:c0+b.NCols], d.Row(r))
		}
		r0, c0 = r0+b.NRows, c0+b.NCols
	}
	return out
}

func collect(subs []*Subgraph, pick func(*Subgraph) *tensor.CSR) []*tensor.CSR {
	out := make([]*tensor.CSR, len(subs))
	for i, s := range subs {
		out[i] = pick(s)
	}
	return out
}

func mustEqualDense(t *testing.T, what string, got *tensor.CSR, want *tensor.Matrix) {
	t.Helper()
	if got.NRows != want.Rows || got.NCols != want.Cols {
		t.Fatalf("%s is %dx%d, want %dx%d", what, got.NRows, got.NCols, want.Rows, want.Cols)
	}
	if !got.Dense().Equal(want) {
		t.Fatalf("%s differs from the block-diagonal reference", what)
	}
}

// checkUnion compares every matrix of the union of subs against the dense
// block-diagonal reference built from the partitions' own.
func checkUnion(t *testing.T, u *Union, subs []*Subgraph) {
	t.Helper()
	u.Build(subs)
	n := 0
	for b, s := range subs {
		if u.Offsets[b] != n {
			t.Fatalf("block %d starts at row %d, want %d", b, u.Offsets[b], n)
		}
		for i, v := range s.Nodes {
			if u.Nodes[n+i] != v {
				t.Fatalf("union row %d is node %d, want %d", n+i, u.Nodes[n+i], v)
			}
		}
		n += s.N()
	}
	if u.N() != n || u.Offsets[len(subs)] != n {
		t.Fatalf("union has %d rows, want %d", u.N(), n)
	}
	mustEqualDense(t, "NormAdj", u.NormAdj(), blockDiagonal(collect(subs, (*Subgraph).NormAdj)))
	for ty, adj := range u.TypedAdj(3) {
		ty := ty
		mustEqualDense(t, "TypedAdj", adj, blockDiagonal(collect(subs, func(s *Subgraph) *tensor.CSR { return s.TypedAdj(3)[ty] })))
	}

	// The two random-walk matrices and their active block: the union's Active
	// is the blocks' active sets concatenated, its In matrices are rows Active
	// of the n×n block-diagonal matrices, its AA matrices those rows and
	// columns — and the all-active shortcut holds exactly when every block is
	// all-active.
	d := u.Diffusion()
	fwd := blockDiagonal(collect(subs, func(s *Subgraph) *tensor.CSR { return s.RWAdj(false) }))
	rev := blockDiagonal(collect(subs, func(s *Subgraph) *tensor.CSR { return s.RWAdj(true) }))
	var active []int
	for b, s := range subs {
		for i := 0; i < s.N(); i++ {
			if s.RWAdj(false).RowNNZ(i)+s.RWAdj(true).RowNNZ(i) > 0 {
				active = append(active, u.Offsets[b]+i)
			}
		}
	}
	if d.Rows() != n || d.ActiveRows() != len(active) {
		t.Fatalf("active block is %d of %d rows, want %d of %d", d.ActiveRows(), d.Rows(), len(active), n)
	}
	if len(active) == n {
		if d.FwdAA != d.FwdIn || d.RevAA != d.RevIn {
			t.Fatal("every row active, but the A×A blocks are not the matrices themselves")
		}
	} else {
		if len(d.Active) != len(active) {
			t.Fatalf("Active = %v, want %v", d.Active, active)
		}
		for i, r := range active {
			if d.Active[i] != r {
				t.Fatalf("Active = %v, want %v", d.Active, active)
			}
		}
	}
	for _, c := range []struct {
		name   string
		full   *tensor.Matrix
		in, aa *tensor.CSR
	}{{"fwd", fwd, d.FwdIn, d.FwdAA}, {"rev", rev, d.RevIn, d.RevAA}} {
		mustEqualDense(t, c.name+" In", c.in, tensor.GatherRows(c.full, active))
		aa := tensor.New(len(active), len(active))
		for i, r := range active {
			for j, col := range active {
				aa.Set(i, j, c.full.At(r, col))
			}
		}
		mustEqualDense(t, c.name+" AA", c.aa, aa)
		nonzero := 0
		for _, v := range c.full.Data {
			if v != 0 {
				nonzero++
			}
		}
		if c.in.NNZ() < nonzero || c.aa.NNZ() != c.in.NNZ() {
			t.Fatalf("%s: the active block holds %d/%d entries of %d", c.name, c.in.NNZ(), c.aa.NNZ(), nonzero)
		}
	}
}

// TestUnionIsBlockDiagonal builds unions of random partitions — overlapping,
// repeated, around isolated centers — over graphs from fully connected to
// edgeless, reusing one Union so stale scratch would show.
func TestUnionIsBlockDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var u Union
	for _, isolated := range []float64{0, 0.5, 0.9, 1} {
		for trial := 0; trial < 4; trial++ {
			g := typedDirected(rng, 30, isolated)
			subs := make([]*Subgraph, 1+rng.Intn(6))
			for i := range subs {
				subs[i] = g.Partition(rng.Intn(g.N()), 1+rng.Intn(2))
			}
			subs = append(subs, subs[0]) // an identical pair
			checkUnion(t, &u, subs)
		}
	}
}

// TestUnionActiveBlockMixes pins the three kinds of block — all-active,
// partly active, edgeless — alone and mixed.
func TestUnionActiveBlockMixes(t *testing.T) {
	g := NewDynamic(2)
	for i := 0; i < 9; i++ {
		g.AddNode(0, []float64{float64(i), 1})
	}
	g.AddUndirectedEdge(0, 1, 0, 0) // {0,1}: every row active
	g.AddUndirectedEdge(1, 2, 0, 0)
	g.AddEdge(4, 5, 0, 0) // induced {3,4,5}: row 3 inactive
	all := g.Partition(1, 1)
	part := g.Induced([]int{3, 4, 5}, 4)
	none := g.Partition(8, 2)
	if all.Diffusion().ActiveRows() != all.N() || part.Diffusion().ActiveRows() != 2 || none.Diffusion().ActiveRows() != 0 {
		t.Fatalf("fixture blocks have %d/%d, %d/%d, %d/%d active rows", all.Diffusion().ActiveRows(), all.N(), part.Diffusion().ActiveRows(), part.N(), none.Diffusion().ActiveRows(), none.N())
	}
	var u Union
	for _, subs := range [][]*Subgraph{
		{all}, {all, all}, {part}, {none}, {none, none},
		{all, part}, {part, all}, {none, all}, {all, none, part}, {part, none, all, none},
	} {
		checkUnion(t, &u, subs)
		allActive := true
		for _, s := range subs {
			allActive = allActive && s == all
		}
		if got := u.Diffusion().ActiveRows() == u.N(); got != allActive {
			t.Fatalf("union of %d blocks: all-active shortcut %v, want %v", len(subs), got, allActive)
		}
	}
}

// TestDiffusionConvOverUnionMatchesPartitions runs one DCRNN convolution
// forward and backward over a union view and over each partition alone: the
// output rows and the input gradient rows of a block are bit-equal to the
// partition's own (every op is row-local or goes through the adjacency).
func TestDiffusionConvOverUnionMatchesPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := typedDirected(rng, 40, 0.4)
	subs := []*Subgraph{g.Partition(3, 2), g.Partition(4, 2), g.Partition(3, 2), g.Partition(39, 2), g.Partition(10, 1)}
	var u Union
	u.Build(subs)
	conv := nn.NewDiffusionConv(rng, 2, 5, 2)
	run := func(d *tensor.Diffusion, feat *tensor.Matrix, upstream *tensor.Matrix) (out, grad *tensor.Matrix) {
		tp := autodiff.NewTape()
		x := autodiff.Param(feat)
		y := conv.ApplyDiffused(tp, nn.Diffuse(tp, d, x, conv.K), nil)
		tp.Backward(tp.Sum(tp.Mul(y, autodiff.Constant(upstream))))
		return y.Value, x.Grad
	}
	upstream := tensor.NewRandom(rng, u.N(), 5, 1)
	out, grad := run(u.Diffusion(), u.Features(), upstream)
	for b, s := range subs {
		rows := make([]int, s.N())
		for i := range rows {
			rows[i] = u.Offsets[b] + i
		}
		wantOut, wantGrad := run(s.Diffusion(), s.Features(), tensor.GatherRows(upstream, rows))
		if !tensor.GatherRows(out, rows).Equal(wantOut) {
			t.Fatalf("block %d: convolution rows differ from the partition's own", b)
		}
		if !tensor.GatherRows(grad, rows).Equal(wantGrad) {
			t.Fatalf("block %d: input gradient rows differ from the partition's own", b)
		}
	}
}

// TestTypedAdjKeysOnTopology: degrees and edge types are topology, so feature
// and label writes keep Dynamic.TypedAdj's cached slice and every topology
// change replaces it; a Subgraph builds its typed adjacencies once.
func TestTypedAdjKeysOnTopology(t *testing.T) {
	g := typedDirected(rand.New(rand.NewSource(5)), 12, 0)
	first := g.TypedAdj(3)
	g.SetFeature(1, []float64{3, 3})
	g.SetLabel(2, 1)
	if again := g.TypedAdj(3); &again[0] != &first[0] {
		t.Fatal("a feature or label write rebuilt the typed adjacencies")
	}
	for _, step := range []struct {
		name   string
		mutate func()
	}{
		{"AddEdge", func() { g.AddEdge(0, 3, 1, 90) }},
		{"AddNode", func() { g.AddNode(0, nil) }},
		{"window expiry", func() { g.ExpireEdgesBefore(2) }},
	} {
		before := g.TypedAdj(3)
		step.mutate()
		after := g.TypedAdj(3)
		if &after[0] == &before[0] || after[0] == before[0] {
			t.Fatalf("%s kept the cached typed adjacencies", step.name)
		}
		if after[0].NRows != g.N() {
			t.Fatalf("%s: rebuilt typed adjacency has %d rows, want %d", step.name, after[0].NRows, g.N())
		}
	}
	s := g.Partition(3, 2)
	built := s.TypedAdj(3)
	if again := s.TypedAdj(3); &again[0] != &built[0] {
		t.Fatal("a Subgraph rebuilt its typed adjacencies")
	}
	fresh := g.Induced(s.Nodes, -1).TypedAdj(3)
	for ty := range built {
		if !built[ty].Dense().Equal(fresh[ty].Dense()) {
			t.Fatalf("cached typed adjacency %d differs from a fresh build", ty)
		}
	}
	if two := s.TypedAdj(2); len(two) != 2 || !two[1].Dense().Equal(fresh[1].Dense()) {
		t.Fatal("a different type budget did not rebuild")
	}
	// built may be in another goroutine's hands: the narrower build left it be.
	for ty := range built {
		if !built[ty].Dense().Equal(fresh[ty].Dense()) {
			t.Fatalf("typed adjacency %d was overwritten by a build of another width", ty)
		}
	}
}
