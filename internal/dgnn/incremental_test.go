package dgnn

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
)

func TestEmbStoreSpliceAndGrow(t *testing.T) {
	s := NewEmbStore()
	if s.Valid() || s.Rows() != 0 || s.LastFullStep() != -1 {
		t.Fatal("fresh store should be invalid and empty")
	}

	full := tensor.New(3, 2)
	for i := range full.Data {
		full.Data[i] = float64(i)
	}
	s.SetFull(full, 5)
	if !s.Valid() || s.Rows() != 3 || s.LastFullStep() != 5 {
		t.Fatalf("after SetFull: valid=%v rows=%d last=%d", s.Valid(), s.Rows(), s.LastFullStep())
	}

	// Splice rows 0 and 2 of a patch matrix into global ids 1 and 4 (4 grows
	// the store to 5 rows; row 3 stays zero).
	patch := tensor.New(3, 2)
	for i := range patch.Data {
		patch.Data[i] = 100 + float64(i)
	}
	s.Splice(patch, []int{0, 2}, []int{1, 4})
	m := s.Matrix()
	if m.Rows != 5 {
		t.Fatalf("splice should grow to 5 rows, got %d", m.Rows)
	}
	want := [][]float64{{0, 1}, {100, 101}, {4, 5}, {0, 0}, {104, 105}}
	for i, row := range want {
		for j, v := range row {
			if m.At(i, j) != v {
				t.Fatalf("row %d col %d = %v, want %v", i, j, m.At(i, j), v)
			}
		}
	}

	s.Invalidate()
	if s.Valid() || s.LastFullStep() != -1 {
		t.Fatal("Invalidate should drop the matrix")
	}
}

func TestEmbStoreDumpRestore(t *testing.T) {
	s := NewEmbStore()
	if s.Dump() != nil {
		t.Fatal("invalid store should dump nil")
	}
	m := tensor.New(2, 3)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.5
	}
	s.SetFull(m, 7)

	d := s.Dump()
	r := NewEmbStore()
	install, err := r.Restore(d, s.LastFullStep())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	install()
	if !r.Valid() || r.LastFullStep() != 7 {
		t.Fatal("restored store metadata wrong")
	}
	if !r.Matrix().AllClose(s.Matrix(), 0) {
		t.Fatal("restored matrix differs")
	}
	bad := &StateDump{Rows: 2, Cols: 3, Data: []float64{1}}
	if _, err := r.Restore(bad, 0); err == nil {
		t.Fatal("malformed dump accepted")
	}
	if install, err = r.Restore(nil, 0); err != nil {
		t.Fatal(err)
	}
	install()
	if r.Valid() {
		t.Fatal("nil dump should invalidate")
	}
}

func TestLocalRows(t *testing.T) {
	nodes := []int{2, 5, 7, 9, 12}
	got := LocalRows(nodes, []int{5, 9, 12})
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("LocalRows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LocalRows = %v, want %v", got, want)
		}
	}
	if rows := LocalRows(nodes, nil); len(rows) != 0 {
		t.Fatalf("empty subset should give no rows, got %v", rows)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("subset outside nodes should panic")
		}
	}()
	LocalRows(nodes, []int{5, 8})
}

// CommitRows must restrict recurrent-state write-back to the listed rows.
func TestCommitRowsMasksStateWriteback(t *testing.T) {
	g := ring(8, 3)
	rng := rand.New(rand.NewSource(3))
	m := NewTGCN(rng, 3, 4)

	// One committed full forward to seed state everywhere.
	m.BeginStep(0)
	tp := autodiff.NewTape()
	m.Forward(tp, FullView(g))
	before := m.state.gather(FullView(g))

	// Forward on a subgraph of nodes {1,2,3}, committing only row 1 (node 2).
	sub := g.Induced([]int{1, 2, 3}, 2)
	v := DirtyView(sub, []int{1})
	m.BeginStep(1)
	tp = autodiff.NewTape()
	out := m.Forward(tp, v)
	after := m.state.gather(FullView(g))

	for id := 0; id < 8; id++ {
		changed := false
		for j := 0; j < 4; j++ {
			if before.At(id, j) != after.At(id, j) {
				changed = true
			}
		}
		if id == 2 && !changed {
			t.Fatal("committed row's state did not update")
		}
		if id != 2 && changed {
			t.Fatalf("node %d state changed despite commit mask", id)
		}
	}
	// And the committed state matches the forward's output row.
	for j := 0; j < 4; j++ {
		if after.At(2, j) != out.Value.At(1, j) {
			t.Fatal("committed state does not match forward output")
		}
	}
}

// Memoryless flags: WinGNN alone is a pure function of the view.
func TestMemorylessFlags(t *testing.T) {
	for _, m := range allModels(t) {
		want := m.Name() == "WinGNN"
		if m.Memoryless() != want {
			t.Fatalf("%s Memoryless = %v, want %v", m.Name(), m.Memoryless(), want)
		}
	}
}

// The core exactness property: for a memoryless model, forwarding the
// induced compute region (dirty ball expanded by L hops) and reading the
// exact rows is bit-identical to the same rows of a full-graph forward.
func TestWinGNNDirtyRegionBitExact(t *testing.T) {
	g := ring(20, 3)
	rng := rand.New(rand.NewSource(11))
	m := NewWinGNN(rng, 3, 4)
	L := m.Layers()

	for _, src := range [][]int{{0}, {3, 4}, {7, 15}} {
		tp := autodiff.NewTape()
		full := m.Forward(tp, FullView(g)).Value

		exact := g.Ball(src, L)
		region := g.Ball(exact, L)
		sub := g.Induced(region, src[0])
		rows := LocalRows(sub.Nodes, exact)
		tp = autodiff.NewTape()
		inc := m.Forward(tp, DirtyView(sub, rows)).Value

		for k, i := range rows {
			id := exact[k]
			for j := 0; j < 4; j++ {
				if inc.At(i, j) != full.At(id, j) {
					t.Fatalf("src %v node %d col %d: incremental %v != full %v",
						src, id, j, inc.At(i, j), full.At(id, j))
				}
			}
		}
	}
}
