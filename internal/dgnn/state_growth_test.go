package dgnn

import (
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

// On a stream that adds a node every step the BeginStep snapshot copies the
// page table, not the state: a snapshot plus a one-row write meters at most
// one page, untouched pages stay shared, and the snapshot still reads as
// before — stored rows as they were at the snapshot, a node newer than the
// snapshot as zeros.
func TestSnapshotCopiesTouchedPagesOnly(t *testing.T) {
	const dim, steps = 16, 200
	page := int64(tensor.PageRows * dim)
	s := newNodeState(dim)
	row, sentinel := tensor.New(1, dim), tensor.New(1, dim)
	fill(sentinel, -1)
	for step := 0; step < steps; step++ {
		fill(row, float64(step+1))
		s.write(View{N: 1, IDs: []int{step}}, row)
		// One node more than the snapshot holds, and the live state moves on
		// under it; the write lands in a page the snapshot shares unless the
		// new node opens a page.
		tensor.EnableMeter(true)
		tensor.ResetMeter()
		s.snapshot()
		s.write(View{N: 1, IDs: []int{step + 1}}, row)
		tensor.EnableMeter(false)
		if got := tensor.TotalFloats(); got > page {
			t.Fatalf("step %d: snapshot and a one-row write metered %d floats, want at most one page (%d)", step, got, page)
		}
		if step+1 >= tensor.PageRows && &s.snap.Row(0)[0] != &s.data.Row(0)[0] {
			t.Fatalf("step %d: the snapshot copied a page no write touched", step)
		}
		// Overwriting a row the snapshot holds leaves the snapshot's bits.
		s.write(View{N: 1, IDs: []int{step}}, sentinel)
		got := s.gather(View{N: step + 2, NoCommit: true})
		s.write(View{N: 1, IDs: []int{step}}, row)
		for id := 0; id <= step+1; id++ {
			want := float64(id + 1)
			if id > step {
				want = 0
			}
			for _, v := range got.Row(id) {
				if v != want {
					t.Fatalf("step %d: node %d reads %v from the snapshot, want %v", step, id, v, want)
				}
			}
		}
	}
}

// A step that does not train drops the snapshot, and its commits then write
// the state's pages in place: a write meters nothing.
func TestDropSnapshotWritesInPlace(t *testing.T) {
	m := NewTGCN(rand.New(rand.NewSource(1)), 2, 4)
	row := tensor.New(1, 4)
	m.state.write(View{N: 1, IDs: []int{100}}, row)
	m.BeginStep(1)
	DropSnapshot(m)
	tensor.EnableMeter(true)
	tensor.ResetMeter()
	m.state.write(View{N: 1, IDs: []int{5}}, row)
	tensor.EnableMeter(false)
	if got := tensor.TotalFloats(); got != 0 || m.state.snap != nil {
		t.Fatalf("after DropSnapshot a write metered %d floats (snapshot kept: %v)", got, m.state.snap != nil)
	}
}

// A scatter of state rows from outside the process refuses ids that are out
// of order or negative instead of writing them.
func TestScatterStateRowsRejectsBadIDs(t *testing.T) {
	m := NewTGCN(rand.New(rand.NewSource(1)), 2, 4)
	for _, ids := range [][]int{{-1}, {3, 1}} {
		d := StateDump{Rows: len(ids), Cols: 4, Data: make([]float64, 4*len(ids))}
		if err := m.ScatterStateRows(ids, []StateDump{d}); err == nil {
			t.Fatalf("scatter to %v accepted", ids)
		}
	}
}

// fill sets every element of m to v.
func fill(m *tensor.Matrix, v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}
