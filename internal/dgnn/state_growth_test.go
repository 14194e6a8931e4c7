package dgnn

import (
	"testing"

	"streamgnn/internal/tensor"
)

// On a stream that adds a node every step the BeginStep snapshot grows by
// doubling, like the live buffer — not by one exact-size reallocation a step —
// and still reads as before: stored rows as they were at the snapshot, a node
// newer than the snapshot as zeros.
func TestSnapshotGrowsWithHeadroom(t *testing.T) {
	const dim, steps = 16, 200
	s := newNodeState(dim)
	arrays := map[*float64]bool{}
	for step := 0; step < steps; step++ {
		row := tensor.New(1, dim)
		row.Fill(float64(step + 1))
		s.write(View{N: 1, IDs: []int{step}}, row)
		s.snapshot()
		arrays[&s.prev[0]] = true
		// One node more than the snapshot holds, and the live buffer moves on
		// under it.
		s.write(View{N: 1, IDs: []int{step + 1}}, row)
		got := s.gather(View{N: step + 2, NoCommit: true})
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
	// ensure doubles from 16 floats to past 200·16: nine arrays, not two hundred.
	if len(arrays) > 12 {
		t.Fatalf("%d distinct snapshot arrays over %d one-node steps", len(arrays), steps)
	}
}
