package dgnn

import (
	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
)

// nodeState stores per-node recurrent state (hidden/cell vectors) indexed by
// global node id, growing as the stream adds nodes. State written back after
// a forward pass is detached: gradients never flow across time steps
// (truncated BPTT window 1), keeping online memory bounded.
// Committed (inference) forwards read and write the live state. NoCommit
// (training) forwards read the snapshot taken at BeginStep — the state as it
// was *before* this step's inference — so a training partition replays
// exactly the computation whose output the prediction heads are evaluated
// on, rather than advancing the recurrence a second time within the step.
type nodeState struct {
	dim  int
	data []float64 // n × dim, live
	prev []float64 // snapshot taken at BeginStep; nil before the first one
	n    int
}

func newNodeState(dim int) *nodeState { return &nodeState{dim: dim} }

// snapshot archives the live state for this step's NoCommit forwards. The
// archive grows with the headroom ensure gave the live buffer: on a stream
// that adds nodes every step it is reallocated per doubling, not per step.
func (s *nodeState) snapshot() {
	if cap(s.prev) < len(s.data) {
		s.prev = make([]float64, len(s.data), cap(s.data))
	}
	s.prev = s.prev[:len(s.data)]
	copy(s.prev, s.data)
}

// pregrow extends the live buffer to n node rows ahead of a concurrent
// fan-out. Growth is the only nodeState mutation that is not row-disjoint, so
// it must happen on one goroutine before shard workers start; the new rows
// are zero (a node first seen this step has no prior state), so pregrowing
// never changes a computed value. The BeginStep snapshot needs no growth:
// gather reads a node beyond it as a zero row, never from the live buffer.
func (s *nodeState) pregrow(n int) { s.ensure(n) }

func (s *nodeState) ensure(n int) {
	if n <= s.n {
		return
	}
	need := n * s.dim
	if need > cap(s.data) {
		grown := make([]float64, need, 2*need)
		copy(grown, s.data)
		s.data = grown
	} else {
		s.data = s.data[:need]
	}
	s.n = n
}

func (s *nodeState) maxID(v View) int {
	if v.IDs == nil {
		return v.N - 1
	}
	m := -1
	for _, id := range v.IDs {
		if id > m {
			m = id
		}
	}
	return m
}

// gather returns the state rows for the view's nodes (a copy). NoCommit and
// SnapshotState views read the BeginStep snapshot when one exists.
//
// NoCommit gathers are strictly read-only: nodes the state has never seen
// read as zero rows instead of growing the state, exactly the values ensure
// would append. Training forwards (always NoCommit) therefore never mutate
// shared model state and can run concurrently on worker goroutines.
// Committed SnapshotState gathers (the sharded fan-out) rely on pregrow
// having sized both buffers already, making the ensure below a no-op.
//
// A node newer than the source buffer reads as a zero row — from the snapshot
// too: falling back to the live buffer there would hand a training forward
// the state this step's inference just committed for the node.
//
// A gather that reads the snapshot never touches the live buffer, not even
// its slice header: a learner's training forwards run beside the step's
// committed inference forwards, whose ensure may reallocate it.
func (s *nodeState) gather(v View) *tensor.Matrix { return s.gatherHead(v, v.N) }

// gatherHead is gather for the view's leading n rows alone.
func (s *nodeState) gatherHead(v View, n int) *tensor.Matrix {
	if !v.NoCommit {
		s.ensure(s.maxID(v) + 1)
	}
	src := s.prev
	if !(v.NoCommit || v.SnapshotState) || src == nil {
		src = s.data
	}
	out := tensor.NewUninit(n, s.dim)
	for i := 0; i < n; i++ {
		off := v.globalID(i) * s.dim
		if off+s.dim <= len(src) {
			copy(out.Row(i), src[off:off+s.dim])
		} else {
			clear(out.Row(i))
		}
	}
	return out
}

// commit is a forward's recurrent-state write-back: n's value becomes the
// state of the view's nodes unless the view is NoCommit. The value is pinned
// on the tape either way — the write reads it outside the tape's ops, possibly
// after the last op that consumes it, and an inference tape learns its pins
// from every pass alike.
func (s *nodeState) commit(tp *autodiff.Tape, v View, n *autodiff.Node) {
	m := tp.Keep(n)
	if !v.NoCommit {
		s.write(v, m)
	}
}

// write stores m's rows back into the view's nodes. Only the exact rows of an
// incremental forward land — the rows a CommitRows mask lists, the leading
// Frontier[0] of a view in demand order (m may cover more) — and boundary rows
// of the compute region keep their previous state.
func (s *nodeState) write(v View, m *tensor.Matrix) {
	n := v.rows(0)
	if m.Rows < n || m.Rows > v.N || m.Cols != s.dim {
		panic("dgnn: state write shape mismatch")
	}
	s.ensure(s.maxID(v) + 1)
	if v.CommitRows != nil {
		for _, i := range v.CommitRows {
			id := v.globalID(i)
			copy(s.data[id*s.dim:(id+1)*s.dim], m.Row(i))
		}
		return
	}
	for i := 0; i < n; i++ {
		id := v.globalID(i)
		copy(s.data[id*s.dim:(id+1)*s.dim], m.Row(i))
	}
}

// row returns node id's live state row, or nil when the node has no stored
// state yet (reads as zero). The returned slice aliases the live buffer;
// callers must not hold it across a write.
func (s *nodeState) row(id int) []float64 {
	off := id * s.dim
	if off+s.dim <= len(s.data) {
		return s.data[off : off+s.dim]
	}
	return nil
}

// rowInto copies node id's live state row into dst, zero-filling when the
// node has no stored state yet — the value a gather would produce.
func (s *nodeState) rowInto(id int, dst []float64) {
	if row := s.row(id); row != nil {
		copy(dst, row)
		return
	}
	for i := range dst {
		dst[i] = 0
	}
}

// writeRows commits m's rows (columns [colOff, colOff+dim)) to the given
// global node ids: the delta path's masked state write.
func (s *nodeState) writeRows(ids []int, m *tensor.Matrix, colOff int) {
	maxID := -1
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	s.ensure(maxID + 1)
	for k, id := range ids {
		copy(s.data[id*s.dim:(id+1)*s.dim], m.Row(k)[colOff:colOff+s.dim])
	}
}

// setAll replaces the state of nodes [0, m.Rows) with m — a full forward's
// unmasked commit on the delta path.
func (s *nodeState) setAll(m *tensor.Matrix) {
	if m.Cols != s.dim {
		panic("dgnn: setAll state dim mismatch")
	}
	s.ensure(m.Rows)
	copy(s.data[:m.Rows*s.dim], m.Data)
}

// reset zeroes all stored state and drops the snapshot.
func (s *nodeState) reset() {
	for i := range s.data {
		s.data[i] = 0
	}
	s.prev = nil
}
