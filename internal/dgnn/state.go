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
//
// The live rows are a tensor.Paged and the snapshot a frozen view of it, so
// BeginStep copies the page table, not the state: the step's first write to a
// page clones that page, and the snapshot keeps reading the old one.
type nodeState struct {
	dim  int
	data *tensor.Paged   // live rows
	snap *tensor.RowView // BeginStep snapshot; nil before the first one that holds rows
}

func newNodeState(dim int) *nodeState { return &nodeState{dim: dim, data: tensor.NewPaged(dim)} }

// snapshot freezes the live state for this step's NoCommit forwards. Before
// any row is stored there is nothing to freeze: gathers read the live rows.
func (s *nodeState) snapshot() {
	s.snap = nil
	if s.data.Rows() > 0 {
		s.snap = s.data.Freeze()
	}
}

// nodeStates is a recurrent model's per-node state matrices in DumpState
// order. The model embeds it beside the named fields that point at the same
// states, for the methods that treat every state matrix alike.
type nodeStates []*nodeState

// BeginStep implements Model: snapshots recurrent state for the step's
// training forwards.
func (ss nodeStates) BeginStep(int) {
	for _, s := range ss {
		s.snapshot()
	}
}

// PregrowState implements StatePregrower: it extends the live state to n
// node rows and makes private the pages of rows, ahead of a concurrent
// fan-out whose parts commit disjoint subsets of rows. Growth and the first
// write to a shared page are the only nodeState mutations that are not
// row-disjoint, so both must happen on one goroutine before shard workers
// start; the new rows are zero (a node first seen this step has no prior
// state), so pregrowing never changes a computed value. The BeginStep
// snapshot needs no growth: gather reads a node beyond it as a zero row,
// never from the live state.
func (ss nodeStates) PregrowState(n int, rows []int) {
	for _, s := range ss {
		s.data.Grow(n)
		s.data.Privatize(rows)
	}
}

// DropSnapshot releases the BeginStep snapshot of m's per-node recurrent
// state, for a step that runs no NoCommit forward: its committed writes then
// land in place instead of cloning the pages the snapshot shares, and its
// SnapshotState gathers read the live rows, which no commit of the step has
// touched when they read them. Models without per-node state ignore it.
func DropSnapshot(m Model) {
	if ss, ok := m.(interface{ dropSnapshot() }); ok {
		ss.dropSnapshot()
	}
}

func (ss nodeStates) dropSnapshot() {
	for _, s := range ss {
		if s.snap != nil {
			s.snap = nil
			s.data.Thaw()
		}
	}
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

// input records the state rows of the view's nodes as an input of tp's
// forward, copied when the tape computes it, on the rows its readers need.
func (s *nodeState) input(tp *autodiff.Tape, v View) *autodiff.Node {
	return tp.Input(v.N, s.dim, s.source(v))
}

// source returns the copy of the view's rows (rows nil: all of them) an input
// fills. NoCommit and SnapshotState views read the BeginStep snapshot when
// one exists, and never touch the live state, not even its page table: a
// learner's training forwards run beside the step's committed forwards, which
// grow it and clone its pages. A node the source has never stored reads as a
// zero row — from the snapshot too: the live state would hand a training
// forward the state this step's inference just committed. Committed views
// grow the state first; the sharded fan-out's pregrow makes that a no-op.
func (s *nodeState) source(v View) func(rows []int, out *tensor.Matrix) {
	if !v.NoCommit {
		s.data.Grow(s.maxID(v) + 1)
	}
	src := s.snap
	if !(v.NoCommit || v.SnapshotState) || src == nil {
		src = &s.data.RowView
	}
	return func(rows []int, out *tensor.Matrix) {
		for i := 0; i < out.Rows; i++ {
			r := i
			if rows != nil {
				r = rows[i]
			}
			if id := v.globalID(r); id < src.Rows() {
				copy(out.Row(i), src.Row(id))
			} else {
				clear(out.Row(i))
			}
		}
	}
}

// commit is a committed forward's recurrent-state write-back: n's value, on
// the rows the view's caller reads, becomes the state of the view's nodes once
// the tape has computed it. A NoCommit forward reads nothing of n here.
func (s *nodeState) commit(tp *autodiff.Tape, v View, n *autodiff.Node) {
	if !v.NoCommit {
		tp.Use(n, v.Out, func(m *tensor.Matrix) { s.write(v, m) })
	}
}

// write stores m's rows back into the view's nodes. Only the exact rows of an
// incremental forward land — the rows a CommitRows mask lists, the rows Out
// lists, each at its own position (m may cover more) — and boundary rows of
// the compute region keep their previous state.
func (s *nodeState) write(v View, m *tensor.Matrix) {
	rows := v.CommitRows
	if rows == nil {
		rows = v.Out
	}
	if m.Cols != s.dim || m.Rows > v.N || rows == nil && m.Rows != v.N || len(rows) > m.Rows {
		panic("dgnn: state write shape mismatch")
	}
	s.data.Grow(s.maxID(v) + 1)
	if rows == nil {
		for i := 0; i < v.N; i++ {
			s.data.SetRow(v.globalID(i), m.Row(i))
		}
		return
	}
	for _, i := range rows {
		s.data.SetRow(v.globalID(i), m.Row(i))
	}
}

// row returns node id's live state row, or nil when the node has no stored
// state yet (reads as zero). The returned slice aliases the live state;
// callers must not write it or hold it across a write.
func (s *nodeState) row(id int) []float64 {
	if id < s.data.Rows() {
		return s.data.Row(id)
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
