package dgnn

import (
	"fmt"

	"streamgnn/internal/tensor"
)

// EmbStore is the managed per-node embedding rows behind the step's forward.
// A full forward installs its output with SetFull; a region forward splices
// only the rows it advanced back with Splice. The rows live in a
// tensor.Paged: SetFull adopts a matrix as pages without copying it, and the
// store writes them in place until a Publish.
//
// Publish hands out a frozen view of the rows: publication copies the page
// table, and the next Splice clones only the pages it writes, so a published
// view is never mutated again. Growth appends pages. Concurrent
// readers may therefore score against a published view, lock-free, while the
// engine's step loop keeps splicing, and a step pays for the pages it writes,
// not for n rows.
type EmbStore struct {
	rows     *tensor.Paged // nil when invalid
	lastFull int           // step of the last forward that advanced every live row
}

// NewEmbStore returns an empty, invalid store.
func NewEmbStore() *EmbStore { return &EmbStore{lastFull: -1} }

// Valid reports whether the store holds embedding rows to splice into.
func (s *EmbStore) Valid() bool { return s.rows != nil }

// Rows returns the number of node rows held, 0 when invalid.
func (s *EmbStore) Rows() int {
	if s.rows == nil {
		return 0
	}
	return s.rows.Rows()
}

// LastFullStep returns the step of the last forward that advanced every live
// row, -1 if none has run since the store was created or marked stale.
func (s *EmbStore) LastFullStep() int { return s.lastFull }

// MarkFresh records that the forward of step t advanced every live row.
func (s *EmbStore) MarkFresh(t int) { s.lastFull = t }

// MarkStale keeps the stored rows for held rows to serve, but records that the
// parameters moved: the next forward must advance every live row.
func (s *EmbStore) MarkStale() { s.lastFull = -1 }

// SetFull installs m as the complete embedding matrix computed at step t,
// taking ownership of m: its rows become the store's pages without a copy.
// Any previously published view keeps the old rows untouched.
func (s *EmbStore) SetFull(m *tensor.Matrix, t int) {
	s.rows = tensor.PagedFrom(m)
	s.lastFull = t
}

// Publish returns a frozen view of the stored rows (nil when invalid). The
// view is never mutated afterwards: the store's next Splice clones the pages
// it touches, and SetFull and Invalidate replace the pages rather than touch
// them. Publication copies the page table only.
func (s *EmbStore) Publish() *tensor.RowView {
	if s.rows == nil {
		return nil
	}
	return s.rows.Freeze()
}

// Splice overwrites the stored rows for the given global node ids with the
// corresponding local rows of m. rows are local indices into m, ids the
// matching global node ids (same length, ids ascending). Nodes beyond the
// current row count grow the store; grown-but-unwritten rows stay zero
// until their own splice or the next full forward.
func (s *EmbStore) Splice(m *tensor.Matrix, rows, ids []int) {
	if s.rows == nil {
		panic("dgnn: Splice on invalid EmbStore")
	}
	if len(rows) != len(ids) {
		panic(fmt.Sprintf("dgnn: Splice rows/ids length mismatch: %d vs %d", len(rows), len(ids)))
	}
	if m.Cols != s.rows.Cols() {
		panic(fmt.Sprintf("dgnn: Splice column mismatch: %d vs %d", m.Cols, s.rows.Cols()))
	}
	if n := len(ids); n > 0 {
		s.rows.Grow(ids[n-1] + 1)
	}
	for k, i := range rows {
		s.rows.SetRow(ids[k], m.Row(i))
	}
}

// Invalidate drops the stored rows, forcing the next forward to be full.
// A published view keeps the dropped pages alive and untouched.
func (s *EmbStore) Invalidate() {
	s.rows = nil
	s.lastFull = -1
}

// Dump serializes the store's rows for checkpointing; nil when invalid.
func (s *EmbStore) Dump() *StateDump {
	if s.rows == nil {
		return nil
	}
	d := DumpRows(&s.rows.RowView)
	return &d
}

// Restore checks a checkpoint dump and returns the install that replaces the
// store's contents with it; a nil dump installs an invalid store.
func (s *EmbStore) Restore(d *StateDump, lastFull int) (func(), error) {
	if d == nil {
		return s.Invalidate, nil
	}
	m, err := d.Matrix()
	if err != nil {
		return nil, err
	}
	return func() {
		s.rows = tensor.PagedFrom(m)
		s.lastFull = lastFull
	}, nil
}
