package dgnn

import (
	"fmt"

	"streamgnn/internal/tensor"
)

// EmbStore is the managed per-node embedding matrix behind incremental
// forward inference. A full forward installs its output wholesale with
// SetFull; an incremental forward computes embeddings for a dirty region's
// compute subgraph and splices only the exact rows back with Splice. The
// store owns the matrices handed to it and mutates them in place; callers
// that need a stable copy must clone before handing over.
//
// Publish hands out an immutable snapshot of the current matrix with
// copy-on-write semantics: publication is O(1), and the next in-place Splice
// pays one clone so the published matrix is never mutated again. Concurrent
// readers may therefore score against a published snapshot, lock-free, while
// the engine's step loop keeps splicing.
type EmbStore struct {
	emb      *tensor.Matrix
	lastFull int // step index of the most recent full forward
	// shared marks emb as published: in-place writes must clone first.
	//streamlint:ckpt-exempt transient copy-on-write marker; snapshots never outlive a process
	shared bool
}

// NewEmbStore returns an empty, invalid store.
func NewEmbStore() *EmbStore { return &EmbStore{lastFull: -1} }

// Valid reports whether the store holds an embedding matrix to splice into.
func (s *EmbStore) Valid() bool { return s.emb != nil }

// Rows returns the number of node rows held, 0 when invalid.
func (s *EmbStore) Rows() int {
	if s.emb == nil {
		return 0
	}
	return s.emb.Rows
}

// LastFullStep returns the step index of the last full forward, -1 if none.
func (s *EmbStore) LastFullStep() int { return s.lastFull }

// SetFull installs m as the complete embedding matrix computed at step t,
// taking ownership of m. Any previously published snapshot keeps the old
// matrix untouched.
func (s *EmbStore) SetFull(m *tensor.Matrix, t int) {
	s.emb = m
	s.lastFull = t
	s.shared = false
}

// Matrix returns the live embedding matrix (not a copy); nil when invalid.
func (s *EmbStore) Matrix() *tensor.Matrix { return s.emb }

// Publish returns the current embedding matrix as an immutable snapshot
// (nil when invalid). The store guarantees the returned matrix is never
// mutated afterwards: the next in-place Splice clones first, and SetFull /
// Invalidate / growth replace the matrix rather than touch it. Publication
// itself copies nothing — quiet steps republish the same matrix for free,
// and at most one clone is paid per published matrix regardless of how many
// snapshots were handed out.
func (s *EmbStore) Publish() *tensor.Matrix {
	if s.emb == nil {
		return nil
	}
	s.shared = true
	return s.emb
}

// Splice overwrites the stored rows for the given global node ids with the
// corresponding local rows of m. rows are local indices into m, ids the
// matching global node ids (same length, ids ascending). Nodes beyond the
// current row count grow the store; grown-but-unwritten rows stay zero
// until their own splice or the next full forward.
func (s *EmbStore) Splice(m *tensor.Matrix, rows, ids []int) {
	if s.emb == nil {
		panic("dgnn: Splice on invalid EmbStore")
	}
	if len(rows) != len(ids) {
		panic(fmt.Sprintf("dgnn: Splice rows/ids length mismatch: %d vs %d", len(rows), len(ids)))
	}
	if m.Cols != s.emb.Cols {
		panic(fmt.Sprintf("dgnn: Splice column mismatch: %d vs %d", m.Cols, s.emb.Cols))
	}
	if n := len(ids); n > 0 && ids[n-1] >= s.emb.Rows {
		s.grow(ids[n-1] + 1)
	} else if s.shared {
		// Copy-on-write: the current matrix is published, so the in-place
		// row writes below must go to a private clone.
		s.emb = s.emb.Clone()
		s.shared = false
	}
	for k, i := range rows {
		copy(s.emb.Row(ids[k]), m.Row(i))
	}
}

// grow extends the embedding matrix to n rows, preserving existing rows and
// zero-filling the new ones. The replacement matrix is private even if the
// old one was published.
func (s *EmbStore) grow(n int) {
	grown := tensor.New(n, s.emb.Cols)
	copy(grown.Data, s.emb.Data)
	s.emb = grown
	s.shared = false
}

// Invalidate drops the stored matrix, forcing the next forward to be full.
// A published snapshot keeps the dropped matrix alive and untouched.
func (s *EmbStore) Invalidate() {
	s.emb = nil
	s.lastFull = -1
	s.shared = false
}

// Dump serializes the store's matrix for checkpointing; nil when invalid.
func (s *EmbStore) Dump() *StateDump {
	if s.emb == nil {
		return nil
	}
	d := DumpMatrix(s.emb)
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
		s.emb = m
		s.lastFull = lastFull
		s.shared = false
	}, nil
}
