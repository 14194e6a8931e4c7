package dgnn

import (
	"fmt"
	"sort"
)

// Row-granular recurrent-state transfer for the coordinator/replica split
// (internal/cluster). A replica's committed incremental forward advances the
// live state of exactly the exact rows its part contains; the coordinator
// must fold those rows back into its own authoritative model — and ship the
// rows a lagging replica missed — without disturbing anything else.
//
// DumpState/RestoreState are the wrong tool for that: nodeState.restore
// replaces the whole state and drops the BeginStep snapshot, which NoCommit
// training gathers later in the same step still read. GatherStateRows and
// ScatterStateRows move only the named rows of the *live* state and leave
// the snapshot untouched, so a mid-step scatter is exactly equivalent to the
// commit of the part's exact rows the local fan-out would have performed.

// StateRows is implemented by models whose recurrent state is per-node and
// can therefore be synchronized row-by-row across replicas. Models without
// per-node state (WinGNN) or with non-node state (EvolveGCN's weight
// recurrence) do not implement it.
type StateRows interface {
	// GatherStateRows copies the live state rows for the given ascending
	// global node ids, one StateDump per state matrix (same order and count
	// as DumpState). Rows the state has never stored gather as zeros —
	// the value a forward would read for them.
	GatherStateRows(ids []int) []StateDump
	// ScatterStateRows writes previously gathered rows back into the live
	// state at the given ids, growing it as needed. The BeginStep
	// snapshot is not modified.
	ScatterStateRows(ids []int, dumps []StateDump) error
}

// gatherRows copies the live rows for ids into a StateDump. Unlike gather it
// never consults the snapshot: callers want the current committed values.
func (s *nodeState) gatherRows(ids []int) StateDump {
	d := StateDump{Rows: len(ids), Cols: s.dim, Data: make([]float64, len(ids)*s.dim)}
	for k, id := range ids {
		s.rowInto(id, d.Data[k*s.dim:(k+1)*s.dim])
	}
	return d
}

// scatterRows writes d's rows into the live state at ids. The snapshot is
// left alone: a scatter stands in for this step's commit of those rows, which
// also only touches live state.
func (s *nodeState) scatterRows(ids []int, d StateDump) error {
	if d.Cols != s.dim {
		return fmt.Errorf("dgnn: state row scatter dim %d does not match model dim %d", d.Cols, s.dim)
	}
	if d.Rows != len(ids) || len(d.Data) != d.Rows*d.Cols {
		return fmt.Errorf("dgnn: state row scatter %dx%d for %d ids carries %d values",
			d.Rows, d.Cols, len(ids), len(d.Data))
	}
	if len(ids) == 0 {
		return nil
	}
	if !sort.IntsAreSorted(ids) || ids[0] < 0 {
		return fmt.Errorf("dgnn: state row scatter ids must be ascending and non-negative")
	}
	s.data.Grow(ids[len(ids)-1] + 1)
	for k, id := range ids {
		s.data.SetRow(id, d.Data[k*s.dim:(k+1)*s.dim])
	}
	return nil
}

// GatherStateRows implements StateRows.
func (ss nodeStates) GatherStateRows(ids []int) []StateDump {
	out := make([]StateDump, len(ss))
	for i, st := range ss {
		out[i] = st.gatherRows(ids)
	}
	return out
}

// ScatterStateRows implements StateRows.
func (ss nodeStates) ScatterStateRows(ids []int, dumps []StateDump) error {
	if len(dumps) != len(ss) {
		return fmt.Errorf("dgnn: state row scatter has %d matrices, model needs %d", len(dumps), len(ss))
	}
	for i, st := range ss {
		if err := st.scatterRows(ids, dumps[i]); err != nil {
			return err
		}
	}
	return nil
}
