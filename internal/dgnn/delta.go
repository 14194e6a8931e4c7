package dgnn

import (
	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

// The event-driven delta forward is gone (DESIGN.md §14): incremental
// inference has one executor, the region splice. The names below stay only
// while the benchmark harness still compiles against them.

// DeltaForwarder has an unexported method, so no model implements it and a
// type assertion to it always fails.
//
// Deprecated: kept only while the benchmark harness still names it; ROADMAP
// item 1(e) removes it.
type DeltaForwarder interface {
	Model
	retiredDelta()
}

// DeltaState is empty.
//
// Deprecated: see DeltaForwarder.
type DeltaState struct{}

// RunDeltaFull is unreachable: no DeltaForwarder exists to pass it.
//
// Deprecated: see DeltaForwarder.
func RunDeltaFull(*graph.Dynamic, DeltaForwarder, *DeltaState) *tensor.Matrix {
	panic("dgnn: the delta forward is retired")
}

// RunDelta is unreachable: no DeltaForwarder exists to pass it.
//
// Deprecated: see DeltaForwarder.
func RunDelta(*graph.Dynamic, DeltaForwarder, *DeltaState, *EmbStore, []int, float64, int) {
	panic("dgnn: the delta forward is retired")
}
