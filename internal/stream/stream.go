// Package stream models graph streams as per-step event batches applied to a
// dynamic graph snapshot, with optional sliding-window edge expiry. A
// workload generator implements Source; the Replayer drives a graph.Dynamic
// through the stream one time step at a time, which is the unit at which the
// engine alternates query answering and online training.
package stream

import (
	"math"

	"streamgnn/internal/graph"
)

// Event is one mutation of the graph snapshot.
type Event interface {
	Apply(g *graph.Dynamic)
}

// NodeType identifies the entity type of a node (patient, transaction, ...).
type NodeType uint8

// AddNode creates a node. The id is assigned by insertion order; generators
// construct events sequentially and therefore know the id in advance. Type
// travels with the record (JSONL, cluster frames), but no model reads node
// types, so the graph keeps none.
type AddNode struct {
	Type NodeType
	Feat []float64
}

// Apply implements Event.
func (e AddNode) Apply(g *graph.Dynamic) { g.AddNode(e.Feat) }

// AddEdge inserts a directed edge; Label NaN means unlabeled. Use
// math.NaN() or the NoLabel constant helper.
type AddEdge struct {
	U, V  int
	Type  graph.EdgeType
	Time  int64
	Label float64
}

// Apply implements Event.
func (e AddEdge) Apply(g *graph.Dynamic) { g.AddLabeledEdge(e.U, e.V, e.Type, e.Time, e.Label) }

// SetFeature replaces a node's attribute vector.
type SetFeature struct {
	V    int
	Feat []float64
}

// Apply implements Event.
func (e SetFeature) Apply(g *graph.Dynamic) { g.SetFeature(e.V, e.Feat) }

// SetLabel attaches a self-supervision label to a node.
type SetLabel struct {
	V     int
	Label float64
}

// Apply implements Event.
func (e SetLabel) Apply(g *graph.Dynamic) { g.SetLabel(e.V, e.Label) }

// NoLabel is the sentinel for unlabeled edges.
func NoLabel() float64 { return math.NaN() }

// Batch is the set of events belonging to one time step.
type Batch struct {
	Step   int
	Events []Event
}

// Source produces the stream, one batch per time step.
type Source interface {
	// Next returns the batch for the next step, or ok=false when the
	// stream is exhausted.
	Next() (b Batch, ok bool)
}

// SliceSource replays a pre-built batch slice (testing and recording).
type SliceSource struct {
	Batches []Batch
	pos     int
}

// Next implements Source.
func (s *SliceSource) Next() (Batch, bool) {
	if s.pos >= len(s.Batches) {
		return Batch{}, false
	}
	b := s.Batches[s.pos]
	s.pos++
	return b, true
}

// Replayer drives a dynamic graph through a stream.
type Replayer struct {
	G *graph.Dynamic
	// WindowSteps, if positive, keeps only edges whose Time is within the
	// most recent WindowSteps steps (a sliding window over the stream).
	WindowSteps int

	src  Source
	step int
	done bool
}

// NewReplayer returns a replayer applying src to g.
func NewReplayer(g *graph.Dynamic, src Source, windowSteps int) *Replayer {
	return &Replayer{G: g, WindowSteps: windowSteps, src: src, step: -1}
}

// Step returns the index of the last applied step (-1 before the first).
func (r *Replayer) Step() int { return r.step }

// Advance applies the next step's events and the sliding-window expiry.
// It reports whether a step was applied.
func (r *Replayer) Advance() bool {
	if r.done {
		return false
	}
	b, ok := r.src.Next()
	if !ok {
		r.done = true
		return false
	}
	for _, e := range b.Events {
		e.Apply(r.G)
	}
	r.step = b.Step
	if r.WindowSteps > 0 {
		r.G.ExpireEdgesBefore(int64(b.Step - r.WindowSteps + 1))
	}
	return true
}
