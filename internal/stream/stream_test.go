package stream

import (
	"testing"

	"streamgnn/internal/graph"
)

func TestEventsApply(t *testing.T) {
	g := graph.NewDynamic(2)
	AddNode{Type: 1, Feat: []float64{1, 2}}.Apply(g)
	AddNode{Type: 2}.Apply(g)
	AddEdge{U: 0, V: 1, Type: 3, Time: 7, Label: 0.5}.Apply(g)
	SetFeature{V: 1, Feat: []float64{9, 9}}.Apply(g)
	SetLabel{V: 0, Label: 1}.Apply(g)

	if g.N() != 2 {
		t.Fatal("AddNode events wrong")
	}
	es := g.OutEdges(0)
	if len(es) != 1 || es[0].To != 1 || es[0].Time != 7 || !es[0].HasLabel() {
		t.Fatalf("AddEdge event wrong: %+v", es)
	}
	if g.Feature(1)[0] != 9 {
		t.Fatal("SetFeature event wrong")
	}
	if y, ok := g.Label(0); !ok || y != 1 {
		t.Fatal("SetLabel event wrong")
	}
}

func TestUnlabeledEdgeEvent(t *testing.T) {
	g := graph.NewDynamic(1)
	AddNode{}.Apply(g)
	AddNode{}.Apply(g)
	AddEdge{U: 0, V: 1, Time: 0, Label: NoLabel()}.Apply(g)
	if g.OutEdges(0)[0].HasLabel() {
		t.Fatal("NoLabel edge should be unlabeled")
	}
}

func TestSliceSourceAndReplayer(t *testing.T) {
	batches := []Batch{
		{Step: 0, Events: []Event{AddNode{}, AddNode{}}},
		{Step: 1, Events: []Event{AddEdge{U: 0, V: 1, Time: 1, Label: NoLabel()}}},
		{Step: 2, Events: []Event{AddEdge{U: 1, V: 0, Time: 2, Label: NoLabel()}}},
	}
	g := graph.NewDynamic(1)
	r := NewReplayer(g, &SliceSource{Batches: batches}, 0)
	if r.Step() != -1 || r.Done() {
		t.Fatal("initial state wrong")
	}
	steps := 0
	for r.Advance() {
		steps++
	}
	if steps != 3 || r.Step() != 2 || !r.Done() {
		t.Fatalf("steps=%d step=%d done=%v", steps, r.Step(), r.Done())
	}
	if g.N() != 2 || g.NumEdges() != 2 {
		t.Fatal("replay produced wrong graph")
	}
	if r.Advance() {
		t.Fatal("Advance after done should be false")
	}
}

func TestReplayerSlidingWindow(t *testing.T) {
	batches := []Batch{
		{Step: 0, Events: []Event{AddNode{}, AddNode{}, AddEdge{U: 0, V: 1, Time: 0, Label: NoLabel()}}},
		{Step: 1, Events: []Event{AddEdge{U: 1, V: 0, Time: 1, Label: NoLabel()}}},
		{Step: 2, Events: []Event{AddEdge{U: 0, V: 1, Time: 2, Label: NoLabel()}}},
	}
	g := graph.NewDynamic(1)
	r := NewReplayer(g, &SliceSource{Batches: batches}, 2) // keep 2 steps of edges
	for r.Advance() {
	}
	// After step 2 with window 2, only edges with Time >= 1 survive.
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	for _, e := range g.OutEdges(0) {
		if e.Time < 1 {
			t.Fatal("expired edge still present")
		}
	}
}

func TestReplayerTracksUpdates(t *testing.T) {
	batches := []Batch{
		{Step: 0, Events: []Event{AddNode{}, AddNode{}, AddNode{}}},
		{Step: 1, Events: []Event{AddEdge{U: 0, V: 1, Time: 1, Label: NoLabel()}}},
	}
	g := graph.NewDynamic(1)
	r := NewReplayer(g, &SliceSource{Batches: batches}, 0)
	r.Advance()
	g.ResetUpdated() // engine consumes updates per step
	r.Advance()
	got := g.Updated()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Updated = %v", got)
	}
}

// Done reports whether the source is exhausted.
func (r *Replayer) Done() bool { return r.done }
