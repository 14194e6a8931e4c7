package stream

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"streamgnn/internal/graph"
)

func sampleBatches() []Batch {
	return []Batch{
		{Step: 0, Events: []Event{
			AddNode{Type: 1, Feat: []float64{1, 2}},
			AddNode{Type: 2, Feat: []float64{3, 4}},
		}},
		{Step: 1, Events: []Event{
			AddEdge{U: 0, V: 1, Type: 3, Time: 1, Label: 0.5},
			AddEdge{U: 1, V: 0, Type: 0, Time: 1, Label: math.NaN()},
		}},
		{Step: 3, Events: []Event{ // gap in steps is legal
			SetFeature{V: 0, Feat: []float64{9, 9}},
			SetLabel{V: 1, Label: 1},
		}},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleBatches()); err != nil {
		t.Fatal(err)
	}
	src := NewJSONLSource(&buf)
	g1 := graph.NewDynamic(2)
	r1 := NewReplayer(g1, src, 0)
	steps := []int{}
	for r1.Advance() {
		steps = append(steps, r1.Step())
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	if len(steps) != 3 || steps[0] != 0 || steps[2] != 3 {
		t.Fatalf("steps = %v", steps)
	}
	// Compare against direct replay.
	g2 := graph.NewDynamic(2)
	r2 := NewReplayer(g2, &SliceSource{Batches: sampleBatches()}, 0)
	for r2.Advance() {
	}
	if g1.N() != g2.N() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	if !g1.Features().Equal(g2.Features()) {
		t.Fatal("features differ after round trip")
	}
	if g1.OutEdges(0)[0].Label != 0.5 || g1.OutEdges(1)[0].HasLabel() {
		t.Fatal("edge labels wrong after round trip")
	}
	if y, ok := g1.Label(1); !ok || y != 1 {
		t.Fatal("node label lost")
	}
	// Node types travel in the records; the graph keeps none.
	buf.Reset()
	if err := WriteJSONL(&buf, sampleBatches()); err != nil {
		t.Fatal(err)
	}
	b, ok := NewJSONLSource(&buf).Next()
	if !ok || b.Events[0].(AddNode).Type != 1 || b.Events[1].(AddNode).Type != 2 {
		t.Fatal("node types lost")
	}
}

func TestJSONLBatchGrouping(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleBatches()); err != nil {
		t.Fatal(err)
	}
	src := NewJSONLSource(&buf)
	b1, ok := src.Next()
	if !ok || b1.Step != 0 || len(b1.Events) != 2 {
		t.Fatalf("batch 1 = %+v ok=%v", b1, ok)
	}
	b2, _ := src.Next()
	if b2.Step != 1 || len(b2.Events) != 2 {
		t.Fatalf("batch 2 = %+v", b2)
	}
	b3, _ := src.Next()
	if b3.Step != 3 {
		t.Fatalf("batch 3 = %+v", b3)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source should be exhausted")
	}
}

func TestJSONLRejectsOutOfOrder(t *testing.T) {
	input := `{"step":2,"op":"node"}
{"step":1,"op":"node"}
`
	src := NewJSONLSource(strings.NewReader(input))
	src.Next()
	src.Next()
	if src.Err() == nil {
		t.Fatal("out-of-order records accepted")
	}
}

func TestJSONLRejectsUnknownOp(t *testing.T) {
	src := NewJSONLSource(strings.NewReader(`{"step":0,"op":"frobnicate"}` + "\n"))
	src.Next()
	if src.Err() == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	src := NewJSONLSource(strings.NewReader("not json\n"))
	if _, ok := src.Next(); ok {
		t.Fatal("garbage produced a batch")
	}
	if src.Err() == nil {
		t.Fatal("garbage accepted")
	}
}

func TestJSONLEmptyInput(t *testing.T) {
	src := NewJSONLSource(strings.NewReader(""))
	if _, ok := src.Next(); ok {
		t.Fatal("empty input produced a batch")
	}
	if src.Err() != nil {
		t.Fatalf("EOF should not be an error: %v", src.Err())
	}
}

func TestReadJSONLAndInferFeatDim(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleBatches()); err != nil {
		t.Fatal(err)
	}
	batches, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 {
		t.Fatalf("batches = %d", len(batches))
	}
	if InferFeatDim(batches) != 2 {
		t.Fatalf("InferFeatDim = %d", InferFeatDim(batches))
	}
	if InferFeatDim(nil) != 0 {
		t.Fatal("empty stream should infer 0")
	}
	if _, err := ReadJSONL(strings.NewReader("oops\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}
