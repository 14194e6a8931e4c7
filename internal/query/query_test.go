package query

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

func testGraph(n int) *graph.Dynamic {
	g := graph.NewDynamic(2)
	for i := 0; i < n; i++ {
		g.AddNode(0, []float64{float64(i), 1})
	}
	for i := 0; i+1 < n; i++ {
		g.AddUndirectedEdge(i, i+1, 0, 0)
	}
	return g
}

func TestHeadsParams(t *testing.T) {
	h := NewHeads(rand.New(rand.NewSource(1)), 4)
	if len(h.Params()) != 4*4 {
		t.Fatalf("param count %d", len(h.Params()))
	}
}

func TestPredictRevealCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHeads(rng, 4)
	w := NewWorkload(h)
	q := &EventQuery{
		Name:      "abnormal",
		Anchors:   []int{0, 2},
		Delta:     2,
		Threshold: 0.5,
		Labeler: func(g *graph.Dynamic, anchor, step int) (float64, bool) {
			return float64(anchor) + float64(step)/10, true
		},
	}
	w.AddQuery(q)

	emb := tensor.NewRandom(rng, 5, 4, 1)
	w.Predict(tensor.ViewOf(emb), 3) // predicts for step 5
	if len(w.Outcomes()) != 0 {
		t.Fatal("outcomes before reveal")
	}
	g := testGraph(5)
	w.Reveal(g, 4) // nothing due
	if len(w.Outcomes()) != 0 {
		t.Fatal("premature reveal")
	}
	w.Reveal(g, 5)
	outs := w.Outcomes()
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for _, o := range outs {
		wantTruth := float64(o.Anchor) + 0.5
		if math.Abs(o.Truth-wantTruth) > 1e-12 || o.Step != 5 || o.Query != "abnormal" {
			t.Fatalf("outcome wrong: %+v", o)
		}
		if o.Event != (o.Truth > 0.5) {
			t.Fatal("event flag wrong")
		}
	}
	// Revealed targets exposed for supervision.
	if tgt, ok := w.revealed[2]; !ok || tgt.Value != 2.5 || tgt.Step != 5 {
		t.Fatalf("revealed target wrong: %+v ok=%v", tgt, ok)
	}
	if _, ok := w.revealed[1]; ok {
		t.Fatal("non-anchor has a target")
	}
}

func TestPredictSkipsMissingAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewWorkload(NewHeads(rng, 4))
	w.AddQuery(&EventQuery{
		Name:    "q",
		Anchors: []int{0, 99},
		Delta:   1,
		Labeler: func(g *graph.Dynamic, anchor, step int) (float64, bool) { return 1, true },
	})
	emb := tensor.NewRandom(rng, 3, 4, 1)
	w.Predict(tensor.ViewOf(emb), 0)
	w.Reveal(testGraph(3), 1)
	if len(w.Outcomes()) != 1 {
		t.Fatalf("outcomes = %d, want 1 (missing anchor skipped)", len(w.Outcomes()))
	}
}

func TestLabelerCanWithholdTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := NewWorkload(NewHeads(rng, 4))
	w.AddQuery(&EventQuery{
		Name:    "q",
		Anchors: []int{0},
		Delta:   1,
		Labeler: func(g *graph.Dynamic, anchor, step int) (float64, bool) { return 0, false },
	})
	w.Predict(tensor.ViewOf(tensor.NewRandom(rng, 2, 4, 1)), 0)
	w.Reveal(testGraph(2), 1)
	if len(w.Outcomes()) != 0 {
		t.Fatal("withheld truth should produce no outcome")
	}
}

func TestSupervisionFromSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewWorkload(NewHeads(rng, 4))
	w.AddQuery(&EventQuery{
		Name:    "q",
		Anchors: []int{1, 4},
		Delta:   1,
		Labeler: func(g *graph.Dynamic, anchor, step int) (float64, bool) {
			return float64(anchor), true
		},
	})
	g := testGraph(6)
	w.Predict(tensor.ViewOf(tensor.NewRandom(rng, 6, 4, 1)), 0)
	w.Reveal(g, 1)
	sub := g.Partition(1, 1) // nodes {0,1,2}
	sup := w.Supervision(sub, nil)
	if len(sup.NodeRows) != 1 || sup.NodeTargets[0] != 1 {
		t.Fatalf("supervision = %+v", sup)
	}
	if sup.Empty() {
		t.Fatal("Empty() wrong")
	}
	empty := w.Supervision(g.Partition(3, 0), nil)
	if !empty.Empty() {
		t.Fatal("partition without anchors should be empty")
	}
}

func TestLinkPredRevealAndRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := NewHeads(rng, 4)
	w := NewWorkload(h)
	lt := NewLinkPredTask(7)
	w.SetLinkTask(lt)

	g := testGraph(6)
	emb := tensor.NewRandom(rng, 6, 4, 1)
	w.Predict(tensor.ViewOf(emb), 0)
	// Edges arriving at step 1.
	g.AddEdge(0, 3, 0, 1)
	g.AddEdge(2, 5, 0, 1)
	w.Reveal(g, 1)

	scores, labels := lt.Scores()
	if len(scores) != 2*(1+lt.NegPerPos) || len(labels) != len(scores) {
		t.Fatalf("scores len %d", len(scores))
	}
	npos := 0
	for _, l := range labels {
		if l {
			npos++
		}
	}
	if npos != 2 {
		t.Fatalf("positives = %d", npos)
	}
	ranks := lt.Ranks()
	if len(ranks) != 2 {
		t.Fatalf("ranks len %d", len(ranks))
	}
	for _, r := range ranks {
		if r < 1 || r > lt.RankNegs+1 {
			t.Fatalf("rank out of range: %d", r)
		}
	}
	if len(lt.RecentPairs()) != 2*(1+lt.NegPerPos) {
		t.Fatalf("recent pairs %d", len(lt.RecentPairs()))
	}
	// Supervision pairs inside a subgraph containing 0 and 3.
	sub := g.Induced([]int{0, 3}, -1)
	sup := w.Supervision(sub, nil)
	foundPos := false
	for i := range sup.PairSrc {
		if sup.PairLabels[i] == 1 {
			foundPos = true
		}
	}
	if !foundPos {
		t.Fatal("positive pair not exposed as supervision")
	}
}

func TestLinkPredSkipsWithoutEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := NewHeads(rng, 4)
	lt := NewLinkPredTask(1)
	g := testGraph(4)
	g.AddEdge(0, 2, 0, 1)
	lt.reveal(g, 1, h) // no observed embeddings yet
	if len(lt.Ranks()) != 0 {
		t.Fatal("reveal without embeddings should no-op")
	}
	// Stale embeddings (step gap) are also skipped.
	lt.observeEmbeddings(tensor.ViewOf(tensor.NewRandom(rng, 4, 4, 1)), 5)
	lt.reveal(g, 9, h)
	if len(lt.Ranks()) != 0 {
		t.Fatal("stale embeddings should be skipped")
	}
}

func TestLinkPredCapsPositives(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := NewHeads(rng, 4)
	lt := NewLinkPredTask(2)
	lt.MaxPositives = 3
	g := testGraph(10)
	lt.observeEmbeddings(tensor.ViewOf(tensor.NewRandom(rng, 10, 4, 1)), 0)
	for i := 0; i < 8; i++ {
		g.AddEdge(i, (i+2)%10, 0, 1)
	}
	lt.reveal(g, 1, h)
	if len(lt.Ranks()) != 3 {
		t.Fatalf("positives not capped: %d", len(lt.Ranks()))
	}
}
