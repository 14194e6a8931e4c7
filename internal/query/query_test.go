package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

func testGraph(n int) *graph.Dynamic {
	g := graph.NewDynamic(2)
	for i := 0; i < n; i++ {
		g.AddNode([]float64{float64(i), 1})
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
	sup := w.Supervision(sub, rand.New(rand.NewSource(1)))
	if len(sup.NodeRows) != 1 || sup.NodeTargets[0] != 1 {
		t.Fatalf("supervision = %+v", sup)
	}
	empty := w.Supervision(g.Partition(3, 0), rand.New(rand.NewSource(2)))
	if len(empty.NodeRows) != 0 || len(empty.PairSrc) != 0 {
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
	scoring := w.Reveal(g, 1)
	// Reveal leaves the metrics to its scoring: the learner's material is ready
	// before it runs.
	if len(lt.recentPairs) != 2*(1+lt.NegPerPos) || len(lt.Ranks()) != 0 {
		t.Fatalf("before scoring: %d recent pairs, %d ranks", len(lt.recentPairs), len(lt.Ranks()))
	}
	scoring()

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
	if len(lt.recentPairs) != 2*(1+lt.NegPerPos) {
		t.Fatalf("recent pairs %d", len(lt.recentPairs))
	}
	// Supervision pairs inside a subgraph containing 0 and 3.
	sub := g.Induced([]int{0, 3}, -1)
	sup := w.Supervision(sub, rand.New(rand.NewSource(3)))
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
	if lt.reveal(g, 1, h) != nil || len(lt.Ranks()) != 0 { // no observed embeddings yet
		t.Fatal("reveal without embeddings should no-op")
	}
	// Stale embeddings (step gap) are also skipped.
	lt.observeEmbeddings(tensor.ViewOf(tensor.NewRandom(rng, 4, 4, 1)), 5)
	if lt.reveal(g, 9, h) != nil || len(lt.Ranks()) != 0 {
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
	lt.reveal(g, 1, h)()
	if len(lt.Ranks()) != 3 {
		t.Fatalf("positives not capped: %d", len(lt.Ranks()))
	}
}

// scanSupervisionPairs is Supervision's pair lookup as a scan over every
// revealed pair, each endpoint searched in the partition: the reference the
// by-source search must match pair for pair and draw for draw.
func scanSupervisionPairs(w *Workload, sub *graph.Subgraph, rng *rand.Rand) (src, dst []int, labels []float64) {
	for _, p := range w.link.recentPairs {
		lu, lv := sub.LocalID(p.U), sub.LocalID(p.V)
		if lu < 0 || lv < 0 {
			continue
		}
		src, dst, labels = append(src, lu), append(dst, lv), append(labels, p.Label)
		if p.Label == 1 && sub.N() > 2 {
			for k := 0; k < w.link.NegPerPos; k++ {
				nv := rng.Intn(sub.N())
				if nv == lu || nv == lv {
					continue
				}
				src, dst, labels = append(src, lu), append(dst, nv), append(labels, 0)
			}
		}
	}
	return src, dst, labels
}

// recentPairsAscend fails t unless the revealed pairs are non-decreasing in
// U, which Supervision's search by source relies on.
func recentPairsAscend(t *testing.T, lt *LinkPredTask, when string) {
	t.Helper()
	for i := 1; i < len(lt.recentPairs); i++ {
		if lt.recentPairs[i].U < lt.recentPairs[i-1].U {
			t.Fatalf("%s: recentPairs[%d].U = %d after %d", when, i, lt.recentPairs[i].U, lt.recentPairs[i-1].U)
		}
	}
}

func TestSupervisionPairsMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		w := NewWorkload(NewHeads(rng, 4))
		lt := NewLinkPredTask(seed)
		lt.MaxPositives = 1 + rng.Intn(3*n)
		w.SetLinkTask(lt)
		g := testGraph(n)
		lt.observeEmbeddings(tensor.ViewOf(tensor.NewRandom(rng, n, 4, 1)), 0)
		for e := rng.Intn(4 * n); e > 0; e-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 0, 1)
		}
		if scoring := w.Reveal(g, 1); scoring != nil {
			scoring()
		}
		recentPairsAscend(t, lt, "reveal")
		restored := NewWorkload(NewHeads(rng, 4))
		restored.SetLinkTask(NewLinkPredTask(0))
		commit, err := restored.RestoreState(w.DumpState())
		if err != nil {
			t.Fatal(err)
		}
		commit()
		recentPairsAscend(t, restored.link, "RestoreState")

		for trial := 0; trial < 30; trial++ {
			var nodes []int
			keep := rng.Float64()
			for v := 0; v < n; v++ {
				if rng.Float64() < keep {
					nodes = append(nodes, v)
				}
			}
			sub := g.Induced(nodes, -1)
			if trial%3 == 0 {
				sub = g.Partition(rng.Intn(n), rng.Intn(3))
			}
			k := rng.Int63()
			for _, ww := range []*Workload{w, restored} {
				refRng, gotRng := rand.New(rand.NewSource(k)), rand.New(rand.NewSource(k))
				src, dst, labels := scanSupervisionPairs(w, sub, refRng)
				sup := ww.Supervision(sub, gotRng)
				if !slices.Equal(sup.PairSrc, src) || !slices.Equal(sup.PairDst, dst) || !slices.Equal(sup.PairLabels, labels) {
					t.Fatalf("seed %d trial %d: pairs (%v, %v, %v), scan gives (%v, %v, %v)",
						seed, trial, sup.PairSrc, sup.PairDst, sup.PairLabels, src, dst, labels)
				}
				if gotRng.Int63() != refRng.Int63() {
					t.Fatalf("seed %d trial %d: rng position differs from the scan's", seed, trial)
				}
			}
		}
	}
}
