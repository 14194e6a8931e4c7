package query

import (
	"math/rand"
	"testing"

	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

func revealOnce(t *testing.T, w *Workload, g *graph.Dynamic, emb *tensor.Matrix, step int) {
	t.Helper()
	w.Predict(tensor.ViewOf(emb), step)
	w.Reveal(g, step+1)
}

func TestReplayBatchFromReveals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewWorkload(NewHeads(rng, 4))
	w.AddQuery(&EventQuery{
		Name:    "q",
		Anchors: []int{0, 1, 2},
		Delta:   1,
		Labeler: func(_ *graph.Dynamic, anchor, step int) (float64, bool) {
			return float64(anchor) + 10, true
		},
	})
	g := testGraph(4)
	if e, _ := w.ReplayBatch(rng, 8); e != nil {
		t.Fatal("replay before any reveal should be empty")
	}
	emb := tensor.NewRandom(rng, 4, 4, 1)
	revealOnce(t, w, g, emb, 0)
	e, truths := w.ReplayBatch(rng, 8)
	if e == nil || e.Rows != 3 || e.Cols != 4 || len(truths) != 3 {
		t.Fatalf("replay batch wrong: %v %v", e, truths)
	}
	for _, tr := range truths {
		if tr < 10 || tr > 12 {
			t.Fatalf("replay truth %v out of range", tr)
		}
	}
	// Requesting fewer samples than available caps the batch.
	e, truths = w.ReplayBatch(rng, 2)
	if e.Rows != 2 || len(truths) != 2 {
		t.Fatal("batch size not respected")
	}
	if e, _ := w.ReplayBatch(rng, 0); e != nil {
		t.Fatal("zero-size replay should be nil")
	}
}

func TestReplayIsFreshOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWorkload(NewHeads(rng, 4))
	truthVal := 1.0
	w.AddQuery(&EventQuery{
		Name:    "q",
		Anchors: []int{0},
		Delta:   1,
		Labeler: func(_ *graph.Dynamic, anchor, step int) (float64, bool) {
			return truthVal, true
		},
	})
	g := testGraph(3)
	emb := tensor.NewRandom(rng, 3, 4, 1)
	revealOnce(t, w, g, emb, 0)
	truthVal = 99 // regime change
	revealOnce(t, w, g, emb, 1)
	e, truths := w.ReplayBatch(rng, 16)
	if e.Rows != 1 {
		t.Fatalf("stale reveals kept: %d rows", e.Rows)
	}
	if truths[0] != 99 {
		t.Fatalf("replay holds pre-drift truth %v", truths[0])
	}
}

func TestLinkReplayBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHeads(rng, 4)
	lt := NewLinkPredTask(5)
	g := testGraph(8)
	lt.observeEmbeddings(tensor.ViewOf(tensor.NewRandom(rng, 8, 4, 1)), 0)
	g.AddEdge(0, 3, 0, 1)
	lt.reveal(g, 1, h)
	e, labels := lt.ReplayBatch(rng, 4)
	if e == nil || e.Rows != 4 || e.Cols != 3*4 {
		t.Fatalf("link replay shape wrong: %+v", e)
	}
	for _, l := range labels {
		if l != 0 && l != 1 {
			t.Fatalf("label %v not binary", l)
		}
	}
	if e, _ := NewLinkPredTask(1).ReplayBatch(rng, 4); e != nil {
		t.Fatal("replay before reveal should be nil")
	}
}

// pairInput is the pair heads' input row for endpoint embeddings u and v,
// [u | v | u∘v], built on its own.
func pairInput(u, v []float64) []float64 {
	row := append(append([]float64(nil), u...), v...)
	for k := range u {
		row = append(row, u[k]*v[k])
	}
	return row
}

// Each link replay row is its supervision pair's head input, and the rows,
// carved from one slice, are capped so that appending to one cannot write
// into the next.
func TestLinkReplayRowsArePairInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lt := NewLinkPredTask(5)
	g := testGraph(8)
	emb := tensor.NewRandom(rng, 8, 4, 1)
	lt.observeEmbeddings(tensor.ViewOf(emb), 0)
	g.AddEdge(0, 3, 0, 1)
	g.AddEdge(2, 5, 0, 1)
	lt.reveal(g, 1, NewHeads(rng, 4))
	if len(lt.replayEmb) != 2*(1+lt.NegPerPos) || len(lt.recentPairs) != len(lt.replayEmb) {
		t.Fatalf("%d replay rows for %d pairs", len(lt.replayEmb), len(lt.recentPairs))
	}
	for i, p := range lt.recentPairs {
		row, want := lt.replayEmb[i], pairInput(emb.Row(p.U), emb.Row(p.V))
		if len(row) != len(want) || cap(row) != len(row) {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(row), cap(row), len(want))
		}
		for k := range want {
			if row[k] != want[k] {
				t.Fatalf("row %d of pair %+v differs at %d: %v vs %v", i, p, k, row[k], want[k])
			}
		}
	}
}

func TestSupervisionAddsInPartitionNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHeads(rng, 4)
	w := NewWorkload(h)
	lt := NewLinkPredTask(8)
	w.SetLinkTask(lt)
	g := testGraph(10)
	lt.observeEmbeddings(tensor.ViewOf(tensor.NewRandom(rng, 10, 4, 1)), 0)
	g.AddEdge(1, 2, 0, 1)
	w.Reveal(g, 1)
	sub := g.Induced([]int{0, 1, 2, 3, 4}, -1)
	sup := w.Supervision(sub, rand.New(rand.NewSource(1)))
	pos, neg := 0, 0
	for _, l := range sup.PairLabels {
		if l == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 {
		t.Fatal("positive pair missing")
	}
	if neg == 0 {
		t.Fatal("in-partition negatives missing")
	}
}
