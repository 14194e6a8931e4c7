package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// signedRows returns an n×d matrix with the zeros the head's kernels branch
// on: about a fifth of the entries +0 or −0, every third row all +0 and, in
// a matrix of more than one row, its last row all −0.
func signedRows(rng *rand.Rand, n, d int) *tensor.Matrix {
	m := tensor.NewRandom(rng, n, d, 1)
	negZero := math.Copysign(0, -1)
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = negZero
		}
	}
	for r := 0; r < n; r += 3 {
		clear(m.Row(r))
	}
	if n > 1 {
		for k := range m.Row(n - 1) {
			m.Row(n - 1)[k] = negZero
		}
	}
	return m
}

// signedHeads returns heads whose biases are random with signed zeros among
// them, where NewHeads leaves them +0.
func signedHeads(rng *rand.Rand, hidden int) *Heads {
	h := NewHeads(rng, hidden)
	for _, p := range h.Params() {
		if p.Value.Rows == 1 {
			copy(p.Value.Data, signedRows(rng, 2, p.Value.Cols).Row(0))
		}
	}
	return h
}

// column returns the single output column of head applied to in on tp, the
// tape forward scoring ran before MLP.Score, and releases the pass.
func column(tp *autodiff.Tape, head *nn.MLP, in *autodiff.Node) []float64 {
	out := head.Apply(tp, in).Value
	scores := make([]float64, out.Rows)
	for i := range scores {
		scores[i] = out.At(i, 0)
	}
	tp.Release()
	return scores
}

func sameScores(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d scores, want %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("score %d is %v, want %v", i, a[i], b[i])
		}
	}
	return nil
}

// MLP.Score, row by row, is bit-identical to Apply over the stacked rows on
// an inference tape — warm, so Apply writes in place — for all four heads,
// every batch size from 1 to 12, zero rows, −0 entries and signed-zero biases.
func TestHeadScoresMatchApply(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const hidden = 5
	h := signedHeads(rng, hidden)
	for _, c := range []struct {
		name  string
		head  *nn.MLP
		width int
	}{
		{"Event", h.Event, hidden},
		{"Link", h.Link, 3 * hidden},
		{"SelfNode", h.SelfNode, hidden},
		{"SelfEdge", h.SelfEdge, 3 * hidden},
	} {
		tp := autodiff.NewInferenceTape()
		for n := 1; n <= 12; n++ {
			x := signedRows(rng, n, c.width)
			want := column(tp, c.head, autodiff.Constant(x))
			got := c.head.Score(n, 0, func(i int, row []float64) bool {
				copy(row, x.Row(i))
				return false
			})
			if err := sameScores(got, want); err != nil {
				t.Fatalf("%s head, %d rows: %v", c.name, n, err)
			}
		}
	}
	if h.Event.Score(0, 0, nil) != nil {
		t.Fatal("scoring no rows should return nil")
	}
}

// LinkScores, which carries each source's third of the link head's first
// layer from pair to pair, is bit-identical to Apply over the stacked
// PairInput rows: runs of one source of every length from 1, sources changing
// at every pair, a source row of all +0 and one of all −0, a −0 among a
// source row's entries, pair rows of all ±0, and an Inf in the first layer's
// weights — among the source's rows, which an all-±0 source row meets only
// when the whole pair row is not ±0, or among the others.
func TestLinkScoresCarrySourceSums(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const hidden, rows = 5, 9
	emb := signedRows(rng, rows, hidden) // rows 0, 3 and 6 all +0, row 8 all −0
	emb.Row(1)[0] = math.Copysign(0, -1)
	view := tensor.ViewOf(emb)
	tp := autodiff.NewInferenceTape()
	for trial := 0; trial < 40; trial++ {
		h := signedHeads(rng, hidden)
		if w := h.Link.Params()[0].Value; trial%4 > 1 {
			r := rng.Intn(hidden) // a source row
			if trial%4 == 3 {
				r = hidden + rng.Intn(w.Rows-hidden)
			}
			w.Row(r)[rng.Intn(w.Cols)] = math.Inf(1)
		}
		var src, dst []int
		for len(src) < 40 {
			s, run := rng.Intn(rows), 1+rng.Intn(6)
			if trial%3 == 0 {
				run = 1
			}
			for k := 0; k < run; k++ {
				src, dst = append(src, s), append(dst, rng.Intn(rows))
			}
		}
		src, dst = append(src, 0, 0, 8, 1), append(dst, 3, 8, 8, 1) // pair rows of all ±0, then a source after them
		want := column(tp, h.Link, PairInput(tp, autodiff.Constant(emb), src, dst))
		if err := sameScores(LinkScores(h, view, src, dst), want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// AnswerBatch answers each request as it answers it alone, bit for bit, and
// its event and link scores are the heads' tape forwards over GatherRows and
// PairInput of the same embeddings: mixed kinds, invalid requests, repeated
// endpoints, zero rows and −0 entries in the embeddings.
func TestAnswerBatchMatchesEachAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const hidden, rows = 4, 11
	h := signedHeads(rng, hidden)
	emb := signedRows(rng, rows, hidden)
	view := tensor.ViewOf(emb)
	var reqs []Request
	var anchors, src, dst []int
	for i := 0; i < 60; i++ {
		switch rng.Intn(7) {
		case 0, 1:
			r := Request{Kind: KindEvent, Anchor: rng.Intn(rows)}
			anchors = append(anchors, r.Anchor)
			reqs = append(reqs, r)
		case 2, 3:
			r := Request{Kind: KindLink, Src: rng.Intn(rows), Dst: rng.Intn(rows)}
			src, dst = append(src, r.Src), append(dst, r.Dst)
			reqs = append(reqs, r)
		case 4:
			reqs = append(reqs, Request{Kind: "density", Node: rng.Intn(rows)})
		case 5:
			reqs = append(reqs, Request{Kind: KindEvent, Anchor: rows + rng.Intn(3)}, Request{Kind: KindLink, Src: -1, Dst: 0})
		default:
			reqs = append(reqs, Request{Kind: "bogus"})
		}
	}
	batched := AnswerBatch(h, view, reqs)
	var event, link []float64
	for i, r := range reqs {
		alone := AnswerBatch(h, view, reqs[i:i+1])[0]
		got := batched[i]
		if got.OK != alone.OK || got.Err != alone.Err || math.Float64bits(got.Score) != math.Float64bits(alone.Score) {
			t.Fatalf("request %d (%+v): batched %+v, alone %+v", i, r, got, alone)
		}
		switch {
		case got.OK && r.Kind == KindEvent:
			event = append(event, got.Score)
		case got.OK && r.Kind == KindLink:
			link = append(link, got.Score)
		case r.Kind != KindEvent && r.Kind != KindLink:
			if want := fmt.Sprintf("unknown query kind %q", r.Kind); got.OK || got.Err != want {
				t.Fatalf("request %d (%+v): %+v, want error %q", i, r, got, want)
			}
		}
	}
	tp := autodiff.NewInferenceTape()
	x := autodiff.Constant(emb)
	if err := sameScores(event, column(tp, h.Event, tp.GatherRows(x, anchors))); err != nil {
		t.Fatalf("event scores against the tape forward: %v", err)
	}
	if err := sameScores(link, column(tp, h.Link, PairInput(tp, x, src, dst))); err != nil {
		t.Fatalf("link scores against the tape forward over PairInput: %v", err)
	}
}
