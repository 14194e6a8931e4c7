package query

import (
	"fmt"
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

// BenchmarkLinkScores times one step's link reveal scoring on StackOverflow's
// shape: 64 sources with 26 candidates each (a positive, 5 sampled negatives,
// 20 rank candidates), hidden 16, over a 2 000-row embedding, where each
// source's third of the head's first layer is carried across its run — and
// the same 1 664 pairs with a new source at every pair, as a batch of
// queries may come, where nothing is carried.
func BenchmarkLinkScores(b *testing.B) {
	const sources, per, hidden, rows = 64, 26, 16, 2000
	rng := rand.New(rand.NewSource(1))
	h := NewHeads(rng, hidden)
	view := tensor.ViewOf(tensor.NewRandom(rng, rows, hidden, 1))
	for _, run := range []int{per, 1} {
		var src, dst []int
		for len(src) < sources*per {
			u := rng.Intn(rows)
			for k := 0; k < run; k++ {
				src, dst = append(src, u), append(dst, rng.Intn(rows))
			}
		}
		b.Run(fmt.Sprintf("run=%d", run), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LinkScores(h, view, src, dst)
			}
		})
	}
}
