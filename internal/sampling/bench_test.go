package sampling

import (
	"math/rand"
	"testing"
)

// BenchmarkSamplerFenwickVsLinear justifies the Fenwick-tree sampler: at
// graph-stream node counts, O(log n) sampling beats the naive linear scan.
func BenchmarkSamplerFenwickVsLinear(b *testing.B) {
	const n = 100000
	weights := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	f := NewFenwick(n)
	var total float64
	for i := range weights {
		weights[i] = rng.Float64()
		f.Add(i, weights[i])
		total += weights[i]
	}
	b.Run("fenwick", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			f.Sample(rng)
		}
	})
	b.Run("linear", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			r := rng.Float64() * total
			for j, w := range weights {
				r -= w
				if r < 0 {
					_ = j
					break
				}
			}
		}
	})
}

// BenchmarkChipsMove measures the chip-move hot path of Algorithm 1.
func BenchmarkChipsMove(b *testing.B) {
	c := NewChips(100000, 5)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Move(rng.Intn(c.N()), rng.Intn(c.N()))
	}
}
