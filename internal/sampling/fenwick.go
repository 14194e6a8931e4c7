// Package sampling provides weighted random sampling over dynamic item sets:
// a Fenwick (binary indexed) tree for O(log n) weight updates and samples,
// and the chip distribution D of the paper's Algorithm 1 built on top of it.
package sampling

import (
	"fmt"
	"math/rand"
)

// Fenwick is a binary indexed tree over non-negative float64 weights that
// supports O(log n) point updates, prefix sums, and inverse-CDF sampling.
// The item set can grow (amortized O(1) per added item).
type Fenwick struct {
	tree    []float64 // 1-based
	weights []float64 // raw per-item weights
	n       int
}

// NewFenwick returns a Fenwick tree over n zero-weight items.
func NewFenwick(n int) *Fenwick {
	f := &Fenwick{}
	f.growTo(n)
	return f
}

// growTo extends the item set to n items. The arrays grow by append, so
// their capacity at least doubles when it runs out, and only the new tree
// nodes are computed: node j sums its children j−2^k, lowest index first,
// then its own weight, the order a build from scratch adds them in. The old
// nodes cover old items alone and keep their sums.
func (f *Fenwick) growTo(n int) {
	if n <= f.n {
		return
	}
	old := f.n
	f.weights = append(f.weights, make([]float64, n-old)...)
	f.tree = append(f.tree, make([]float64, n+1-len(f.tree))...)
	f.n = n
	for j := old + 1; j <= n; j++ {
		var s float64
		for k := (j & -j) >> 1; k > 0; k >>= 1 {
			s += f.tree[j-k]
		}
		f.tree[j] = s + f.weights[j-1]
	}
}

// Grow extends the item set to n items; new items have zero weight.
func (f *Fenwick) Grow(n int) { f.growTo(n) }

// Add adds delta to item i's weight.
func (f *Fenwick) Add(i int, delta float64) {
	if i < 0 || i >= f.n {
		panic(fmt.Sprintf("sampling: Fenwick index %d out of range [0,%d)", i, f.n))
	}
	f.weights[i] += delta
	for j := i + 1; j <= f.n; j += j & (-j) {
		f.tree[j] += delta
	}
}

// Prefix returns the sum of weights of items [0, i].
func (f *Fenwick) Prefix(i int) float64 {
	if i < 0 {
		return 0
	}
	if i >= f.n {
		i = f.n - 1
	}
	var s float64
	for j := i + 1; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// Total returns the sum of all weights.
func (f *Fenwick) Total() float64 { return f.Prefix(f.n - 1) }

// Sample draws an item with probability proportional to its weight.
// It panics if the total weight is not positive.
func (f *Fenwick) Sample(rng *rand.Rand) int {
	total := f.Total()
	if total <= 0 {
		panic("sampling: Fenwick.Sample on empty distribution")
	}
	r := rng.Float64() * total
	// Binary search down the implicit tree.
	idx := 0
	bit := 1
	for bit<<1 <= f.n {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= f.n && f.tree[next] < r {
			idx = next
			r -= f.tree[next]
		}
	}
	if idx >= f.n {
		idx = f.n - 1 // guard against floating-point edge
	}
	return idx
}
