// Fixture for the detorder analyzer: map-iteration order, global math/rand
// and time.Now on deterministic paths.
package a

import (
	"math/rand"
	"sort"
	"time"
)

// Positive: float accumulation inside a map range is order-sensitive.
func sumValues(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `floating-point accumulation into total`
	}
	return total
}

// Positive: keys collected in map order and never sorted.
func unsortedKeys(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `keys collects map keys in randomized iteration order`
	}
	return keys
}

// Positive: append into a struct field, also unsorted.
type bag struct{ items []int }

func unsortedFieldKeys(m map[int]bool) bag {
	var b bag
	for k := range m {
		b.items = append(b.items, k) // want `b.items collects map keys in randomized iteration order`
	}
	return b
}

// Positive: RNG draws consumed in map order assign different values per key
// across runs even when the RNG is seeded.
func drawPerKey(m map[int]bool, r *rand.Rand) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k := range m {
		out[k] = r.Float64() // want `RNG draw inside map iteration`
	}
	return out
}

// Positive: the global math/rand source is unseeded.
func globalDraw() int {
	return rand.Intn(10) // want `global math/rand.Intn`
}

// Positive: wall-clock reads have no place on a seeded path.
func clock() time.Time {
	return time.Now() // want `time.Now on a seeded deterministic path`
}

// Negative: the repository idiom — collect keys, then sort — is recognized.
func sortedKeys(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Negative: sorting a field append works too.
func sortedFieldKeys(m map[int]bool) bag {
	var b bag
	for k := range m {
		b.items = append(b.items, k)
	}
	sort.Ints(b.items)
	return b
}

// Negative: rand.New / rand.NewSource are constructors, not draws from the
// global source.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Negative: indexed accumulation is per-slot and order-insensitive.
func histogram(m map[int]float64, bins []float64) {
	for k, v := range m {
		bins[k%len(bins)] += v
	}
}

// Positive: a frontier kept as a set and expanded by ranging over it. The
// candidate list comes out in randomized order, so whatever is accumulated
// over it (a float sum, a splice) differs across runs.
func expandFrontier(frontier map[int]bool, adj [][]int) []int {
	var cand []int
	for v := range frontier {
		cand = append(cand, v) // want `cand collects map keys in randomized iteration order`
		cand = append(cand, adj[v]...)
	}
	return cand
}

// Negative: drain the frontier set into a slice, sort it, then expand
// deterministically.
func expandFrontierSorted(frontier map[int]bool, adj [][]int) []int {
	ids := make([]int, 0, len(frontier))
	for v := range frontier {
		ids = append(ids, v)
	}
	sort.Ints(ids)
	var cand []int
	for _, v := range ids {
		cand = append(cand, v)
		cand = append(cand, adj[v]...)
	}
	return cand
}

// Positive: the conflict-graph anti-pattern — partition node sets kept as
// maps and drained by ranging, so the claim order (and thus which unit a
// shared node unions on) differs across runs.
func conflictNodes(balls []map[int]bool) []int {
	var claimed []int
	for _, ball := range balls {
		for v := range ball {
			claimed = append(claimed, v) // want `claimed collects map keys in randomized iteration order`
		}
	}
	return claimed
}

// Negative: the core conflict-build idiom — collect each ball's nodes, sort,
// then stamp/union in deterministic node order.
func conflictNodesSorted(balls []map[int]bool) []int {
	var claimed []int
	for _, ball := range balls {
		ids := make([]int, 0, len(ball))
		for v := range ball {
			ids = append(ids, v)
		}
		sort.Ints(ids)
		claimed = append(claimed, ids...)
	}
	return claimed
}

// Escape hatch: a justified //streamlint:ordered-ok waives the check.
func waived(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		//streamlint:ordered-ok diagnostics-only aggregate, never feeds training
		total += v
	}
	return total
}

// An empty justification does not waive anything.
func emptyJustification(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		//streamlint:ordered-ok
		total += v // want `floating-point accumulation into total`
	}
	return total
}
