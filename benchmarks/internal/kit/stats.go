// Package kit holds what the ledger (benchmarks/e2e) and the comparer
// (benchmarks/cmp) share: order statistics, the span recorder behind the
// traced run, and the result-file and BENCHMARK.json formats.
package kit

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the q-quantile (q in [0, 1]) of xs by nearest rank; 0
// for an empty sample.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Median is the 0.5 quantile with the usual midpoint rule for even samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentileLadder lists the percentiles a timing may be reported at.
var percentileLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// SupportedPercentile returns the highest ladder percentile that is at most
// want and still has at least ten of n samples beyond it — the rule the
// choosing-metrics guide sets for a tail timing. It never goes below the
// median.
func SupportedPercentile(n int, want float64) float64 {
	best := 0.5
	for _, p := range percentileLadder {
		if p > want {
			break
		}
		// The slack keeps 100 samples at p90 (10 beyond) on the right side
		// of the floating-point product.
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so spreads
// computed here agree with the driver's. It needs at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4 // after the clamp, as CPython computes it
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile distance as a share of the median — the
// steadiness figure the benchmark contract bounds. It is 0 when the median
// is 0 or there are fewer than two samples.
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
