// Package metrics implements the evaluation metrics of the paper's Section
// VI-E — MSE, accuracy, rank-based AUC, and mean reciprocal rank — plus
// mean±std aggregation over repeated runs for the error bars of Tables I-III.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// MSE returns the mean squared error between predictions and truths.
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("metrics: MSE length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i, p := range pred {
		d := p - truth[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// Accuracy returns the fraction of score/label pairs where (score > thresh)
// matches the binary label.
func Accuracy(scores []float64, labels []bool, thresh float64) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: Accuracy length mismatch %d vs %d", len(scores), len(labels)))
	}
	if len(scores) == 0 {
		return 0
	}
	var hit float64
	for i, s := range scores {
		if (s > thresh) == labels[i] {
			hit++
		}
	}
	return hit / float64(len(scores))
}

// AUC returns the area under the ROC curve, computed as the normalized
// Mann-Whitney U statistic with midrank handling of ties. It returns NaN if
// either class is empty.
func AUC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: AUC length mismatch %d vs %d", len(scores), len(labels)))
	}
	type item struct {
		score float64
		pos   bool
	}
	items := make([]item, len(scores))
	var nPos, nNeg float64
	for i, s := range scores {
		items[i] = item{s, labels[i]}
		if labels[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return math.NaN()
	}
	sort.Slice(items, func(i, j int) bool { return items[i].score < items[j].score })
	// Midranks over ties.
	var rankSumPos float64
	i := 0
	for i < len(items) {
		j := i
		for j < len(items) && items[j].score == items[i].score {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if items[k].pos {
				rankSumPos += mid
			}
		}
		i = j
	}
	return (rankSumPos - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// MRR returns the mean reciprocal rank of 1-based ranks.
func MRR(ranks []int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	var s float64
	for _, r := range ranks {
		if r < 1 {
			panic(fmt.Sprintf("metrics: rank %d < 1", r))
		}
		s += 1 / float64(r)
	}
	return s / float64(len(ranks))
}

// RankOf returns the 1-based rank of target among scores (target included),
// counting ties optimistically at the midpoint, with higher scores ranking
// first.
func RankOf(target float64, negatives []float64) int {
	higher, equal := 0, 0
	for _, s := range negatives {
		if s > target {
			higher++
		} else if s == target {
			equal++
		}
	}
	return 1 + higher + equal/2
}

// Summary accumulates values and reports mean and standard deviation using
// Welford's online algorithm.
type Summary struct {
	n        int
	mean, m2 float64
}

// Add accumulates one value.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of accumulated values.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean.
func (s *Summary) Mean() float64 { return s.mean }

// Std returns the sample standard deviation (0 for fewer than 2 values).
func (s *Summary) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// String formats the summary as the paper's "mean ± std".
func (s *Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean(), s.Std())
}
