// Package kdetest holds the statistics the tests of kde and core check
// Theorem V.1 with: a sampler's empirical density, its profile over hop
// distance and its smoothness across edges, and the distance between two
// distributions.
package kdetest

import (
	"math"

	"streamgnn/internal/graph"
)

// EmpiricalDensity estimates the effective sampling density of a node
// sampler by Monte Carlo: it invokes draw `samples` times and returns the
// per-node frequency over n nodes.
func EmpiricalDensity(n int, samples int, draw func() int) []float64 {
	counts := make([]float64, n)
	for i := 0; i < samples; i++ {
		counts[draw()]++
	}
	for v := range counts {
		counts[v] /= float64(samples)
	}
	return counts
}

// EdgeSmoothness returns the mean absolute density difference across the
// edges of g: (1/|E|)·Σ_{(u,v)∈E} |p(u)−p(v)|. Lower is smoother; the
// graph-KDE sampling distribution should be smoother than the raw chip
// distribution (Section V).
func EdgeSmoothness(g *graph.Dynamic, p []float64) float64 {
	var sum float64
	var edges int
	for u := 0; u < g.N(); u++ {
		for _, e := range g.OutEdges(u) {
			sum += math.Abs(p[u] - p[e.To])
			edges++
		}
	}
	if edges == 0 {
		return 0
	}
	return sum / float64(edges)
}

// HopProfile returns, for each hop distance 0..maxHop from center, the mean
// density of nodes in that ring (NaN for empty rings). For a KDE-style
// kernel the profile should decay with hop distance (Theorem V.1).
func HopProfile(g *graph.Dynamic, center int, p []float64, maxHop int) []float64 {
	dist := BFSDistances(g, center)
	sums := make([]float64, maxHop+1)
	counts := make([]int, maxHop+1)
	for v, d := range dist {
		if d >= 0 && d <= maxHop {
			sums[d] += p[v]
			counts[d]++
		}
	}
	out := make([]float64, maxHop+1)
	for h := range out {
		if counts[h] == 0 {
			out[h] = math.NaN()
		} else {
			out[h] = sums[h] / float64(counts[h])
		}
	}
	return out
}

// BFSDistances returns undirected BFS hop distances from src (-1 when
// unreachable).
func BFSDistances(g *graph.Dynamic, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.OutEdges(u) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
		for _, e := range g.InEdges(u) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// TotalVariation returns ½·Σ|p−q| between two distributions over the same
// node set.
func TotalVariation(p, q []float64) float64 {
	var s float64
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2
}
