// Package kde computes in closed form the sampling density that the graph-KDE
// sampler of Algorithm 2 induces (the paper's Section V-B), for analysis:
// Algorithm 2 itself only samples. The statistics its tests check Theorem V.1
// with live in kde/kdetest.
package kde

import (
	"fmt"

	"streamgnn/internal/graph"
)

// GraphKDEDensity computes, in closed form, the sampling density that
// Algorithm 2's random walk induces for a *fixed* seed window: seed s is
// chosen with probability ∝ weights[s]; the walk stops at the current node
// with probability q, otherwise moves to a uniform (undirected) neighbor.
// Walks from isolated nodes stop immediately.
//
// This is the sum of graph-KDE kernels of Section V-B in explicit form
// (Algorithm 2 itself never materializes it — it only samples), useful for
// analysis: plotting kernels, verifying Theorem V.1's decay, and choosing q.
// The series Σ_h q(1−q)^h π_h is truncated once the remaining walk mass
// drops below tol, after at most maxHops steps. A hop moves a node's mass to
// its out-edge targets, then its in-edge sources, in list order.
func GraphKDEDensity(g *graph.Dynamic, seeds []int, weights []float64, q float64, maxHops int, tol float64) ([]float64, error) {
	n := g.N()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("kde: no seeds")
	}
	if len(weights) != len(seeds) {
		return nil, fmt.Errorf("kde: %d weights for %d seeds", len(weights), len(seeds))
	}
	if q <= 0 || q > 1 {
		return nil, fmt.Errorf("kde: stop probability q=%v outside (0,1]", q)
	}
	if maxHops < 0 {
		maxHops = 0
	}
	// Initial distribution over walk positions.
	cur := make([]float64, n)
	var total float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("kde: negative seed weight %v", w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("kde: zero total seed weight")
	}
	for i, s := range seeds {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("kde: seed %d out of range [0,%d)", s, n)
		}
		cur[s] += weights[i] / total
	}

	density := make([]float64, n)
	next := make([]float64, n)
	walkMass := 1.0
	for hop := 0; ; hop++ {
		// Stop with probability q at the current position; isolated nodes
		// stop with probability 1 (the walk cannot continue).
		for v := 0; v < n; v++ {
			if cur[v] == 0 {
				continue
			}
			if g.Degree(v) == 0 {
				density[v] += cur[v]
			} else {
				density[v] += q * cur[v]
			}
		}
		if hop >= maxHops {
			break
		}
		// Advance the surviving mass one hop.
		for v := range next {
			next[v] = 0
		}
		var surviving float64
		for v := 0; v < n; v++ {
			if cur[v] == 0 {
				continue
			}
			deg := g.Degree(v)
			if deg == 0 {
				continue
			}
			move := (1 - q) * cur[v] / float64(deg)
			for _, e := range g.OutEdges(v) {
				next[e.To] += move
			}
			for _, e := range g.InEdges(v) {
				next[e.To] += move
			}
			surviving += (1 - q) * cur[v]
		}
		cur, next = next, cur
		walkMass = surviving
		if walkMass < tol {
			// Attribute the truncated tail to its current positions so the
			// result remains a probability distribution.
			for v := 0; v < n; v++ {
				density[v] += cur[v]
			}
			break
		}
	}
	return density, nil
}
