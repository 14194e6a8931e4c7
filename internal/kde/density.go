// Package kde computes in closed form the sampling density that the graph-KDE
// sampler of Algorithm 2 induces (the paper's Section V-B), for analysis and
// for the serving path's density queries. The statistics its tests check
// Theorem V.1 with live in kde/kdetest.
package kde

import (
	"fmt"

	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
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
// drops below tol, after at most maxHops steps.
func GraphKDEDensity(g *graph.Dynamic, seeds []int, weights []float64, q float64, maxHops int, tol float64) ([]float64, error) {
	return GraphKDEDensityCSR(g.WalkAdj(), seeds, weights, q, maxHops, tol)
}

// GraphKDEDensityCSR is GraphKDEDensity over a frozen walk adjacency (one row
// per node, entries the node's out-edge targets then in-edge sources — the
// shape graph.Dynamic.WalkAdj returns). Because the CSR is immutable, a
// serving snapshot can capture it at publish time and evaluate the density
// lock-free while the live graph keeps mutating; the per-entry accumulation
// order matches the live-graph walk exactly, so both paths are bit-identical.
func GraphKDEDensityCSR(adj *tensor.CSR, seeds []int, weights []float64, q float64, maxHops int, tol float64) ([]float64, error) {
	n := adj.NRows
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
			if adj.RowNNZ(v) == 0 {
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
			deg := adj.RowNNZ(v)
			if deg == 0 {
				continue
			}
			move := (1 - q) * cur[v] / float64(deg)
			for p := adj.RowPtr[v]; p < adj.RowPtr[v+1]; p++ {
				next[adj.ColIdx[p]] += move
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
