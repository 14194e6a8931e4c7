package core

import (
	"fmt"
	"math"
	"testing"

	"streamgnn/internal/kde/kdetest"
)

func TestChipChainStateEnumeration(t *testing.T) {
	// n=3, k=2, min=1: compositions of 6 into 3 parts >= 1 -> C(5,2)=10.
	c := NewChipChain([]float64{0, 0, 0}, 2, 1, true)
	if len(c.States()) != 10 {
		t.Fatalf("states = %d, want 10", len(c.States()))
	}
	for _, s := range c.States() {
		sum := 0
		for _, v := range s {
			if v < 1 {
				t.Fatalf("state %v violates chip floor", s)
			}
			sum += v
		}
		if sum != 6 {
			t.Fatalf("state %v has wrong total", s)
		}
	}
}

func TestChipChainRowsAreStochastic(t *testing.T) {
	for _, uniform := range []bool{true, false} {
		c := NewChipChain([]float64{0.3, 1.1, 2.0}, 2, 1, uniform)
		for i, row := range c.TransitionMatrix() {
			var sum float64
			for _, p := range row {
				if p < -1e-15 {
					t.Fatalf("negative transition prob in row %d", i)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("row %d sums to %v (uniform=%v)", i, sum, uniform)
			}
		}
	}
}

// Theorem IV.4 under the proof's transition accounting (uniform pair
// selection): the stationary distribution is exactly e^{u_s}/Z.
func TestTheoremIV4ExactUnderUniformPairs(t *testing.T) {
	utilities := []float64{0.5, 2.0, 3.5}
	c := NewChipChain(utilities, 2, 1, true)
	got := c.Stationary(30000)
	want := c.TheoreticalStationary()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("state %v: stationary %v, want %v", c.States()[i], got[i], want[i])
		}
	}
}

// With Algorithm 1's chip-proportional sampling the law holds approximately:
// high-utility states still dominate and the ordering of state probabilities
// tracks e^{u_s}.
func TestTheoremIV4ApproximateUnderChipSampling(t *testing.T) {
	utilities := []float64{0.5, 2.0, 6.0}
	c := NewChipChain(utilities, 2, 1, false)
	got := c.Stationary(30000)
	want := c.TheoreticalStationary()
	if kdetest.TotalVariation(got, want) > 0.15 {
		t.Fatalf("TV distance %v too large", kdetest.TotalVariation(got, want))
	}
	// The max-utility state (all movable chips at node 2) must be the most
	// probable state.
	best, bestP := -1, -1.0
	for i, p := range got {
		if p > bestP {
			best, bestP = i, p
		}
	}
	s := c.States()[best]
	if s[2] != 4 || s[0] != 1 || s[1] != 1 {
		t.Fatalf("most probable state %v is not the max-utility one", s)
	}
}

// Theorem IV.3: the ratio of chip-move probabilities v1->v2 vs v2->v1 is
// exp((u2-u1)/(kn)) — an exponential function of the influence-function
// difference IF(v2) - IF(v1) = u2 - u1.
func TestTheoremIV3MoveRatio(t *testing.T) {
	utilities := []float64{1.0, 2.5}
	c := NewChipChain(utilities, 3, 1, true) // n=2, k=3, total 6
	P := c.TransitionMatrix()
	// Find an interior state (3,3).
	si := c.index[stateKey([]int{3, 3})]
	up := c.index[stateKey([]int{2, 4})]   // chip 0 -> 1 (toward higher utility)
	down := c.index[stateKey([]int{4, 2})] // chip 1 -> 0
	ratio := P[si][up] / P[si][down]
	want := math.Exp((utilities[1] - utilities[0]) / 6)
	if math.Abs(ratio-want) > 1e-12 {
		t.Fatalf("move ratio %v, want %v", ratio, want)
	}
}

func TestExpectedUtility(t *testing.T) {
	c := NewChipChain([]float64{1, 3}, 2, 1, true) // total 4 chips
	got := c.ExpectedUtility([]int{1, 3})
	want := 0.25*1 + 0.75*3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpectedUtility = %v, want %v", got, want)
	}
}

func TestChipChainRejectsTrivial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChipChain([]float64{1}, 2, 1, true)
}

// ChipChain builds the exact Markov chain of Algorithm 1's chip state for a
// small graph with *fixed* node utilities, enabling a direct check of
// Theorem IV.4: the stationary probability of state s is proportional to
// e^{u_s}, u_s the expected temporal utility of s.
//
// With UniformPairs (pairs drawn uniformly rather than from D) the chain is
// exactly reversible with that stationary law — this matches the proof's
// transition accounting. With chip-proportional pair selection, as Algorithm
// 1 samples in practice, the pair-selection probability itself depends on
// the state and the law holds approximately; the test suite checks both.
type ChipChain struct {
	N            int
	K            int
	MinChips     int
	Utilities    []float64
	UniformPairs bool

	states [][]int
	index  map[string]int
}

// NewChipChain enumerates the state space: all chip vectors of length
// len(utilities) with every entry >= minChips summing to k*n.
func NewChipChain(utilities []float64, k, minChips int, uniformPairs bool) *ChipChain {
	n := len(utilities)
	if n < 2 {
		panic("core: ChipChain needs at least 2 nodes")
	}
	c := &ChipChain{
		N: n, K: k, MinChips: minChips,
		Utilities: utilities, UniformPairs: uniformPairs,
		index: make(map[string]int),
	}
	total := k * n
	cur := make([]int, n)
	var rec func(pos, left int)
	rec = func(pos, left int) {
		if pos == n-1 {
			if left >= minChips {
				cur[pos] = left
				st := append([]int(nil), cur...)
				c.index[stateKey(st)] = len(c.states)
				c.states = append(c.states, st)
			}
			return
		}
		for v := minChips; v <= left-(n-1-pos)*minChips; v++ {
			cur[pos] = v
			rec(pos+1, left-v)
		}
	}
	rec(0, total)
	return c
}

func stateKey(s []int) string { return fmt.Sprint(s) }

// States returns the enumerated chip states.
func (c *ChipChain) States() [][]int { return c.states }

// ExpectedUtility returns u_s = Σ (c_i / total) · u_i for a state.
func (c *ChipChain) ExpectedUtility(state []int) float64 {
	total := float64(c.K * c.N)
	var u float64
	for i, ci := range state {
		u += float64(ci) / total * c.Utilities[i]
	}
	return u
}

// TransitionMatrix builds the exact one-step transition matrix of Algorithm
// 1 lines 2-16 with one pair per step and fixed utilities.
func (c *ChipChain) TransitionMatrix() [][]float64 {
	m := len(c.states)
	total := float64(c.K * c.N)
	P := make([][]float64, m)
	for si, s := range c.states {
		row := make([]float64, m)
		for v1 := 0; v1 < c.N; v1++ {
			for v2 := 0; v2 < c.N; v2++ {
				var pPair float64
				if c.UniformPairs {
					pPair = 1 / float64(c.N*c.N)
				} else {
					pPair = float64(s[v1]) / total * float64(s[v2]) / total
				}
				if pPair == 0 {
					continue
				}
				// Lines 8-10: ties favor v2 as winner.
				w, l := v2, v1
				if c.Utilities[v1] > c.Utilities[v2] {
					w, l = v1, v2
				}
				delta := c.Utilities[w] - c.Utilities[l]
				// Branch A (prob 1/2): chip l -> w.
				if w != l && s[l] > c.MinChips {
					row[c.moveIndex(s, l, w)] += pPair * 0.5
				} else {
					row[si] += pPair * 0.5
				}
				// Branch B (prob 1/2 * e^{-delta/kn}): chip w -> l.
				pB := 0.5 * math.Exp(-delta/total)
				if w != l && s[w] > c.MinChips {
					row[c.moveIndex(s, w, l)] += pPair * pB
				} else {
					row[si] += pPair * pB
				}
				// Remaining mass stays put.
				row[si] += pPair * (0.5 - pB)
			}
		}
		P[si] = row
	}
	return P
}

func (c *ChipChain) moveIndex(s []int, from, to int) int {
	next := append([]int(nil), s...)
	next[from]--
	next[to]++
	idx, ok := c.index[stateKey(next)]
	if !ok {
		panic(fmt.Sprintf("core: move produced unknown state %v", next))
	}
	return idx
}

// Stationary computes the stationary distribution by power iteration.
func (c *ChipChain) Stationary(iters int) []float64 {
	P := c.TransitionMatrix()
	m := len(c.states)
	pi := make([]float64, m)
	for i := range pi {
		pi[i] = 1 / float64(m)
	}
	next := make([]float64, m)
	for it := 0; it < iters; it++ {
		for j := range next {
			next[j] = 0
		}
		for i, p := range pi {
			if p == 0 {
				continue
			}
			row := P[i]
			for j, q := range row {
				next[j] += p * q
			}
		}
		pi, next = next, pi
	}
	return pi
}

// TheoreticalStationary returns the Theorem IV.4 law π_s = e^{u_s} / Z over
// the enumerated states.
func (c *ChipChain) TheoreticalStationary() []float64 {
	out := make([]float64, len(c.states))
	var z float64
	for i, s := range c.states {
		out[i] = math.Exp(c.ExpectedUtility(s))
		z += out[i]
	}
	for i := range out {
		out[i] /= z
	}
	return out
}
