package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFenwickBasics(t *testing.T) {
	f := NewFenwick(5)
	if f.N() != 5 || f.Total() != 0 {
		t.Fatal("initial state wrong")
	}
	f.Add(0, 1)
	f.Add(2, 3)
	f.Add(4, 2)
	if f.Total() != 6 {
		t.Fatalf("Total = %v", f.Total())
	}
	if f.Weight(2) != 3 || f.Weight(1) != 0 {
		t.Fatal("Weight wrong")
	}
	if f.Prefix(2) != 4 || f.Prefix(4) != 6 || f.Prefix(-1) != 0 {
		t.Fatal("Prefix wrong")
	}
	f.Add(2, -3)
	if f.Weight(2) != 0 || f.Total() != 3 {
		t.Fatal("negative delta wrong")
	}
}

func TestFenwickGrowPreservesWeights(t *testing.T) {
	f := NewFenwick(3)
	f.Add(0, 1)
	f.Add(2, 5)
	f.Grow(10)
	if f.N() != 10 {
		t.Fatalf("N = %d", f.N())
	}
	if f.Weight(0) != 1 || f.Weight(2) != 5 || f.Weight(7) != 0 {
		t.Fatal("Grow corrupted weights")
	}
	f.Add(9, 2)
	if f.Total() != 8 {
		t.Fatalf("Total = %v", f.Total())
	}
}

// TestFenwickGrowOneAtATimeMatchesFresh grows a tree one item at a time, as a
// stream adds nodes, adding integer weights (chip counts) between growths:
// its nodes hold the bits of a tree made at the final size with the same
// weights added, and it draws the same samples.
func TestFenwickGrowOneAtATimeMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grown := NewFenwick(0)
	var weights []float64
	for n := 1; n <= 300; n++ {
		grown.Grow(n)
		w := float64(1 + rng.Intn(6))
		weights = append(weights, w)
		grown.Add(n-1, w)
		if n%7 == 0 { // a chip move between old items
			i, j := rng.Intn(n), rng.Intn(n)
			grown.Add(i, -1)
			grown.Add(j, 1)
			weights[i]--
			weights[j]++
		}
		fresh := NewFenwick(n)
		for i, w := range weights {
			fresh.Add(i, w)
		}
		for j := range fresh.tree {
			if math.Float64bits(grown.tree[j]) != math.Float64bits(fresh.tree[j]) {
				t.Fatalf("n=%d: tree[%d] = %v grown, %v fresh", n, j, grown.tree[j], fresh.tree[j])
			}
		}
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		for k := 0; k < 20; k++ {
			if x, y := grown.Sample(a), fresh.Sample(b); x != y {
				t.Fatalf("n=%d: draw %d is %d grown, %d fresh", n, k, x, y)
			}
		}
	}
}

func TestFenwickPrefixMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		fw := NewFenwick(n)
		naive := make([]float64, n)
		for op := 0; op < 60; op++ {
			i := rng.Intn(n)
			d := rng.Float64() * 3
			fw.Add(i, d)
			naive[i] += d
		}
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j <= i; j++ {
				want += naive[j]
			}
			if math.Abs(fw.Prefix(i)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFenwickSampleDistribution(t *testing.T) {
	f := NewFenwick(4)
	weights := []float64{1, 0, 3, 6}
	for i, w := range weights {
		f.Add(i, w)
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 4)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[f.Sample(rng)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight item sampled %d times", counts[1])
	}
	for i, w := range weights {
		want := w / 10 * trials
		if w == 0 {
			continue
		}
		if math.Abs(float64(counts[i])-want) > 0.05*trials {
			t.Fatalf("item %d sampled %d times, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestFenwickSamplePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFenwick(3).Sample(rand.New(rand.NewSource(1)))
}

func TestChipsInit(t *testing.T) {
	c := NewChips(4, 5)
	if c.N() != 4 || c.Total() != 20 || c.K() != 5 {
		t.Fatal("init wrong")
	}
	for v := 0; v < 4; v++ {
		if c.Count(v) != 5 {
			t.Fatal("per-node count wrong")
		}
		if math.Abs(c.Prob(v)-0.25) > 1e-12 {
			t.Fatal("Prob wrong")
		}
	}
}

func TestChipsEnsureN(t *testing.T) {
	c := NewChips(2, 3)
	c.EnsureN(5)
	if c.N() != 5 || c.Total() != 15 || c.Count(4) != 3 {
		t.Fatal("EnsureN wrong")
	}
	c.EnsureN(3) // shrink is a no-op
	if c.N() != 5 {
		t.Fatal("EnsureN shrank")
	}
}

func TestChipsMoveAndFloor(t *testing.T) {
	c := NewChips(2, 2)
	if !c.Move(0, 1) {
		t.Fatal("legal move refused")
	}
	if c.Count(0) != 1 || c.Count(1) != 3 || c.Total() != 4 {
		t.Fatal("move bookkeeping wrong")
	}
	if c.Move(0, 1) {
		t.Fatal("move below floor allowed")
	}
	if c.Move(1, 1) {
		t.Fatal("self-move allowed")
	}
}

func TestChipsSampleRespectsCounts(t *testing.T) {
	c := NewChips(3, 1)
	// Push chips to node 2: 1,1,7 via EnsureN+moves from a bigger pool.
	c.EnsureN(3)
	// Manually move: grow node 2 by taking from a temp node is impossible;
	// instead create asymmetry with repeated moves from 0 and 1 after topping up.
	c2 := NewChips(3, 5)
	for i := 0; i < 4; i++ {
		c2.Move(0, 2)
	}
	rng := rand.New(rand.NewSource(7))
	hits := make([]int, 3)
	const trials = 60000
	for i := 0; i < trials; i++ {
		hits[c2.Sample(rng)]++
	}
	// counts: node0=1, node1=5, node2=9, total 15
	wants := []float64{1.0 / 15, 5.0 / 15, 9.0 / 15}
	for v, w := range wants {
		got := float64(hits[v]) / trials
		if math.Abs(got-w) > 0.02 {
			t.Fatalf("node %d frequency %v, want %v", v, got, w)
		}
	}
}

func TestChipsSampleFromSubset(t *testing.T) {
	c := NewChips(5, 2)
	rng := rand.New(rand.NewSource(9))
	subset := []int{1, 3}
	for i := 0; i < 100; i++ {
		v, ok := c.SampleFrom(rng, subset)
		if !ok || (v != 1 && v != 3) {
			t.Fatalf("SampleFrom left subset: %d ok=%v", v, ok)
		}
	}
}

func TestSampleFromInactiveSubset(t *testing.T) {
	c := NewChips(4, 2)
	c.SetActive(1, false)
	c.SetActive(3, false)
	rng := rand.New(rand.NewSource(2))
	if _, ok := c.SampleFrom(rng, []int{1, 3}); ok {
		t.Fatal("all-inactive subset should report ok=false")
	}
	v, ok := c.SampleFrom(rng, []int{1, 2})
	if !ok || v != 2 {
		t.Fatalf("should sample the only active member, got %d ok=%v", v, ok)
	}
}

func TestChipsActivity(t *testing.T) {
	c := NewChips(3, 2)
	if !c.Active(0) || c.EffectiveWeight(0) != 2 || c.TotalWeight() != 6 {
		t.Fatal("initial activity wrong")
	}
	c.SetActive(0, false)
	if c.Active(0) || c.EffectiveWeight(0) != 0 || c.TotalWeight() != 4 {
		t.Fatal("deactivation wrong")
	}
	// Chips are kept; moves to/from inactive nodes keep weights consistent.
	if !c.Move(1, 0) {
		t.Fatal("move into inactive refused")
	}
	if c.Count(0) != 3 || c.TotalWeight() != 3 {
		t.Fatalf("weights after move wrong: count=%d total=%v", c.Count(0), c.TotalWeight())
	}
	c.SetActive(0, true)
	if c.EffectiveWeight(0) != 3 || c.TotalWeight() != 6 {
		t.Fatal("reactivation wrong")
	}
	// Sampling never returns inactive nodes.
	c.SetActive(2, false)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if v := c.Sample(rng); v == 2 {
			t.Fatal("sampled inactive node")
		}
	}
}

func TestChipsSampleFromEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChips(2, 1).SampleFrom(rand.New(rand.NewSource(1)), nil)
}

// Property: random sequences of moves conserve the total and the floor.
func TestChipsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		k := 1 + rng.Intn(4)
		c := NewChips(n, k)
		for op := 0; op < 200; op++ {
			c.Move(rng.Intn(n), rng.Intn(n))
		}
		total := 0
		for v := 0; v < n; v++ {
			cnt := c.Count(v)
			if cnt < c.MinChips {
				return false
			}
			total += cnt
		}
		return total == n*k && total == c.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fenwick weights always mirror chip counts.
func TestChipsFenwickConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewChips(6, 3)
	for op := 0; op < 500; op++ {
		c.Move(rng.Intn(6), rng.Intn(6))
		if op%100 == 0 {
			c.EnsureN(c.N() + 1)
		}
	}
	for v := 0; v < c.N(); v++ {
		if math.Abs(c.f.Weight(v)-float64(c.Count(v))) > 1e-9 {
			t.Fatalf("fenwick weight %v != count %d at node %d", c.f.Weight(v), c.Count(v), v)
		}
	}
}

// N returns the number of nodes covered.
func (c *Chips) N() int { return len(c.counts) }

// K returns the initial per-node chip count.
func (c *Chips) K() int { return c.k }

// Count returns node v's chip count.
func (c *Chips) Count(v int) int { return c.counts[v] }

// Prob returns node v's normalized probability under D.
func (c *Chips) Prob(v int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[v]) / float64(c.total)
}

// Active reports whether node v is eligible for sampling.
func (c *Chips) Active(v int) bool { return c.active[v] }

// TotalWeight returns the total sampling weight over active nodes.
func (c *Chips) TotalWeight() float64 { return c.f.Total() }

// N returns the number of items.
func (f *Fenwick) N() int { return f.n }

// Weight returns item i's weight.
func (f *Fenwick) Weight(i int) float64 { return f.weights[i] }
