package workload

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/graph"
	"streamgnn/internal/stream"
)

func replay(t *testing.T, d *Dataset) *graph.Dynamic {
	t.Helper()
	g := graph.NewDynamic(d.FeatDim)
	r := stream.NewReplayer(g, d.Source(), d.WindowSteps)
	for r.Advance() {
	}
	if r.Step() != d.Steps-1 {
		t.Fatalf("%s: replay ended at step %d, want %d", d.Name, r.Step(), d.Steps-1)
	}
	return g
}

func TestAllDatasetsGenerateAndReplay(t *testing.T) {
	for _, name := range Names() {
		d, err := ByName(name, GenConfig{Seed: 1, Steps: 20})
		if err != nil {
			t.Fatal(err)
		}
		if d.Name != name || len(d.Batches) != 20 {
			t.Fatalf("%s: batches %d", name, len(d.Batches))
		}
		g := replay(t, d)
		if g.N() < 30 {
			t.Fatalf("%s: too few nodes: %d", name, g.N())
		}
		if g.NumEdges() == 0 {
			t.Fatalf("%s: no edges", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", GenConfig{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	a := Bitcoin(GenConfig{Seed: 7, Steps: 15})
	b := Bitcoin(GenConfig{Seed: 7, Steps: 15})
	ga, gb := graph.NewDynamic(a.FeatDim), graph.NewDynamic(b.FeatDim)
	ra := stream.NewReplayer(ga, a.Source(), a.WindowSteps)
	rb := stream.NewReplayer(gb, b.Source(), b.WindowSteps)
	for ra.Advance() && rb.Advance() {
	}
	if ga.N() != gb.N() || ga.NumEdges() != gb.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	if !ga.Features().Equal(gb.Features()) {
		t.Fatal("same seed produced different features")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := Bitcoin(GenConfig{Seed: 1, Steps: 15})
	b := Bitcoin(GenConfig{Seed: 2, Steps: 15})
	ga, gb := replay(t, a), replay(t, b)
	if ga.Features().Equal(gb.Features()) {
		t.Fatal("different seeds produced identical features")
	}
}

func TestScaleGrowsStream(t *testing.T) {
	small := Reddit(GenConfig{Seed: 1, Steps: 10, Scale: 0.5})
	big := Reddit(GenConfig{Seed: 1, Steps: 10, Scale: 2})
	gs, gb := replay(t, small), replay(t, big)
	if gb.NumEdges() <= gs.NumEdges() {
		t.Fatalf("scale did not grow edges: %d vs %d", gs.NumEdges(), gb.NumEdges())
	}
}

func TestBitcoinLabelsAndQueries(t *testing.T) {
	d := Bitcoin(GenConfig{Seed: 3, Steps: 15})
	g := replay(t, d)
	labeled := 0
	for v := 0; v < g.N(); v++ {
		if _, ok := g.Label(v); ok {
			labeled++
		}
	}
	if labeled == 0 {
		t.Fatal("no self-supervised node labels")
	}
	if len(d.Queries) != 1 || len(d.Queries[0].Anchors) != 10 {
		t.Fatalf("queries wrong: %+v", d.Queries)
	}
	// Truth is defined for all anchors at step >= 1.
	q := d.Queries[0]
	for _, a := range q.Anchors {
		if _, ok := q.Labeler(g, a, 5); !ok {
			t.Fatalf("missing truth for anchor %d", a)
		}
	}
	if _, ok := q.Labeler(g, q.Anchors[0], 999); ok {
		t.Fatal("truth for nonexistent step")
	}
}

func TestRedditEdgeLabels(t *testing.T) {
	d := Reddit(GenConfig{Seed: 4, Steps: 12})
	g := replay(t, d)
	labeled := 0
	for v := 0; v < g.N(); v++ {
		for _, e := range g.OutEdges(v) {
			if e.HasLabel() {
				labeled++
				if e.Label != 0 && e.Label != 1 {
					t.Fatalf("sentiment label %v not binary", e.Label)
				}
			}
		}
	}
	if labeled == 0 {
		t.Fatal("no sentiment edge labels")
	}
	// Truths are ratios in [0, 1].
	q := d.Queries[0]
	for _, a := range q.Anchors {
		v, ok := q.Labeler(g, a, 6)
		if !ok || v < 0 || v > 1 {
			t.Fatalf("bad ratio truth %v ok=%v", v, ok)
		}
	}
}

func TestTaxiHeterogeneousAndWindowed(t *testing.T) {
	d := Taxi(GenConfig{Seed: 5, Steps: 15})
	g := replay(t, d)
	grids, trips := 0, 0
	for _, b := range d.Batches {
		for _, ev := range b.Events {
			if n, ok := ev.(stream.AddNode); ok {
				switch n.Type {
				case 0:
					grids++
				case 1:
					trips++
				}
			}
		}
	}
	if grids+trips != g.N() {
		t.Fatalf("%d grid and %d trip records for %d nodes", grids, trips, g.N())
	}
	if grids != 36 {
		t.Fatalf("grid nodes = %d", grids)
	}
	if trips == 0 {
		t.Fatal("no trip nodes")
	}
	// Sliding window: no edge older than WindowSteps.
	minTime := int64(d.Steps - 1 - d.WindowSteps)
	for v := 0; v < g.N(); v++ {
		for _, e := range g.OutEdges(v) {
			if e.Time < minTime {
				t.Fatalf("expired edge survived: time %d", e.Time)
			}
		}
	}
}

func TestLinkPredDatasetsAttach(t *testing.T) {
	for _, name := range []string{"StackOverflow", "UCIMessages"} {
		d, err := ByName(name, GenConfig{Seed: 6, Steps: 12})
		if err != nil {
			t.Fatal(err)
		}
		if !d.LinkPred || len(d.Queries) != 0 {
			t.Fatalf("%s should be link-pred only", name)
		}
	}
}

func TestEventDatasetAttach(t *testing.T) {
	d := Bitcoin(GenConfig{Seed: 6, Steps: 10})
	if len(d.Queries) != 1 || d.LinkPred {
		t.Fatal("Bitcoin should attach one event query and no link task")
	}
}

// Drift must actually move the anchor truths: the truth sequence should
// change distribution across regimes (this is what makes RQ1's answer
// affirmative).
func TestDriftChangesTruthDistribution(t *testing.T) {
	d := Bitcoin(GenConfig{Seed: 8, Steps: 40, DriftPeriod: 10})
	q := d.Queries[0]
	g := replay(t, d)
	variance := func(from, to int) float64 {
		var vals []float64
		for s := from; s < to; s++ {
			for _, a := range q.Anchors {
				if v, ok := q.Labeler(g, a, s); ok {
					vals = append(vals, v)
				}
			}
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		var sq float64
		for _, v := range vals {
			sq += (v - mean) * (v - mean)
		}
		return sq / float64(len(vals))
	}
	if variance(1, 40) == 0 {
		t.Fatal("truths are constant — no drift signal at all")
	}
	// Per-anchor means should differ between early and late regimes for at
	// least one anchor (hot set moves).
	moved := false
	for _, a := range q.Anchors {
		early, late, ne, nl := 0.0, 0.0, 0, 0
		for s := 1; s < 20; s++ {
			if v, ok := q.Labeler(g, a, s); ok {
				early += v
				ne++
			}
		}
		for s := 20; s < 40; s++ {
			if v, ok := q.Labeler(g, a, s); ok {
				late += v
				nl++
			}
		}
		if ne > 0 && nl > 0 && math.Abs(early/float64(ne)-late/float64(nl)) > 0.5 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no anchor's truth distribution moved across regimes")
	}
}

// The churn stream is the scheduler's stress workload: registered in
// Names() so generators and services list it, it must replay cleanly, keep
// every edge inside its short window, and actually churn — the live edge
// set should turn over between steps.
func TestChurnStream(t *testing.T) {
	d, err := ByName("Churn", GenConfig{Seed: 13, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range Names() {
		found = found || name == "Churn"
	}
	if !found {
		t.Fatal("Churn missing from Names(); the stress stream is undiscoverable")
	}
	if d.WindowSteps <= 0 {
		t.Fatal("churn stream needs a sliding window to produce expiry storms")
	}
	g := replay(t, d)
	if g.N() != 12*8 {
		t.Fatalf("node population %d, want %d", g.N(), 12*8)
	}
	// No edge outlives the window (the expiry-storm half of the churn).
	minTime := int64(d.Steps - 1 - d.WindowSteps)
	for v := 0; v < g.N(); v++ {
		for _, e := range g.OutEdges(v) {
			if e.Time < minTime {
				t.Fatalf("expired edge survived: time %d", e.Time)
			}
		}
	}
	// The edge count fluctuates step to step (the insert-storm half):
	// replay incrementally and record the live edge counts.
	g2 := graph.NewDynamic(d.FeatDim)
	r := stream.NewReplayer(g2, d.Source(), d.WindowSteps)
	var counts []int
	for r.Advance() {
		counts = append(counts, g2.NumEdges())
	}
	distinct := make(map[int]bool)
	for _, c := range counts[d.WindowSteps:] {
		distinct[c] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("edge count never churned: %v", counts)
	}
	// Truths exist for every community hub once the stream is running.
	q := d.Queries[0]
	for _, a := range q.Anchors {
		if _, ok := q.Labeler(g, a, 5); !ok {
			t.Fatalf("missing truth for anchor %d", a)
		}
	}
}

func TestRegimeProcessHotRegionsDominate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := newRegimeProcess(rng, 10, 2, 100)
	var hotSum, coldSum float64
	var hotN, coldN float64
	for i := 0; i < 200; i++ {
		act := p.advance()
		for r, a := range act {
			if p.hot[r] {
				hotSum += a
				hotN++
			} else {
				coldSum += a
				coldN++
			}
		}
	}
	if hotSum/hotN <= coldSum/coldN {
		t.Fatal("hot regions are not hotter")
	}
}

func TestWeightedPick(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[weightedPick(rng, []float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weighted pick ordering wrong: %v", counts)
	}
	// Degenerate all-zero weights fall back to uniform.
	if v := weightedPick(rng, []float64{0, 0}); v != 0 && v != 1 {
		t.Fatal("zero weights broken")
	}
}

func TestGenConfigDefaults(t *testing.T) {
	c := GenConfig{}.withDefaults(9)
	if c.Steps != 40 || c.Scale != 1 || c.DriftPeriod != 9 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if got := (GenConfig{Scale: 0.01}).scaled(10); got != 1 {
		t.Fatalf("scaled floor wrong: %d", got)
	}
}
