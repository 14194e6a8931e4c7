package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/dgnn"
	"streamgnn/internal/graph"
	"streamgnn/internal/query"
	"streamgnn/internal/tensor"
)

// roundFixture builds a seeded random graph — 30 connected nodes with typed,
// partly labeled edges and 6 isolated ones — a model of the given kind with
// committed recurrent state, and a workload that has revealed targets and
// replay material (plus link pairs, negatives' embeddings and link replay when
// link is set). mutate adjusts the trainer's configuration. It returns the
// trainer and the Adam optimizer under the model's wrapper, whose gradients
// the tests clear and read.
func roundFixture(t *testing.T, kind dgnn.Kind, link bool, mutate func(*Config)) (*Trainer, *autodiff.Adam) {
	t.Helper()
	const n, connected, hidden = 36, 30, 6
	rng := rand.New(rand.NewSource(int64(100 + kind)))
	g := graph.NewDynamic(3)
	for v := 0; v < n; v++ {
		g.AddNode([]float64{rng.NormFloat64(), rng.NormFloat64(), 1})
		if v%3 != 2 {
			g.SetLabel(v, rng.Float64())
		}
	}
	addEdges := func(count int, ts int64) {
		for i := 0; i < count; i++ {
			u, v := rng.Intn(connected), rng.Intn(connected)
			label := math.NaN()
			if i%2 == 0 {
				label = rng.Float64()
			}
			g.AddLabeledEdge(u, v, graph.EdgeType(rng.Intn(3)), ts, label)
		}
	}
	addEdges(45, 0)
	m := dgnn.New(kind, rng, 3, hidden)
	heads := query.NewHeads(rng, hidden)
	w := query.NewWorkload(heads)
	w.AddQuery(&query.EventQuery{
		Name:    "q",
		Anchors: []int{0, 4, 9, 17, 31},
		Delta:   1,
		Labeler: func(_ *graph.Dynamic, anchor, step int) (float64, bool) {
			return 0.1 * float64(anchor%7), true
		},
	})
	if link {
		w.SetLinkTask(query.NewLinkPredTask(5))
	}
	cfg := DefaultConfig()
	cfg.SelfWeight, cfg.SupWeight = 0.5, 1.5 // exercise the weighted columns
	if mutate != nil {
		mutate(&cfg)
	}
	opt := autodiff.NewAdam(cfg.LR, append(m.Params(), heads.Params()...))
	tr := NewTrainer(g, m, w, m.WrapOptimizer(opt), cfg, rng)
	// One committed forward, predict and reveal: recurrent state, revealed
	// targets and replay exist, and step 1's edges are the link positives.
	m.BeginStep(0)
	tp := autodiff.NewTape()
	// Predict keeps a view of the embeddings, which the link negatives read
	// after the tape is released: detach them from its recycling.
	w.Predict(tensor.ViewOf(tp.Detach(m.Forward(tp, dgnn.FullView(g)))), 0)
	tp.Release()
	addEdges(12, 1)
	w.Reveal(g, 1)
	m.BeginStep(1)
	return tr, opt
}

// gradSnapshot copies every parameter gradient (nil reads as absent).
func gradSnapshot(opt *autodiff.Adam) [][]float64 {
	out := make([][]float64, len(opt.Params()))
	for i, p := range opt.Params() {
		if p.Grad != nil {
			out[i] = append([]float64(nil), p.Grad.Data...)
		}
	}
	return out
}

// evalAsRound evaluates centers as one round from zeroed gradients and returns
// the units, the parameter gradients and the target counters it consumed.
func evalAsRound(tr *Trainer, opt *autodiff.Adam, centers []int, seeds []int64) ([]Unit, [][]float64, TrainerStats) {
	opt.ZeroGrad()
	before := tr.Stats
	r := new(round)
	for i, v := range centers {
		r.add(tr.G.Partition(v, tr.Model.Layers()), seeds[i])
	}
	tr.evalRound(r, true)
	return r.units, gradSnapshot(opt), targetDelta(tr.Stats, before)
}

func targetDelta(now, before TrainerStats) TrainerStats {
	return TrainerStats{
		SelfNodeTargets: now.SelfNodeTargets - before.SelfNodeTargets,
		SelfEdgeTargets: now.SelfEdgeTargets - before.SelfEdgeTargets,
		SupNodeTargets:  now.SupNodeTargets - before.SupNodeTargets,
		SupPairTargets:  now.SupPairTargets - before.SupPairTargets,
		ReplayTargets:   now.ReplayTargets - before.ReplayTargets,
	}
}

// checkRoundMatchesUnits is the equivalence the union rests on: a round of
// len(centers) units against the reference that evaluates each unit as a
// round of one and sums the gradients in unit order. OK flags and utilities
// must be bit-equal; gradients are the same terms in another association, so
// they agree to 1e-12 of each parameter's largest entry — and exactly for a
// round of one, which IS the reference.
func checkRoundMatchesUnits(t *testing.T, tr *Trainer, opt *autodiff.Adam, centers []int) {
	t.Helper()
	seeds := make([]int64, len(centers))
	for i := range seeds {
		seeds[i] = int64(1000 + 7*i)
	}
	// Reference: one round per unit, gradients accumulating in unit order.
	opt.ZeroGrad()
	before := tr.Stats
	want := make([]Unit, len(centers))
	for i, v := range centers {
		r := new(round)
		r.add(tr.G.Partition(v, tr.Model.Layers()), seeds[i])
		tr.evalRound(r, true)
		want[i] = r.units[0]
	}
	wantGrad, wantTargets := gradSnapshot(opt), targetDelta(tr.Stats, before)

	got, gotGrad, gotTargets := evalAsRound(tr, opt, centers, seeds)
	opt.ZeroGrad()
	if gotTargets != wantTargets {
		t.Fatalf("targets consumed: round %+v, per unit %+v", gotTargets, wantTargets)
	}
	anyOK := false
	for i := range want {
		if got[i].Node != want[i].Node || got[i].OK != want[i].OK ||
			math.Float64bits(got[i].Utility) != math.Float64bits(want[i].Utility) {
			t.Fatalf("unit %d (node %d): round %+v, alone %+v", i, centers[i], got[i], want[i])
		}
		anyOK = anyOK || want[i].OK
	}
	if !anyOK {
		t.Fatalf("fixture gave centers %v no material at all", centers)
	}
	for p := range wantGrad {
		if (gotGrad[p] == nil) != (wantGrad[p] == nil) {
			t.Fatalf("param %d: gradient present in round %v, per unit %v", p, gotGrad[p] != nil, wantGrad[p] != nil)
		}
		scale := 0.0
		for _, x := range wantGrad[p] {
			scale = math.Max(scale, math.Abs(x))
		}
		tol := 1e-12 * scale
		if len(centers) == 1 {
			tol = 0
		}
		for j, x := range wantGrad[p] {
			if d := math.Abs(gotGrad[p][j] - x); d > tol || math.IsNaN(d) {
				t.Fatalf("param %d[%d]: round %v, per unit %v (|diff| %g > %g)", p, j, gotGrad[p][j], x, d, tol)
			}
		}
	}
}

// Centers of the rounds under test: overlapping partitions (3 and its
// neighbourhood), an identical pair (3 twice), isolated centers (31 is an
// anchor, 32..35 are not) and, in the round of 16, most of the graph.
var roundCenters = [][]int{
	{3},
	{3, 31},
	{3, 3, 4, 31, 33, 0, 9, 17, 12, 25, 35, 7, 21, 28, 5, 14},
}

// TestRoundMatchesPerUnitEvaluation pins the union's contract for all eight
// kinds on the event workload and the link workload (global negatives, link
// replay).
func TestRoundMatchesPerUnitEvaluation(t *testing.T) {
	for _, kind := range dgnn.Kinds() {
		for _, link := range []bool{false, true} {
			tr, opt := roundFixture(t, kind, link, nil)
			for _, centers := range roundCenters {
				t.Run(fmt.Sprintf("%s/link=%v/units=%d", kind, link, len(centers)), func(t *testing.T) {
					checkRoundMatchesUnits(t, tr, opt, centers)
				})
			}
			// The link fixture must have put every term kind through the round.
			if st := tr.Stats; link && (st.SelfNodeTargets == 0 || st.SelfEdgeTargets == 0 || st.SupNodeTargets == 0 || st.SupPairTargets == 0 || st.ReplayTargets == 0) {
				t.Fatalf("%s: link fixture left a term kind without targets: %+v", kind, st)
			}
		}
	}
}

// TestRoundWithMaterialLessUnits checks units without any target — isolated,
// unlabeled, no anchor, replay off — first, in the middle and last in a round
// whose other units have material: they come out not OK with zero utility and
// the others are unmoved.
func TestRoundWithMaterialLessUnits(t *testing.T) {
	tr, opt := roundFixture(t, dgnn.TGCN, false, func(c *Config) { c.ReplaySize = 0 })
	centers := []int{32, 3, 35, 35, 9, 32}
	checkRoundMatchesUnits(t, tr, opt, centers)
	units, _, _ := evalAsRound(tr, opt, centers, make([]int64, len(centers)))
	for i, u := range units {
		bare := centers[i] == 32 || centers[i] == 35
		if u.OK == bare || (bare && u.Utility != 0) {
			t.Fatalf("unit %d (node %d): %+v, want OK=%v", i, centers[i], u, !bare)
		}
	}
	// A round in which no unit has material trains nothing and says so.
	r := new(round)
	r.add(tr.G.Partition(32, 2), 1)
	r.add(tr.G.Partition(35, 2), 2)
	if tr.evalRound(r, true); r.trained || r.units[0].OK || r.units[1].OK {
		t.Fatalf("material-less round reports training: %+v", r.units)
	}
}

// TestRoundWarmScratch is the allocation promise of a round: once its
// scratch has grown to the high-water mark, building the union and stacking
// 16 units' material allocate nothing beyond what the partitions' own
// accessors return, and a whole 16-unit round allocates less than two rounds
// of one.
func TestRoundWarmScratch(t *testing.T) {
	tr, opt := roundFixture(t, dgnn.GCLSTM, false, nil)
	// The partitions are extracted once, outside the measured rounds: the
	// promise is about the round's scratch, not about extraction.
	var subs []*graph.Subgraph
	for _, v := range roundCenters[2] {
		subs = append(subs, tr.G.Partition(v, 2))
	}
	r := new(round)
	run := func(r *round, subs []*graph.Subgraph) func() {
		return func() {
			r.reset()
			for i, sub := range subs {
				r.add(sub, int64(i))
			}
			tr.evalRound(r, true)
			opt.ZeroGrad()
		}
	}
	run(r, subs)() // warm: scratch at its high-water mark
	if allocs := testing.AllocsPerRun(50, func() { r.union.Build(r.subs) }); allocs != 0 {
		t.Fatalf("warm union build allocates %.1f times, want 0", allocs)
	}
	one := new(round)
	run(one, subs[:1])()
	perUnit := testing.AllocsPerRun(50, run(one, subs[:1]))
	whole := testing.AllocsPerRun(50, run(r, subs))
	if whole >= 2*perUnit+float64(8*len(subs)) {
		t.Fatalf("a warm round of %d allocates %.0f times, a round of one %.0f: the scratch is not being reused", len(subs), whole, perUnit)
	}
	t.Logf("warm allocations: round of %d %.0f, round of one %.0f", len(subs), whole, perUnit)
}

// TestRoundMetersWithinCeilings is the volume promise of a warm 16-unit
// round, its forward and loss metered apart from its backward pass. The
// forward writes a row-local op's result over an operand no backward rule
// reads (autodiff's reuse on a recording tape) and reads a concatenation's
// parts where they are; the backward writes each interior gradient once and
// hands elementwise ones down (autodiff's runBack) instead of zero-filling a
// buffer per node and drawing a temporary per rule, gives a concatenation's
// parts their blocks without a sliced copy, none to a constant part, and
// accumulates a parameter's first product share straight into its zeroed
// gradient. Each backward ceiling is the kind's count plus 10 %.
func TestRoundMetersWithinCeilings(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	for _, c := range []struct {
		kind     dgnn.Kind
		fwd, bwd int64 // ceilings: forward and loss floats, backward floats
	}{
		// The forward counts are 20 060, 16 696 and 26 136 with every
		// concatenation a view over its parts; 23 174, 21 844 and 30 018
		// with a copy per concatenation; 37 235, 33 695 and 57 860 with
		// every value in a buffer of its own. The backward counts are
		// 13 042, 12 926, 17 709 and 34 787 (RTGCN) with a parameter's first
		// product share accumulated into its zeroed gradient; 13 546,
		// 13 358, 18 879 and 35 921 with a temporary for it. They were
		// 13 546, 13 358 and 20 679 with a concatenation's gradient kept
		// per part, for the parts that need one; 16 288, 17 102 and 23 217
		// with one gradient per concatenation sliced for its operands;
		// 58 633, 53 637 and 72 935 with a zero-filled buffer per node and
		// a temporary per rule. RTGCN's forward is 38 485 with its
		// convolution input pinned part by part, 42 829 with the view
		// copied to pin it; its backward is 35 921 either way. The RTGCN
		// forward ceiling sits below the copy's count. DCRNN's round,
		// its gates past the reset gate on the rows the loss reads
		// (View.Want), meters 27 744 and 18 879: this fixture's losses
		// read most rows, so the gathers cost more than they save.
		// GCLSTM's and TGCN's rounds on those rows meter 13 634 and
		// 10 186, 13 324 and 10 694 (20 060 and 13 042, 16 696 and
		// 12 926 on every row): their gates pick the adjacency's rows
		// rather than gather their inputs.
		{dgnn.GCLSTM, 14997, 11205},
		{dgnn.TGCN, 14656, 11763},
		{dgnn.DCRNN, 28750, 19480},
		{dgnn.RTGCN, 42333, 38266},
	} {
		tr, opt := roundFixture(t, c.kind, false, nil)
		r := new(round)
		metered := func(apply bool) int64 {
			r.reset()
			for i, v := range roundCenters[2] {
				r.add(tr.G.Partition(v, 2), int64(i))
			}
			tensor.ResetMeter()
			tr.evalRound(r, apply)
			floats := tensor.TotalFloats()
			opt.ZeroGrad()
			return floats
		}
		metered(true) // warm: plan learned, parameter gradients allocated
		fwd := metered(false)
		bwd := metered(true) - fwd
		t.Logf("%s: forward and loss %d floats, backward %d", c.kind, fwd, bwd)
		if fwd > c.fwd || bwd > c.bwd {
			t.Errorf("%s: a warm round's forward and loss meter %d floats, its backward %d; want at most %d and %d", c.kind, fwd, bwd, c.fwd, c.bwd)
		}
	}
}

// everyRow forwards every row of a view whatever rows it wants: the model a
// round runs without View.Want.
type everyRow struct{ dgnn.Model }

func (m everyRow) Forward(tp *autodiff.Tape, v dgnn.View) *autodiff.Node {
	v.Want = nil
	return m.Model.Forward(tp, v)
}

// rowCount checks the rows a model's forward returns: with View.Want, the
// wanted rows alone if the model takes Want, every row if it ignores it.
type rowCount struct {
	dgnn.Model
	t         *testing.T
	takesWant bool
}

func (m rowCount) Forward(tp *autodiff.Tape, v dgnn.View) *autodiff.Node {
	emb := m.Model.Forward(tp, v)
	want := v.N
	if v.Want != nil && m.takesWant {
		want = len(v.Want)
	}
	if emb.Value.Rows != want {
		m.t.Errorf("%s: a forward of %d rows wanting %d returned %d, want %d", m.Name(), v.N, len(v.Want), emb.Value.Rows, want)
	}
	return emb
}

// TestRoundWantedRowsMatchEveryRow is the exactness of View.Want: a round
// whose model computes only the rows the loss reads (DCRNN, GCLSTM, TGCN)
// gives utilities and every parameter gradient Float64bits-equal to the same
// round forwarded on every row, for all eight kinds on the event and the link
// workload, and a full-graph pass steps to the same parameters. Those three
// kinds must return exactly the wanted rows, the others every row, and the
// rounds' losses must read fewer rows than they stack, or the test says
// nothing.
func TestRoundWantedRowsMatchEveryRow(t *testing.T) {
	takesWant := map[dgnn.Kind]bool{dgnn.DCRNN: true, dgnn.GCLSTM: true, dgnn.TGCN: true}
	for _, kind := range dgnn.Kinds() {
		var wantRows, unionRows int64
		for _, link := range []bool{false, true} {
			tr, opt := roundFixture(t, kind, link, nil)
			model := tr.Model
			for _, centers := range roundCenters {
				seeds := make([]int64, len(centers))
				for i := range seeds {
					seeds[i] = int64(2000 + 5*i)
				}
				before := tr.Stats
				tr.Model = rowCount{model, t, takesWant[kind]}
				want, wantGrad, _ := evalAsRound(tr, opt, centers, seeds)
				wantRows += tr.Stats.WantRows - before.WantRows
				unionRows += tr.Stats.UnionRows - before.UnionRows
				tr.Model = everyRow{model}
				got, gotGrad, _ := evalAsRound(tr, opt, centers, seeds)
				tr.Model = model
				opt.ZeroGrad()
				name := fmt.Sprintf("%s/link=%v/units=%d", kind, link, len(centers))
				for i := range want {
					if got[i].OK != want[i].OK || math.Float64bits(got[i].Utility) != math.Float64bits(want[i].Utility) {
						t.Fatalf("%s: unit %d every row %+v, wanted rows %+v", name, i, got[i], want[i])
					}
				}
				for p := range wantGrad {
					if len(gotGrad[p]) != len(wantGrad[p]) {
						t.Fatalf("%s: param %d gradient of %d entries every row, %d wanted rows", name, p, len(gotGrad[p]), len(wantGrad[p]))
					}
					for j, x := range wantGrad[p] {
						if math.Float64bits(gotGrad[p][j]) != math.Float64bits(x) {
							t.Fatalf("%s: param %d[%d] every row %v, wanted rows %v", name, p, j, gotGrad[p][j], x)
						}
					}
				}
			}
		}
		if wantRows <= 0 || wantRows >= unionRows {
			t.Fatalf("%s: the losses read %d of %d rows", kind, wantRows, unionRows)
		}
		// A full-graph pass is the same round of one unit: two identical
		// fixtures, one forwarding every row, step to the same parameters.
		wantTr, wantOpt := roundFixture(t, kind, false, nil)
		gotTr, gotOpt := roundFixture(t, kind, false, nil)
		wantTr.Model = rowCount{wantTr.Model, t, takesWant[kind]}
		gotTr.Model = everyRow{gotTr.Model}
		wantLoss, wantOK := wantTr.TrainFull()
		gotLoss, gotOK := gotTr.TrainFull()
		if gotOK != wantOK || math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("%s: full pass every row %v (%v), wanted rows %v (%v)", kind, gotLoss, gotOK, wantLoss, wantOK)
		}
		for p, prm := range wantOpt.Params() {
			for j, x := range prm.Value.Data {
				if math.Float64bits(gotOpt.Params()[p].Value.Data[j]) != math.Float64bits(x) {
					t.Fatalf("%s: full pass: param %d[%d] every row %v, wanted rows %v", kind, p, j, gotOpt.Params()[p].Value.Data[j], x)
				}
			}
		}
	}
}
