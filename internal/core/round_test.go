package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	emb := tensor.ViewOf(tp.Detach(m.Forward(tp, dgnn.FullView(g))))
	w.Predict(emb, 0)
	tp.Release()
	if link {
		tr.Negatives = ViewRows{View: emb}
	}
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
	return evalCut(tr, opt, centers, seeds, firstHalf(len(centers)))
}

// evalCut is evalAsRound with the first cut units on the trainer's learner
// and the rest on its twin: a round on one tape when cut is len(centers).
func evalCut(tr *Trainer, opt *autodiff.Adam, centers []int, seeds []int64, cut int) ([]Unit, [][]float64, TrainerStats) {
	opt.ZeroGrad()
	before := tr.Stats
	r := new(round)
	for i, v := range centers {
		r.add(tr.G.Partition(v, tr.Model.Layers()), seeds[i])
	}
	tr.evalHalves(r, cut, true)
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
	cut := firstHalf(len(r.subs))
	build := func() {
		r.halves[0].union.Build(r.subs[:cut])
		r.halves[1].union.Build(r.subs[cut:])
	}
	if allocs := testing.AllocsPerRun(50, build); allocs != 0 {
		t.Fatalf("warm union builds allocate %.1f times, want 0", allocs)
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
// round as evalRound runs it, in two halves side by side, its forward and
// loss metered apart from its backward pass. The
// forward writes a row-local op's result over an operand no backward rule
// reads (autodiff's reuse on a recording tape) and reads a concatenation's
// parts where they are; the backward writes each interior gradient once and
// hands elementwise ones down (autodiff's runBack) instead of zero-filling a
// buffer per node and drawing a temporary per rule, gives a concatenation's
// parts their blocks without a sliced copy, none to a constant part,
// accumulates a parameter's first product share straight into its zeroed
// gradient, and, forward and backward, gives each buffer back to the pass
// once nothing reads it — a value after its last reader, an interior
// gradient after its rule — for the pass's later draws of its length, and
// the backward's of its size class.
func TestRoundMetersWithinCeilings(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	for _, c := range []struct {
		kind     dgnn.Kind
		fwd, bwd int64 // ceilings: forward and loss floats, backward floats
	}{
		// Each ceiling is the kind's count on one tape plus 10 %. Split in
		// two halves of 8 units, as evalRound runs it, with a backward draw
		// taking a kept buffer of its size class when none of its length is
		// kept, a warm round meters 8 510 / 1 658 (GCLSTM), 10 048 / 1 298
		// (TGCN), 22 776 / 242 (DCRNN) and 17 827 / 2 474 (RTGCN) forward /
		// backward floats; split with exact-length draws alone, 8 510 /
		// 3 014, 10 048 / 2 564, 22 776 / 2 480 and 17 827 / 3 734. On one
		// tape, with each buffer given back to the pass at its last use,
		// forward and backward, and exact-length draws, it metered 8 510 /
		// 2 971, 10 048 / 2 521, 22 955 / 2 137 and 17 827 / 3 691.
		// 13 256 / 3 922, 13 324 / 5 582, 23 316 / 10 809
		// and 33 187 / 12 119 with every value and interior gradient kept
		// until Release, every op run on the rows the loss reads
		// (autodiff.Tape.Run) and a first gradient written over a value no
		// backward rule reads; the backward counts were 10 186, 10 694,
		// 13 281 and 30 563 with a buffer drawn for every first gradient.
		// 13 634 / 10 186, 13 324 / 10 694, 23 316 / 13 281 and
		// 38 485 / 34 787 with those rows written into the models by hand
		// (RTGCN's on every row); 20 060 / 13 042, 16 696 / 12 926 and
		// 26 136 / 19 509 on every row. This fixture's losses read 58 of 174
		// union rows. Before that, the forward counts were 23 174, 21 844 and
		// 30 018 with a copy per concatenation (42 829 for RTGCN's, its view
		// copied to pin it) and 37 235, 33 695 and 57 860 with every value in
		// a buffer of its own; the backward counts 13 546, 13 358, 18 879 and
		// 35 921 with a temporary for a parameter's first product share,
		// 16 288, 17 102 and 23 217 with one gradient per concatenation, and
		// 58 633, 53 637 and 72 935 with a zero-filled buffer per node and a
		// temporary per rule.
		{dgnn.GCLSTM, 9361, 3269},
		{dgnn.TGCN, 11053, 2774},
		{dgnn.DCRNN, 25251, 2351},
		{dgnn.RTGCN, 19610, 4061},
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
		metered(true) // warm: parameter gradients allocated, the pool filled
		fwd := metered(false)
		bwd := metered(true) - fwd
		t.Logf("%s: forward and loss %d floats, backward %d", c.kind, fwd, bwd)
		if fwd > c.fwd || bwd > c.bwd {
			t.Errorf("%s: a warm round's forward and loss meter %d floats, its backward %d; want at most %d and %d", c.kind, fwd, bwd, c.fwd, c.bwd)
		}
	}
}

// everyRow forwards every row of a view whatever rows it wants: the model a
// round runs asking for every row.
type everyRow struct{ dgnn.Model }

func (m everyRow) Forward(tp *autodiff.Tape, v dgnn.View) *autodiff.Node {
	v.Out = nil
	return m.Model.Forward(tp, v)
}

// rowCount checks that a model's forward returns exactly the rows the view
// asks for.
type rowCount struct {
	dgnn.Model
	t *testing.T
}

func (m rowCount) Forward(tp *autodiff.Tape, v dgnn.View) *autodiff.Node {
	emb := m.Model.Forward(tp, v)
	if emb.Value.Rows != len(v.Out) {
		m.t.Errorf("%s: a forward of %d rows asked for %d returned %d", m.Name(), v.N, len(v.Out), emb.Value.Rows)
	}
	return emb
}

// TestRoundWantedRowsMatchEveryRow is the exactness of View.Out: a round
// whose models compute each op on the rows the loss reads gives utilities and
// every parameter gradient Float64bits-equal to the same round forwarded on
// every row, for all eight kinds on the event and the link workload (the
// round of 16 split, both halves' models wrapped), and a
// full-graph pass steps to the same parameters. Every kind must return
// exactly the rows asked for, and the rounds' losses must read fewer rows
// than they stack, or the test says nothing.
func TestRoundWantedRowsMatchEveryRow(t *testing.T) {
	for _, kind := range dgnn.Kinds() {
		var wantRows, unionRows int64
		for _, link := range []bool{false, true} {
			tr, opt := roundFixture(t, kind, link, nil)
			model, twin := tr.Model, tr.twinLearner().model
			for _, centers := range roundCenters {
				seeds := make([]int64, len(centers))
				for i := range seeds {
					seeds[i] = int64(2000 + 5*i)
				}
				before := tr.Stats
				tr.Model, tr.twin.model = rowCount{model, t}, rowCount{twin, t}
				want, wantGrad, _ := evalAsRound(tr, opt, centers, seeds)
				wantRows += tr.Stats.WantRows - before.WantRows
				unionRows += tr.Stats.UnionRows - before.UnionRows
				tr.Model, tr.twin.model = everyRow{model}, everyRow{twin}
				got, gotGrad, _ := evalAsRound(tr, opt, centers, seeds)
				tr.Model, tr.twin.model = model, twin
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
		wantTr.Model = rowCount{wantTr.Model, t}
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

// activeOut asks a forward for every active row of its view: every row a
// diffusion reaches, whatever rows the round's losses read among them.
type activeOut struct{ dgnn.Model }

func (m activeOut) Forward(tp *autodiff.Tape, v dgnn.View) *autodiff.Node {
	v.Out = v.RWFn().Active
	return m.Model.Forward(tp, v)
}

// A warm DCRNN round A meters the same floats whether the round before it was
// A or a round B of the same union shape whose forward returns every active
// row: the rows a round reads change the rows each op runs on, and the round
// before changes nothing. A's losses read an isolated
// center (31, labeled); B has an isolated center in its place that no loss
// reads (35, unlabeled), so B's rows are exactly the active ones.
func TestRoundWarmPlanSurvivesChangingRows(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	tr, opt := roundFixture(t, dgnn.DCRNN, false, nil)
	model, twin := tr.Model, tr.twinLearner().model
	run := func(isolated int, m, tm dgnn.Model) int64 {
		tr.Model, tr.twin.model = m, tm
		r := new(round)
		for i, v := range []int{3, 4, isolated, 0, 9, 17, 12, 25, 7, 21} {
			r.add(tr.G.Partition(v, 2), int64(i))
		}
		tensor.ResetMeter()
		tr.evalRound(r, true)
		opt.ZeroGrad()
		return tensor.TotalFloats()
	}
	run(31, model, twin)
	warm := run(31, model, twin)
	run(35, activeOut{model}, activeOut{twin})
	if after := run(31, model, twin); after != warm {
		t.Fatalf("a warm round meters %d floats after a round on every active row, %d after itself", after, warm)
	}
}

// TestSplitRoundMatchesHalves pins the gradient contract of a round of two or
// more pairs, for all eight kinds on the event and the link workload: its
// utilities are bit-equal to the same round evaluated on one tape, and its
// gradients to each half evaluated alone on one tape from zeroed gradients,
// the second half's added into the first's — with the halves side by side
// and with one processor, each after an optimizer step. The split round
// counts as one round.
func TestSplitRoundMatchesHalves(t *testing.T) {
	rounds := [][]int{roundCenters[2], {3, 31, 4, 33, 9, 12}, {0, 9, 17, 12}}
	for _, kind := range dgnn.Kinds() {
		for _, link := range []bool{false, true} {
			tr, opt := roundFixture(t, kind, link, nil)
			for _, centers := range rounds {
				name := fmt.Sprintf("%s/link=%v/units=%d", kind, link, len(centers))
				seeds := make([]int64, len(centers))
				for i := range seeds {
					seeds[i] = int64(3000 + 11*i)
				}
				cut := firstHalf(len(centers))
				if cut >= len(centers) || cut%2 != 0 {
					t.Fatalf("%s: first half of %d units", name, cut)
				}
				// Step θ first: the twin must start each round from the
				// optimizer's values, not from those it was built with.
				evalAsRound(tr, opt, centers, seeds)
				opt.Step()
				want, _, _ := evalCut(tr, opt, centers, seeds, len(centers))
				first, firstGrad, _ := evalCut(tr, opt, centers[:cut], seeds[:cut], cut)
				second, secondGrad, _ := evalCut(tr, opt, centers[cut:], seeds[cut:], len(centers)-cut)
				if fmt.Sprint(append(first, second...)) != fmt.Sprint(want) {
					t.Fatalf("%s: halves alone %v %v, one tape %v", name, first, second, want)
				}
				wantGrad := firstGrad
				for p, g := range secondGrad {
					if g != nil && wantGrad[p] == nil {
						wantGrad[p] = make([]float64, len(g))
					}
					for j, x := range g {
						wantGrad[p][j] += x
					}
				}
				for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
					prev := runtime.GOMAXPROCS(procs)
					before := tr.Stats
					got, gotGrad, _ := evalAsRound(tr, opt, centers, seeds)
					runtime.GOMAXPROCS(prev)
					opt.ZeroGrad()
					if rounds, units := tr.Stats.Rounds-before.Rounds, tr.Stats.Units-before.Units; rounds != 1 || units != int64(len(centers)) {
						t.Fatalf("%s: a split round counted as %d rounds of %d units", name, rounds, units)
					}
					for i := range want {
						if got[i].OK != want[i].OK || math.Float64bits(got[i].Utility) != math.Float64bits(want[i].Utility) {
							t.Fatalf("%s, GOMAXPROCS %d: unit %d split %+v, one tape %+v", name, procs, i, got[i], want[i])
						}
					}
					for p := range wantGrad {
						if len(gotGrad[p]) != len(wantGrad[p]) {
							t.Fatalf("%s, GOMAXPROCS %d: param %d gradient of %d entries, want %d", name, procs, p, len(gotGrad[p]), len(wantGrad[p]))
						}
						for j, x := range wantGrad[p] {
							if math.Float64bits(gotGrad[p][j]) != math.Float64bits(x) {
								t.Fatalf("%s, GOMAXPROCS %d: param %d[%d] split %v, halves added %v", name, procs, p, j, gotGrad[p][j], x)
							}
						}
					}
				}
			}
		}
	}
}
