// Command streambench regenerates the paper's evaluation (Section VI) through
// the public engine: every cell builds a streamgnn.Engine, wires a generated
// dataset into it (its queries, its link task, a stream.Replayer) and steps it
// to the end of the stream.
//
//	streambench -exp table1 [-runs 10]   # Table I   (event monitoring)
//	streambench -exp table2              # Table II  (link prediction)
//	streambench -exp table3              # Table III (parameter study) and the ablations
//	streambench -exp figure4             # Figure 4  (continuous vs partial training)
//	streambench -exp scaling             # Full vs KDE cost as the Taxi stream grows
//
// Use -steps and -scale to trade fidelity for speed; build with
// -buildvcs=true (or go build) so each header names its commit. Per-mechanism
// and serving numbers come from the end-to-end ledger (benchmarks/run.sh).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"

	"streamgnn"
	"streamgnn/internal/metrics"
	"streamgnn/internal/stream"
	"streamgnn/internal/tensor"
	"streamgnn/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "streambench:", err)
		os.Exit(1)
	}
}

// opts are the flags every experiment shares.
type opts struct {
	runs, steps int
	scale       float64
}

// gen is run r's stream; run r seeds both the stream and the engine with r+1.
func (o opts) gen(r int) workload.GenConfig {
	return workload.GenConfig{Seed: int64(r + 1), Steps: o.steps, Scale: o.scale}
}

// run parses args and writes the selected experiment to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("streambench", flag.ContinueOnError)
	exp := fs.String("exp", "table1", "experiment: table1, table2, table3, figure4 or scaling")
	runs := fs.Int("runs", 10, "repetitions per cell (the paper uses 10)")
	steps := fs.Int("steps", 40, "stream steps per run")
	scale := fs.Float64("scale", 1, "workload scale factor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := opts{runs: *runs, steps: *steps, scale: *scale}
	if o.runs < 1 || o.steps < 4 || o.scale <= 0 {
		return fmt.Errorf("need -runs >= 1, -steps >= 4 and -scale > 0")
	}
	switch *exp {
	case "table1":
		return writeTable(w, "TABLE I: event monitoring", o, false, group{cells: cross(tableI, methods)})
	case "table2":
		return writeTable(w, "TABLE II: link prediction", o, true, group{cells: cross(tableII, methods)})
	case "table3":
		return writeTable(w, "TABLE III: parameter study, then the ablations that Config expresses", o, false, table3()...)
	case "figure4":
		return runFigure4(w, o)
	case "scaling":
		return writeTable(w, "SCALING: Full/1 vs KDE/1 as the Taxi (DCRNN) stream grows; a Full training step is O(n), a node partition O(d^L)", o, false, scaling()...)
	}
	return fmt.Errorf("unknown experiment %q (want table1, table2, table3, figure4 or scaling)", *exp)
}

// cell is one experiment cell: a dataset and model trained by one strategy at
// one training interval. method labels its row; tweak, if set, installs a
// sweep's setting.
type cell struct {
	dataset, model, strategy string
	interval                 int
	method                   string
	tweak                    func(*streamgnn.Config)
}

// trial is one run of a cell: its engine, fed its stream batch by batch.
type trial struct {
	e    *streamgnn.Engine
	rep  *stream.Replayer
	peak int64 // largest metered bytes of one whole Step
}

// open builds c's engine over the dataset gen generates, wired the way a
// service wires it: the dataset's queries with its labelers, its link task,
// and a replayer that leaves window expiry to the engine.
func open(c cell, gen workload.GenConfig) (*trial, error) {
	ds, err := workload.ByName(c.dataset, gen)
	if err != nil {
		return nil, err
	}
	cfg := streamgnn.Config{Model: c.model, Strategy: c.strategy, Interval: c.interval, Seed: gen.Seed, WindowSteps: ds.WindowSteps}
	if c.tweak != nil {
		c.tweak(&cfg)
	}
	e, err := streamgnn.NewEngine(ds.FeatDim, cfg)
	if err != nil {
		return nil, err
	}
	for _, q := range ds.Queries {
		err := e.AddQuery(streamgnn.Query{Name: q.Name, Anchors: q.Anchors, Delta: q.Delta, Threshold: q.Threshold,
			Labeler: func(anchor, step int) (float64, bool) { return q.Labeler(e.Graph(), anchor, step) }})
		if err != nil {
			return nil, err
		}
	}
	if ds.LinkPred {
		e.EnableLinkPrediction()
	}
	tensor.EnableMeter(true)
	return &trial{e: e, rep: stream.NewReplayer(e.Graph(), ds.Source(), 0)}, nil
}

// advance steps the engine over the next batches until step stop or the end
// of the stream, metering each whole Step.
func (s *trial) advance(stop int) error {
	for s.e.CurrentStep() < stop && s.rep.Advance() {
		tensor.ResetMeter()
		if err := s.e.Step(); err != nil {
			return err
		}
		s.peak = max(s.peak, tensor.TotalBytes())
	}
	return nil
}

// runCell runs c once over the stream gen generates.
func runCell(c cell, gen workload.GenConfig) (*trial, error) {
	s, err := open(c, gen)
	if err == nil {
		err = s.advance(never)
	}
	return s, err
}

// row aggregates a cell's runs into the paper's mean±std columns. quality is
// Error (event workloads) or Accuracy (link prediction); peak is the largest
// over the runs.
type row struct {
	nodes, time, quality, auc, mrr metrics.Summary
	peak                           int64
}

// add folds one finished run into the row.
func (r *row) add(s *trial) {
	m := s.e.Metrics()
	r.time.Add(s.e.Telemetry().Phases[streamgnn.PhaseTrain].Sum)
	r.peak = max(r.peak, s.peak)
	r.nodes.Add(float64(s.e.NumNodes()))
	if m.LinkN > 0 {
		r.quality.Add(m.Accuracy)
		addFinite(&r.auc, m.LinkAUC)
		r.mrr.Add(m.MRR)
	} else {
		r.quality.Add(m.MSE)
		addFinite(&r.auc, m.EventAUC)
		r.mrr.Add(eventMRR(s.e.Outcomes()))
	}
}

// repeat runs c o.runs times, run r over o.gen(r).
func repeat(c cell, o opts) (row, error) {
	var r row
	for i := 0; i < o.runs; i++ {
		s, err := runCell(c, o.gen(i))
		if err != nil {
			return r, err
		}
		r.add(s)
	}
	return r, nil
}

// eventMRR ranks each event's score against the first 20 non-event scores,
// mirroring the link-prediction MRR protocol.
func eventMRR(outs []streamgnn.Outcome) float64 {
	var negs []float64
	var ranks []int
	for _, o := range outs {
		if !o.Event && len(negs) < 20 {
			negs = append(negs, o.Score)
		}
	}
	for _, o := range outs {
		if o.Event && len(negs) > 0 {
			ranks = append(ranks, metrics.RankOf(o.Score, negs))
		}
	}
	return metrics.MRR(ranks)
}

// The (dataset, model) pairs of Tables I and II, and the methods each pair
// runs: Weighted and KDE training every step, and Full training every step
// and every third step, which brackets the adaptive methods' error (the paper
// adjusts each method's interval until the errors match).
var (
	tableI  = [][2]string{{"Bitcoin", "TGCN"}, {"Bitcoin", "WinGNN"}, {"Reddit", "GCLSTM"}, {"Reddit", "DyGrEncoder"}, {"Taxi", "DCRNN"}, {"Taxi", "ROLAND"}}
	tableII = [][2]string{{"StackOverflow", "EvolveGCN"}, {"UCIMessages", "ROLAND"}}
	methods = []cell{
		{strategy: streamgnn.StrategyFull, interval: 1, method: "Full/1"},
		{strategy: streamgnn.StrategyFull, interval: 3, method: "Full/3"},
		{strategy: streamgnn.StrategyWeighted, interval: 1, method: "Weighted/1"},
		{strategy: streamgnn.StrategyKDE, interval: 1, method: "KDE/1"},
	}
)

// cross runs every method on every (dataset, model) pair.
func cross(pairs [][2]string, methods []cell) []cell {
	var cells []cell
	for _, p := range pairs {
		for _, m := range methods {
			m.dataset, m.model = p[0], p[1]
			cells = append(cells, m)
		}
	}
	return cells
}

// group is one titled row group of a table; scale, if set, multiplies the
// -scale of its cells' streams.
type group struct {
	title string
	cells []cell
	scale float64
}

// sweep is a row group training dataset × model with strategy every step,
// set installing each value of one knob.
func sweep(title, knob, dataset, model, strategy string, values []float64, set func(*streamgnn.Config, float64)) group {
	g := group{title: fmt.Sprintf("%s %s on %s (%s), %s", title, knob, dataset, model, strategy)}
	for _, v := range values {
		g.cells = append(g.cells, cell{dataset: dataset, model: model, strategy: strategy, interval: 1,
			method: fmt.Sprintf("%s=%g", knob, v), tweak: func(c *streamgnn.Config) { set(c, v) }})
	}
	return g
}

// table3 returns Table III's five sweeps, with the paper's dataset/model
// pairings and values, then the ablations of DESIGN.md §6 that Config can
// express: p=1 never teleports (Algorithm 2 line 12).
func table3() []group {
	kde := streamgnn.StrategyKDE
	return []group{
		sweep("sweep", "Interval", "Bitcoin", "TGCN", kde, []float64{1, 2, 5, 10}, func(c *streamgnn.Config, v float64) { c.Interval = int(v) }),
		sweep("sweep", "#pairs", "Reddit", "DCRNN", kde, []float64{1, 3, 7}, func(c *streamgnn.Config, v float64) { c.PairsPerStep = int(v) }),
		sweep("sweep", "#seeds", "Taxi", "GCLSTM", kde, []float64{5, 15, 50}, func(c *streamgnn.Config, v float64) { c.Seeds = int(v) }),
		sweep("sweep", "q", "Bitcoin", "DyGrEncoder", kde, []float64{0.1, 0.5, 0.9}, func(c *streamgnn.Config, v float64) { c.StopProb = streamgnn.Float(v) }),
		sweep("sweep", "p", "Reddit", "WinGNN", kde, []float64{0.1, 0.5, 0.8}, func(c *streamgnn.Config, v float64) { c.SeedKeep = streamgnn.Float(v) }),
		sweep("ablation: update-set bias", "p_u", "Taxi", "DCRNN", streamgnn.StrategyWeighted, []float64{0.5, 0}, func(c *streamgnn.Config, v float64) { c.UpdateBias = streamgnn.Float(v) }),
		sweep("ablation: KDE teleport", "p", "Taxi", "GCLSTM", kde, []float64{0.8, 1}, func(c *streamgnn.Config, v float64) { c.SeedKeep = streamgnn.Float(v) }),
		{title: "ablation: relation-aware RTGCN vs TGCN on Taxi, kde", cells: cross([][2]string{{"Taxi", "TGCN"}, {"Taxi", "RTGCN"}}, methods[3:])},
	}
}

// scaling is the scaling study: Full/1 and KDE/1 on Taxi (DCRNN), whose node
// set grows with the stream's scale, at four scales.
func scaling() []group {
	var groups []group
	for _, f := range []float64{0.5, 1, 2, 4} {
		groups = append(groups, group{title: fmt.Sprintf("scale x%g", f), cells: cross([][2]string{{"Taxi", "DCRNN"}}, []cell{methods[0], methods[3]}), scale: f})
	}
	return groups
}

// header names the commit and the run parameters.
func header(o opts) string {
	vcs := map[string]string{"vcs.revision": "unknown (build with -buildvcs=true)", "vcs.modified": "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			vcs[s.Key] = s.Value
		}
	}
	return fmt.Sprintf("commit %s (modified: %s); %d runs/cell (seeds 1..%d), %d steps, scale %g; Config defaults otherwise\n",
		vcs["vcs.revision"], vcs["vcs.modified"], o.runs, o.runs, o.steps, o.scale)
}

const rowFormat = "%-14s %-12s %-14s %8s %14s %10s %16s %14s %14s\n"

// writeTable writes a table's header and column definitions, then each
// group's rows, one per cell. link selects the link-prediction quality columns.
func writeTable(w io.Writer, title string, o opts, link bool, groups ...group) error {
	quality, defs := "Error", "Error = Metrics().MSE; AUC = Metrics().EventAUC; MRR ranks each event's score against the first 20 non-events' (Outcomes())"
	if link {
		quality, defs = "Accuracy", "Accuracy = Metrics().Accuracy; AUC = Metrics().LinkAUC; MRR = Metrics().MRR"
	}
	fmt.Fprintf(w, "%s\n%s", title, header(o))
	fmt.Fprintf(w, "Nodes = NumNodes() at the end of the stream; TrainTime = Telemetry().Phases[\"train\"].Sum in seconds; "+
		"Memory = the largest tensor-metered MB of one whole Engine.Step (the ledger's peak_step_mb), max over runs\n"+
		"%s; columns are mean±std over runs; Method = strategy/Interval\n\n", defs)
	for _, g := range groups {
		og := o
		if g.scale > 0 {
			og.scale *= g.scale
		}
		if g.title != "" {
			fmt.Fprintf(w, "-- %s --\n", g.title)
		}
		fmt.Fprintf(w, rowFormat, "Dataset", "Model", "Method", "Nodes", "TrainTime(s)", "Memory(MB)", quality, "AUC", "MRR")
		for _, c := range g.cells {
			r, err := repeat(c, og)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, rowFormat, c.dataset, c.model, c.method, fmt.Sprintf("%.0f", r.nodes.Mean()), pm(r.time, 3),
				fmt.Sprintf("%.2f", float64(r.peak)/(1<<20)), pm(r.quality, 3), pm(r.auc, 3), pm(r.mrr, 3))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// addFinite adds v to s unless it is NaN: an AUC over a single class.
func addFinite(s *metrics.Summary, v float64) {
	if !math.IsNaN(v) {
		s.Add(v)
	}
}

// pm renders a summary as mean±std, or n/a when it is empty.
func pm(s metrics.Summary, prec int) string {
	if s.N() == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.*f±%.*f", prec, s.Mean(), prec, s.Std())
}

// never is an Interval, and a step, past any stream: an engine with it trains
// at step 0 only, which a run resumed past step 0 never steps.
const never = 1 << 30

// partialRun runs c over gen's stream, and beside it Figure 4's partial run:
// an engine with the same Config but Interval never, which replays the first
// stop batches into its graph and resumes the continuous run's checkpoint at
// step stop, so it stops training there. c.tweak must leave Interval alone.
func partialRun(c cell, gen workload.GenConfig, stop int) (cont, part *trial, err error) {
	if cont, err = open(c, gen); err != nil {
		return nil, nil, err
	}
	var ckpt bytes.Buffer
	if err := cont.advance(stop); err != nil {
		return nil, nil, err
	}
	if err := cont.e.SaveCheckpoint(&ckpt); err != nil {
		return nil, nil, err
	}
	if err := cont.advance(never); err != nil {
		return nil, nil, err
	}
	c.interval = never
	if part, err = open(c, gen); err != nil {
		return nil, nil, err
	}
	for i := 0; i < stop; i++ {
		part.rep.Advance()
	}
	if err := part.e.LoadCheckpoint(&ckpt); err != nil {
		return nil, nil, err
	}
	return cont, part, part.advance(never)
}

// stepLoss is the per-step evaluation MSE of the resolved event predictions;
// a step that resolved none is NaN.
func stepLoss(outs []streamgnn.Outcome, steps int) []float64 {
	sums, counts := make([]float64, steps), make([]float64, steps)
	for _, o := range outs {
		if o.Step < steps {
			sums[o.Step] += (o.Score - o.Truth) * (o.Score - o.Truth)
			counts[o.Step]++
		}
	}
	for s := range sums {
		sums[s] /= counts[s] // 0/0 is NaN
	}
	return sums
}

// tailMeanLoss averages the last quarter of a loss series, skipping NaN steps:
// the regime where the partial run has gone stale.
func tailMeanLoss(series []float64) float64 {
	var sum, n float64
	for _, v := range series[len(series)*3/4:] {
		if !math.IsNaN(v) {
			sum, n = sum+v, n+1
		}
	}
	return sum / max(n, 1)
}

// tailAUC is the event AUC of the predictions for the last quarter of the
// stream.
func tailAUC(outs []streamgnn.Outcome, steps int) float64 {
	var scores []float64
	var events []bool
	for _, o := range outs {
		if o.Step >= steps*3/4 {
			scores, events = append(scores, o.Score), append(events, o.Event)
		}
	}
	return metrics.AUC(scores, events)
}

// runFigure4 prints one Figure 4 panel per dataset: the per-step evaluation
// loss of continuous KDE training and of the partial run, over the outcomes of
// all runs, then per run the tail-loss blowup and each condition's tail AUC.
func runFigure4(w io.Writer, o opts) error {
	stop := o.steps / 4
	fmt.Fprintf(w, "FIGURE 4: continuous vs partial training; the partial run resumes the continuous run's checkpoint at step %d with Interval %d\n%s"+
		"loss = the MSE of the event predictions resolved at each step, over all runs' outcomes; tail AUC = EventAUC of the last quarter's predictions\n\n",
		stop, never, header(o))
	for _, p := range [][2]string{{"Bitcoin", "TGCN"}, {"Reddit", "GCLSTM"}, {"Taxi", "DCRNN"}} {
		var contOuts, partOuts []streamgnn.Outcome
		var blowup, contAUC, partAUC metrics.Summary
		for r := 0; r < o.runs; r++ {
			cont, part, err := partialRun(cell{dataset: p[0], model: p[1], strategy: streamgnn.StrategyKDE, interval: 1}, o.gen(r), stop)
			if err != nil {
				return err
			}
			co, po := cont.e.Outcomes(), part.e.Outcomes()
			contOuts, partOuts = append(contOuts, co...), append(partOuts, po...)
			blowup.Add(tailMeanLoss(stepLoss(po, o.steps)) / tailMeanLoss(stepLoss(co, o.steps)))
			addFinite(&contAUC, tailAUC(co, o.steps))
			addFinite(&partAUC, tailAUC(po, o.steps))
		}
		cs, ps := stepLoss(contOuts, o.steps), stepLoss(partOuts, o.steps)
		fmt.Fprintf(w, "-- %s (%s), KDE/1 --\n%6s %18s %18s\n", p[0], p[1], "step", "continuous-loss", "partial-loss")
		for s := 1; s < o.steps; s++ {
			if !math.IsNaN(cs[s]) {
				fmt.Fprintf(w, "%6d %18.4f %18.4f\n", s, cs[s], ps[s])
			}
		}
		fmt.Fprintf(w, "tail (last quarter) mean loss: continuous %.4f vs partial %.4f; blowup per run %sx\n",
			tailMeanLoss(cs), tailMeanLoss(ps), pm(blowup, 1))
		fmt.Fprintf(w, "tail AUC: continuous %s vs partial %s\n\n", pm(contAUC, 3), pm(partAUC, 3))
	}
	return nil
}
