package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"streamgnn"
	"streamgnn/internal/workload"
)

// short is a stream short and small enough for a unit test.
var short = workload.GenConfig{Seed: 1, Steps: 14, Scale: 0.5}

func taxi(strategy string) cell {
	return cell{dataset: "Taxi", model: "DCRNN", strategy: strategy, interval: 1}
}

// once runs c over the short stream and folds the run into a row.
func once(t *testing.T, c cell) (*trial, row) {
	t.Helper()
	s, err := runCell(c, short)
	if err != nil {
		t.Fatal(err)
	}
	var r row
	r.add(s)
	return s, r
}

func TestRunCellEventWorkload(t *testing.T) {
	s, r := once(t, cell{dataset: "Bitcoin", model: "TGCN", strategy: streamgnn.StrategyKDE, interval: 1})
	if r.time.Mean() <= 0 || r.peak <= 0 || r.quality.Mean() <= 0 ||
		r.nodes.Mean() != float64(s.e.NumNodes()) {
		t.Fatalf("event row %+v", r)
	}
	if s.e.CurrentStep() != short.Steps {
		t.Fatalf("stepped %d of %d steps", s.e.CurrentStep(), short.Steps)
	}
	if s.e.Stats().TrainedPartitions == 0 {
		t.Fatal("no partition trained")
	}
}

func TestRunCellFullStrategy(t *testing.T) {
	s, r := once(t, cell{dataset: "Reddit", model: "GCLSTM", strategy: streamgnn.StrategyFull, interval: 1})
	if st := s.e.Stats(); st.TrainedPartitions != 0 || st.TopChipNodes != nil {
		t.Fatalf("Full training kept adaptive state: %+v", st)
	}
	if r.time.Mean() <= 0 {
		t.Fatal("no training time")
	}
}

func TestRunCellLinkWorkload(t *testing.T) {
	s, r := once(t, cell{dataset: "UCIMessages", model: "ROLAND", strategy: streamgnn.StrategyWeighted, interval: 1})
	m := s.e.Metrics()
	if m.LinkN == 0 || math.IsNaN(m.LinkAUC) || m.MRR <= 0 {
		t.Fatalf("link metrics missing: %+v", m)
	}
	if r.quality.Mean() != m.Accuracy || r.auc.Mean() != m.LinkAUC || r.mrr.Mean() != m.MRR {
		t.Fatalf("row %+v does not read the link metrics %+v", r, m)
	}
}

func TestRunCellValidation(t *testing.T) {
	if _, err := runCell(cell{dataset: "Nope", model: "TGCN", strategy: streamgnn.StrategyKDE}, short); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := runCell(cell{dataset: "Bitcoin", model: "Nope", strategy: streamgnn.StrategyKDE}, short); err == nil {
		t.Error("unknown model accepted")
	}
}

// The headline claim: adaptive training is much cheaper than Full training in
// both train-phase time and peak step memory.
func TestWeightedBeatsFullOnResources(t *testing.T) {
	_, full := once(t, taxi(streamgnn.StrategyFull))
	for _, strategy := range []string{streamgnn.StrategyWeighted, streamgnn.StrategyKDE} {
		_, r := once(t, taxi(strategy))
		if r.time.Mean() <= 0 || r.time.Mean() >= full.time.Mean() {
			t.Errorf("%s train time %.3fs, Full %.3fs", strategy, r.time.Mean(), full.time.Mean())
		}
		if r.peak <= 0 || r.peak >= full.peak {
			t.Errorf("%s peak step %d bytes, Full %d", strategy, r.peak, full.peak)
		}
	}
}

// motivation runs Figure 4's pair on a short Bitcoin stream stopped at step
// stop: the continuous run and the partial run that resumes its checkpoint.
func motivation(t *testing.T) (gen workload.GenConfig, stop int, cont, part *trial) {
	t.Helper()
	gen, stop = workload.GenConfig{Seed: 1, Steps: 16}, 4
	cont, part, err := partialRun(cell{dataset: "Bitcoin", model: "TGCN", strategy: streamgnn.StrategyKDE, interval: 1}, gen, stop)
	if err != nil {
		t.Fatal(err)
	}
	return gen, stop, cont, part
}

// Figure 4's partial run resumes the continuous run's checkpoint, so every
// prediction resolved before the stop is the continuous run's to the bit; after
// it the model no longer trains and falls behind the drift.
func TestPartialRunResumesThenFallsBehind(t *testing.T) {
	gen, stop, cont, part := motivation(t)
	co, po := cont.e.Outcomes(), part.e.Outcomes()
	if len(po) != len(co) {
		t.Fatalf("partial run resolved %d predictions, continuous %d", len(po), len(co))
	}
	before := 0
	for i, o := range co {
		if o.Step >= stop {
			continue
		}
		before++
		p := po[i]
		if p.Query != o.Query || p.Anchor != o.Anchor || p.Step != o.Step || p.Event != o.Event ||
			math.Float64bits(p.Score) != math.Float64bits(o.Score) || math.Float64bits(p.Truth) != math.Float64bits(o.Truth) {
			t.Fatalf("outcome %d before the stop: partial %+v, continuous %+v", i, p, o)
		}
	}
	if before == 0 {
		t.Fatal("no prediction resolved before the stop")
	}
	cl, pl := stepLoss(co, gen.Steps), stepLoss(po, gen.Steps)
	if len(cl) != gen.Steps || len(pl) != gen.Steps {
		t.Fatalf("loss series lengths %d and %d, want %d", len(cl), len(pl), gen.Steps)
	}
	if ct, pt := tailMeanLoss(cl), tailMeanLoss(pl); !(pt > ct) {
		t.Fatalf("tail loss: partial %g, continuous %g", pt, ct)
	}
}

// After the stop the partial run trains nothing: it trains fewer partitions,
// and spends less train-phase time, than the continuous run.
func TestPartialRunStopsTraining(t *testing.T) {
	_, _, cont, part := motivation(t)
	if pt, ct := part.e.Stats().TrainedPartitions, cont.e.Stats().TrainedPartitions; pt == 0 || pt >= ct {
		t.Fatalf("trained partitions: partial %d, continuous %d", pt, ct)
	}
	train := func(s *trial) float64 { return s.e.Telemetry().Phases[streamgnn.PhaseTrain].Sum }
	if pt, ct := train(part), train(cont); pt >= ct {
		t.Fatalf("train time: partial %gs, continuous %gs", pt, ct)
	}
}

func TestRunRepeatedAggregates(t *testing.T) {
	r, err := repeat(cell{dataset: "Bitcoin", model: "TGCN", strategy: streamgnn.StrategyWeighted, interval: 1},
		opts{runs: 3, steps: short.Steps, scale: short.Scale})
	if err != nil {
		t.Fatal(err)
	}
	if r.time.N() != 3 || r.quality.N() != 3 || r.nodes.N() != 3 || r.peak <= 0 {
		t.Fatalf("runs not aggregated: %+v", r)
	}
}

func TestTableCellsAndStrategies(t *testing.T) {
	if len(tableI) != 6 || len(tableII) != 2 {
		t.Fatal("table pair counts wrong")
	}
	seen := map[string]bool{}
	for _, c := range cross(tableII, methods) {
		seen[c.strategy+"/"+strconv.Itoa(c.interval)] = true
	}
	if len(seen) != 4 || !seen["full/1"] || !seen["full/3"] || !seen["weighted/1"] || !seen["kde/1"] {
		t.Fatalf("methods %v", seen)
	}
	if len(table3()) != 8 || len(scaling()) != 4 {
		t.Fatalf("Table III has %d groups, the scaling study %d", len(table3()), len(scaling()))
	}
}

// rowCounts counts the output lines by their first three fields.
func rowCounts(out string) map[[3]string]int {
	rows := map[[3]string]int{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 3 {
			rows[[3]string{f[0], f[1], f[2]}]++
		}
	}
	return rows
}

func TestRunTableI(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table1", "-runs", "1", "-steps", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	rows := rowCounts(buf.String())
	for _, c := range cross(tableI, methods) {
		if n := rows[[3]string{c.dataset, c.model, c.method}]; n != 1 {
			t.Errorf("%s/%s/%s: %d rows, want 1\n%s", c.dataset, c.model, c.method, n, buf.String())
		}
	}
}

func TestRunTableWritesRows(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table2", "-runs", "1", "-steps", "4", "-scale", "0.5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Accuracy") {
		t.Fatalf("Table II prints no Accuracy column:\n%s", buf.String())
	}
	rows := rowCounts(buf.String())
	for _, c := range cross(tableII, methods) {
		if n := rows[[3]string{c.dataset, c.model, c.method}]; n != 1 {
			t.Errorf("%s/%s/%s: %d rows, want 1\n%s", c.dataset, c.model, c.method, n, buf.String())
		}
	}
}

func TestRunSweepWritesRows(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table3", "-runs", "1", "-steps", "4", "-scale", "0.5"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rows := rowCounts(out)
	for _, g := range table3() {
		if !strings.Contains(out, "-- "+g.title+" --") {
			t.Errorf("no heading %q", g.title)
		}
		for _, c := range g.cells {
			if n := rows[[3]string{c.dataset, c.model, c.method}]; n != 1 {
				t.Errorf("%s: %d rows %s/%s/%s, want 1", g.title, n, c.dataset, c.model, c.method)
			}
		}
	}
}

func TestRunScaling(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "scaling", "-runs", "1", "-steps", "6", "-scale", "0.4"}, &buf); err != nil {
		t.Fatal(err)
	}
	// The Full/1 row of each scale, in order: Nodes is its fourth column.
	var nodes []float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 3 && f[0] == "Taxi" && f[2] == "Full/1" {
			n, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatalf("Nodes %q: %v", f[3], err)
			}
			nodes = append(nodes, n)
		}
	}
	if len(nodes) != 4 {
		t.Fatalf("%d scaling points:\n%s", len(nodes), buf.String())
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			t.Fatalf("scale did not grow the graph: %v", nodes)
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table9"}, &buf); err == nil {
		t.Fatalf("-exp table9 accepted; wrote:\n%s", buf.String())
	}
}

func TestTailMeanLoss(t *testing.T) {
	series := []float64{1, 1, 1, 1, 2, 2, math.NaN(), 4}
	// the last quarter of 8 is indices 6 and 7: the mean of {4}, skipping NaN
	if got := tailMeanLoss(series); got != 4 {
		t.Fatalf("tailMeanLoss = %v", got)
	}
	if tailMeanLoss([]float64{math.NaN()}) != 0 {
		t.Fatal("an all-NaN tail should be 0")
	}
}
