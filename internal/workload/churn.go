package workload

import (
	"math/rand"

	"streamgnn/internal/graph"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
)

// Churn generates the adversarial edge-churn stream used as the hostile
// case of the ledger's findings: a fixed population of small communities whose
// edge set is almost entirely transient. Every step re-asserts each
// community's ring at the current timestamp and slams a bursty storm of extra
// edges onto one rotating community — including cross-community chords — so
// with the short sliding window each burst later expires en masse. The stream
// therefore alternates insert storms with expiry storms while features and
// labels drift in the storm's wake: an ugly workload for anything that
// assumes a quiet edge set.
//
// Churn is not one of the paper's five datasets, but it is registered in
// Names() alongside them so generators and services can list it.
func Churn(cfg GenConfig) *Dataset {
	cfg = cfg.withDefaults(8)
	rng := rand.New(rand.NewSource(cfg.Seed))
	const (
		size    = 8 // nodes per community
		featDim = 6
		window  = 3 // sliding-window width: storm edges live this long
	)
	communities := cfg.scaled(12)
	gains := newGainSchedule(rng, cfg.DriftPeriod)

	d := &Dataset{Name: "Churn", FeatDim: featDim, Steps: cfg.Steps, WindowSteps: window}
	truth := newTruthTable()

	nodeFeat := func(c, i int, observed float64) []float64 {
		return []float64{
			observed,
			float64(i%2)*2 - 1,
			float64(c%3) - 1,
			float64((c/3)%3) - 1,
			rng.NormFloat64() * 0.1,
			1,
		}
	}

	// Step 0: the full node population; edges only ever arrive via storms.
	var ev []stream.Event
	hubs := make([]int, communities)
	for c := 0; c < communities; c++ {
		for i := 0; i < size; i++ {
			id := c*size + i
			ev = append(ev, stream.AddNode{Type: 0, Feat: nodeFeat(c, i, 0)})
			ev = append(ev, stream.SetLabel{V: id, Label: float64(i % 2)})
			if i == 0 {
				hubs[c] = id
			}
		}
	}
	batches := []stream.Batch{{Step: 0, Events: ev}}

	burst := cfg.scaled(18)
	for step := 1; step < cfg.Steps; step++ {
		gain := gains.at(step)
		ev = nil
		// Baseline structure, re-asserted every step so expiry never empties
		// a community: each ring edge carries the current timestamp and thus
		// survives exactly `window` steps.
		for c := 0; c < communities; c++ {
			base := c * size
			for i := 0; i < size; i++ {
				ev = append(ev, stream.AddEdge{U: base + i, V: base + (i+1)%size, Type: 0, Time: int64(step), Label: stream.NoLabel()})
			}
		}
		// The storm: a bursty batch of edges inside one rotating community,
		// with every fourth edge a chord into the next community, so training
		// partitions intermittently span two communities.
		storm := step % communities
		base := storm * size
		intensity := burst/2 + rng.Intn(burst)
		for k := 0; k < intensity; k++ {
			u := base + rng.Intn(size)
			v := base + rng.Intn(size)
			if k%4 == 3 {
				v = ((storm+1)%communities)*size + rng.Intn(size)
			}
			ev = append(ev, stream.AddEdge{U: u, V: v, Type: 0, Time: int64(step), Label: stream.NoLabel()})
		}
		// The storm's wake: feature rewrites riding the drifting gain, and
		// labels that flip with its sign — stale models mispredict exactly
		// where the churn is.
		for i := 0; i < size; i++ {
			v := base + i
			ev = append(ev, stream.SetFeature{V: v, Feat: nodeFeat(storm, i, float64(intensity)/float64(burst)*gain)})
			lbl := float64(i % 2)
			if gain < 0 {
				lbl = 1 - lbl
			}
			ev = append(ev, stream.SetLabel{V: v, Label: lbl})
		}
		for c := 0; c < communities; c++ {
			mon := 0.0
			if c == storm {
				mon = float64(intensity)
			}
			truth.set(step, hubs[c], mon)
		}
		batches = append(batches, stream.Batch{Step: step, Events: ev})
	}

	d.Batches = batches
	d.Queries = []*query.EventQuery{{
		Name:      "churn burst intensity per community",
		Anchors:   append([]int(nil), hubs...),
		Delta:     1,
		Threshold: float64(burst),
		Labeler: func(_ *graph.Dynamic, anchor, step int) (float64, bool) {
			return truth.lookup(anchor, step)
		},
	}}
	return d
}
