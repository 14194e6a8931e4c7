package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"streamgnn"
	"streamgnn/internal/query"
	"streamgnn/internal/stream"
	"streamgnn/internal/workload"
)

// measuredReps is the number of loaded repetitions of a run. Every
// repetition replays the same inputs on a fresh engine, so their answers
// must agree and step k is the same work in each; see byIndex.
const measuredReps = 5

// spec is one named workload: a paper dataset, the model and engine
// configuration of the table cell it comes from, and how it is driven.
type spec struct {
	name string
	why  string

	dataset string
	scale   float64
	cfg     streamgnn.Config

	// fastForward folds this many generator steps into the first batch, so a
	// repetition starts at the graph size the workload is about instead of
	// spending its budget growing there; edge times and truth lookups are
	// shifted by the same amount.
	fastForward int
	// warm is the number of engine steps run during set-up.
	warm int
	// closedSteps is the number of measured steps, over all repetitions, of
	// a closed-loop workload when --seconds is 10; other lengths scale it.
	closedSteps int
	// pace is the stream rate of an open-loop workload in steps per second;
	// 0 drives the stream closed-loop, the next batch as soon as the last
	// step completes.
	pace float64
	// qps is the rate of the open-loop query generator, eventShare the share
	// of its requests that are event queries (the rest are link queries).
	qps        float64
	eventShare float64
	// cluster runs the engine as a coordinator over two replicas behind
	// localhost HTTP.
	cluster bool
}

func (s *spec) open() bool { return s.pace > 0 }

// measuredSteps is the fixed work of one repetition for a run length.
func (s *spec) measuredSteps(seconds float64) int {
	k := float64(s.closedSteps) * seconds / 10 / measuredReps
	if s.open() {
		k = s.pace * seconds / measuredReps
	}
	if k < 5 {
		return 5
	}
	return int(math.Round(k))
}

// bitcoinServing is the configuration every queryd CI job uses.
func bitcoinServing() streamgnn.Config {
	return streamgnn.Config{Model: "TGCN", Strategy: streamgnn.StrategyKDE, Interval: 5,
		IncrementalForward: true, DirtyFullThreshold: 1}
}

func bitcoinCluster() streamgnn.Config {
	c := bitcoinServing()
	c.Shards = 2
	return c
}

// specs lists the five workloads. The names are fixed: later issues cite
// them.
var specs = []spec{
	{
		name:    "taxi-infer",
		why:     "Taxi x DCRNN, defaults: node set grows past 10k so the O(n) forward dominates the step; forward-path work must show here",
		dataset: "Taxi", scale: 4,
		cfg:         streamgnn.Config{Model: "DCRNN", Strategy: streamgnn.StrategyKDE},
		fastForward: 100, warm: 3, closedSteps: 65,
		qps: 200, eventShare: 1,
	},
	{
		name:    "reddit-train",
		why:     "Reddit x GCLSTM, 8 pairs/step on a fixed 400-node graph: training dominates; forward-path changes should move nothing",
		dataset: "Reddit", scale: 1,
		cfg:  streamgnn.Config{Model: "GCLSTM", Strategy: streamgnn.StrategyKDE, PairsPerStep: 8},
		warm: 5, closedSteps: 180,
		qps: 200, eventShare: 1,
	},
	{
		name:    "so-link",
		why:     "StackOverflow x EvolveGCN, defaults: link prediction, no anchors, no delta or cluster support; anchor- or delta-only work must not regress it",
		dataset: "StackOverflow", scale: 1,
		cfg:  streamgnn.Config{Model: "EvolveGCN", Strategy: streamgnn.StrategyKDE},
		warm: 5, closedSteps: 750,
		qps: 200, eventShare: 0,
	},
	{
		name:    "bitcoin-serve",
		why:     "Bitcoin x TGCN, Interval=5 + incremental forward, paced 10 steps/s with 1000 queries/s through the batcher: reads beside writes",
		dataset: "Bitcoin", scale: 4,
		cfg:         bitcoinServing(),
		fastForward: 50, warm: 10,
		pace: 10, qps: 1000, eventShare: 0.7,
	},
	{
		name:    "bitcoin-cluster",
		why:     "same stream and load as bitcoin-serve on a coordinator + 2 replicas over localhost HTTP: RPC, encoding and mirroring cost shows only here",
		dataset: "Bitcoin", scale: 4,
		cfg:         bitcoinCluster(),
		fastForward: 50, warm: 10,
		pace: 10, qps: 1000, eventShare: 0.7,
		cluster: true,
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scheduled is one query of the open-loop schedule: when it is due, as an
// offset from the start of the measured phase, and what it asks.
type scheduled struct {
	due time.Duration
	req query.Request
}

// inputs is everything a repetition consumes, generated from the seed
// before its clock starts.
type inputs struct {
	ds *workload.Dataset
	// batches[i] is applied before engine step i; len = warm + measured.
	batches []stream.Batch
	// truthShift is added to the step a labeler is asked about.
	truthShift int
	// nodesAfter[i] is the node count once batches[0..i] are applied.
	nodesAfter []int
	schedule   []scheduled
}

// generate builds a workload's inputs for a seed and a repetition length.
func generate(sp *spec, seed int64, steps int) (*inputs, error) {
	total := sp.fastForward + sp.warm + steps
	ds, err := workload.ByName(sp.dataset, workload.GenConfig{Seed: seed, Steps: total, Scale: sp.scale})
	if err != nil {
		return nil, err
	}
	if len(ds.Batches) != total {
		return nil, fmt.Errorf("%s generated %d batches, want %d", sp.dataset, len(ds.Batches), total)
	}
	in := &inputs{ds: ds, truthShift: sp.fastForward}
	in.batches = foldPrefix(ds.Batches, sp.fastForward)
	nodes := 0
	for _, b := range in.batches {
		for _, e := range b.Events {
			if _, ok := e.(stream.AddNode); ok {
				nodes++
			}
		}
		in.nodesAfter = append(in.nodesAfter, nodes)
	}
	in.schedule = querySchedule(sp, in, seed, steps)
	return in, nil
}

// foldPrefix folds batches[0..off] into one batch at step 0 and renumbers
// the rest, shifting edge times so sliding-window expiry sees the same ages.
func foldPrefix(batches []stream.Batch, off int) []stream.Batch {
	if off == 0 {
		return batches
	}
	shift := func(evs []stream.Event, dst []stream.Event) []stream.Event {
		for _, e := range evs {
			if ae, ok := e.(stream.AddEdge); ok {
				ae.Time -= int64(off)
				e = ae
			}
			dst = append(dst, e)
		}
		return dst
	}
	out := make([]stream.Batch, 0, len(batches)-off)
	var first []stream.Event
	for _, b := range batches[:off+1] {
		first = shift(b.Events, first)
	}
	out = append(out, stream.Batch{Step: 0, Events: first})
	for _, b := range batches[off+1:] {
		out = append(out, stream.Batch{Step: b.Step - off, Events: shift(b.Events, nil)})
	}
	return out
}

// querySchedule draws the open-loop query schedule: evenly spaced due times
// at sp.qps and a seeded mix of event and link requests over the node ids
// present when warm-up ends. Those are live in every snapshot a query can
// read, however far the host lets the stream fall behind its schedule, so no
// request fails by construction (nodes that arrive later were tried first: a
// host stall of half a second then failed up to 72 queries of 10100).
// Request.Node carries the request id (no event or link request reads it),
// which is how the traced run matches an answer to its submission.
func querySchedule(sp *spec, in *inputs, seed int64, steps int) []scheduled {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	// A closed loop runs as long as its steps take; the schedule covers a
	// run several times slower than the one the step count was sized for.
	horizon := 4 * float64(steps) / float64(sp.closedSteps) * 10
	if sp.open() {
		horizon = float64(steps) / sp.pace
	}
	n := int(horizon * sp.qps)
	gap := time.Duration(float64(time.Second) / sp.qps)
	out := make([]scheduled, n)
	live := in.nodesAfter[sp.warm-1]
	for j := range out {
		due := time.Duration(j) * gap
		req := query.Request{Node: j + 1}
		if rng.Float64() < sp.eventShare {
			req.Kind, req.Anchor = query.KindEvent, rng.Intn(live)
		} else {
			req.Kind, req.Src, req.Dst = query.KindLink, rng.Intn(live), rng.Intn(live)
		}
		out[j] = scheduled{due: due, req: req}
	}
	return out
}
