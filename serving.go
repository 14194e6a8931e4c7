package streamgnn

import (
	"fmt"

	"streamgnn/internal/kde"
	"streamgnn/internal/query"
	"streamgnn/internal/tensor"
)

// This file is the engine side of batched query serving: at the end of every
// Step the engine publishes an immutable QuerySnapshot — the step's frozen
// view of the embedding rows (copy-on-write pages, via EmbStore.Publish) plus
// a value clone of the prediction heads — through an atomic pointer. Any
// number of serving goroutines then answer query batches against the snapshot
// with zero locks while the step loop keeps ingesting and training; the
// snapshot's rows and heads are never mutated after publication, so readers
// see bit-identical rows for as long as they hold it. See DESIGN.md §13.

// QuerySnapshot is an immutable view of the engine's serving state as of one
// completed step. Snapshots are safe for concurrent use and stay valid (and
// bit-stable) after the engine moves on; holding one only pins the pages of
// its rows in memory.
type QuerySnapshot struct {
	step  int
	emb   *tensor.RowView
	heads *query.Heads
}

// Step returns the stream step the snapshot's embeddings were computed at.
func (s *QuerySnapshot) Step() int { return s.step }

// Rows returns the number of node rows the snapshot can answer about.
func (s *QuerySnapshot) Rows() int { return s.emb.Rows() }

// View exposes the snapshot's frozen view of the embedding rows: read it,
// never write through it. The cluster coordinator reads it to push changed
// rows to replica serving mirrors.
func (s *QuerySnapshot) View() *tensor.RowView { return s.emb }

// Emb copies the snapshot's embedding rows into one dense matrix the caller
// owns: O(n) floats a call, for an end-of-run digest, never a per-step
// reader (those take View).
func (s *QuerySnapshot) Emb() *tensor.Matrix { return s.emb.Dense() }

// Heads exposes the snapshot's prediction heads — a value clone frozen at
// publication, safe to read (never mutate) from any goroutine.
func (s *QuerySnapshot) Heads() *query.Heads { return s.heads }

// Answer evaluates a batch of predictive queries against the snapshot:
// one pass of each task kind's head over its requests' rows, with
// answers in request order, bit-identical to answering each query alone (see
// query.AnswerBatch). Safe to call from any number of goroutines
// concurrently with Engine.Step.
//
// The second parameter is ignored. It fed the retired density query kind and
// is deprecated, kept only while the benchmark harness still passes it;
// ROADMAP item 1(e) removes it.
//
//streamlint:lockfree
func (s *QuerySnapshot) Answer(reqs []query.Request, _ []float64) []query.Answer {
	return query.AnswerBatch(s.heads, s.emb, reqs)
}

// QuerySnapshot returns the serving snapshot published by the most recent
// Step, or nil before the first one. The load is atomic: safe to call from
// serving goroutines while the engine steps.
func (e *Engine) QuerySnapshot() *QuerySnapshot {
	return e.serving.Load()
}

// publishServing installs the post-step serving snapshot. The step's
// embeddings are already a frozen view (the store's next write clones the
// pages it touches), so they are published as they are. Heads are
// value-cloned so training's in-place parameter updates never race a
// reader's forward.
func (e *Engine) publishServing(step int) {
	if e.lastEmb == nil {
		return
	}
	e.serving.Store(&QuerySnapshot{step: step, emb: e.lastEmb, heads: e.wl.Heads().Clone()})
}

// SeedWindowDensity evaluates the graph-KDE sampling density over all nodes
// from the current seed window, each seed's kernel weighted by its learned
// chip weight (uniform when every seed chip is inactive): the closed form of
// Section V-B that Algorithm 2 only samples from, for analysis. No query kind
// serves it. It reads the live graph and scheduler, so it must be called
// between Step calls (or under the caller's step lock). Errors when the
// adaptive scheduler or its KDE sampler is not running (strategy "full" or
// "weighted", or before the first Step), or when the seed window is empty.
func (e *Engine) SeedWindowDensity() ([]float64, error) {
	a := e.sched.Adaptive
	if a == nil {
		return nil, fmt.Errorf("streamgnn: no adaptive scheduler (strategy %q)", e.cfg.Strategy)
	}
	ks := a.KDE()
	if ks == nil {
		return nil, fmt.Errorf("streamgnn: no KDE seed window (strategy %q, or no Step yet)", e.cfg.Strategy)
	}
	seeds := ks.Seeds()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("streamgnn: empty KDE seed window")
	}
	weights := make([]float64, len(seeds))
	var total float64
	for i, s := range seeds {
		weights[i] = a.Chips.EffectiveWeight(s)
		total += weights[i]
	}
	if total <= 0 {
		for i := range weights {
			weights[i] = 1
		}
	}
	return kde.GraphKDEDensity(e.g, seeds, weights, e.ccfg.StopProb, 64, 1e-9)
}
