package streamgnn

import (
	"fmt"
	"sync"

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

	// Density capture: the KDE seed window, its chip weights, the frozen
	// walk adjacency and the stop probability as of this step. The density
	// vector itself is evaluated lazily, at most once, on first demand —
	// most batches carry no density query, and the capture (two small slice
	// copies plus a cached CSR pointer) is cheap enough to do every step.
	// densityErr records a capture-time condition (no adaptive scheduler,
	// empty seed window) and makes Density fail exactly like
	// SeedWindowDensity would have.
	walkAdj     *tensor.CSR
	seeds       []int
	seedWeights []float64
	stopProb    float64
	densityErr  error

	densityOnce sync.Once
	density     []float64
	densityEval error
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
// query.AnswerBatch). density is the shared seed-window density vector for
// KindDensity requests (from Density; nil disables them). Safe to call from
// any number of goroutines concurrently with Engine.Step.
//
//streamlint:lockfree
func (s *QuerySnapshot) Answer(reqs []query.Request, density []float64) []query.Answer {
	return query.AnswerBatch(s.heads, s.emb, reqs, density)
}

// Density returns the KDE seed-window density vector as of the snapshot's
// step — the quantity KindDensity queries serve — evaluating it lazily on
// first call and sharing the result across callers. Unlike
// Engine.SeedWindowDensity it reads only state frozen at publication (the
// seed window, chip weights and walk adjacency captured by the step), so it
// is safe from any goroutine concurrently with Engine.Step and never touches
// the engine's step lock. Errors mirror SeedWindowDensity's: no adaptive
// scheduler at capture time, or an empty seed window.
//
//streamlint:lockfree
func (s *QuerySnapshot) Density() ([]float64, error) {
	if s.densityErr != nil {
		return nil, s.densityErr
	}
	s.densityOnce.Do(func() {
		s.density, s.densityEval = kde.GraphKDEDensityCSR(s.walkAdj, s.seeds, s.seedWeights, s.stopProb, 64, 1e-9)
	})
	return s.density, s.densityEval
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
	snap := &QuerySnapshot{step: step, emb: e.lastEmb, heads: e.wl.Heads().Clone(), stopProb: e.ccfg.StopProb}
	seeds, weights, err := e.densityInputs()
	if err != nil {
		snap.densityErr = err
	} else {
		// WalkAdj is rebuilt fresh on change and never mutated after being
		// returned, so the captured pointer stays frozen at this step's
		// topology while the live graph moves on.
		snap.walkAdj = e.g.WalkAdj()
		snap.seeds, snap.seedWeights = seeds, weights
	}
	e.serving.Store(snap)
}

// densityInputs gathers the current KDE seed window and its effective chip
// weights (uniform fallback when every seed chip is inactive), the inputs
// both SeedWindowDensity and the per-step snapshot capture evaluate the
// density from. Errors when the adaptive scheduler or its KDE sampler is not
// running.
func (e *Engine) densityInputs() (seeds []int, weights []float64, err error) {
	a := e.sched.Adaptive
	if a == nil {
		return nil, nil, fmt.Errorf("streamgnn: no adaptive scheduler (strategy %q)", e.cfg.Strategy)
	}
	ks := a.KDE()
	if ks == nil {
		return nil, nil, fmt.Errorf("streamgnn: no KDE seed window (strategy %q, or no Step yet)", e.cfg.Strategy)
	}
	seeds = ks.Seeds()
	if len(seeds) == 0 {
		return nil, nil, fmt.Errorf("streamgnn: empty KDE seed window")
	}
	weights = make([]float64, len(seeds))
	var total float64
	for i, s := range seeds {
		weights[i] = a.Chips.EffectiveWeight(s)
		total += weights[i]
	}
	if total <= 0 {
		// All seed chips currently inactive: fall back to uniform kernels
		// rather than failing the density query.
		for i := range weights {
			weights[i] = 1
		}
	}
	return seeds, weights, nil
}

// SeedWindowDensity evaluates the graph-KDE sampling density over all nodes
// from the current seed window, weighted by the learned chip weights — the
// quantity KindDensity queries serve. One evaluation is shared by a whole
// query batch. It reads the live graph and scheduler, so unlike
// QuerySnapshot.Answer it must be called between Step calls (or under the
// caller's step lock). Errors when the adaptive scheduler or its KDE sampler
// is not running (strategy "full" or "weighted", or before the first Step).
// Serving paths should prefer QuerySnapshot.Density, which evaluates the
// same vector from state frozen at publication and needs no lock.
func (e *Engine) SeedWindowDensity() ([]float64, error) {
	seeds, weights, err := e.densityInputs()
	if err != nil {
		return nil, err
	}
	return kde.GraphKDEDensity(e.g, seeds, weights, e.ccfg.StopProb, 64, 1e-9)
}
