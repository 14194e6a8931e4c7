// Package serve implements the query admission queue for batched predictive
// serving: callers submit small groups of queries from many goroutines, the
// batcher coalesces them into micro-batches — flushing when B queries have
// accumulated or T has elapsed since the first, whichever comes first — and
// each batch is answered by one pass per head (see query.AnswerBatch).
// Batches run on their own goroutines, so under load multiple batches are in
// flight concurrently: the answer function must be safe for concurrent use
// (it is, when it reads an immutable engine QuerySnapshot).
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"streamgnn/internal/obs"
	"streamgnn/internal/query"
)

// Answerer answers one micro-batch of queries, returning answers in request
// order (one per request). It is called from batch goroutines concurrently.
type Answerer func(reqs []query.Request) []query.Answer

// Config sets the micro-batching knobs.
type Config struct {
	// MaxBatch is B: a flush triggers as soon as this many queries are
	// pending. Default 64.
	MaxBatch int
	// MaxWait is T: a flush triggers this long after the first query of a
	// batch was admitted, even if the batch is short. Default 2ms.
	MaxWait time.Duration
}

func (c Config) fill() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	return c
}

// submission is one caller's group of queries awaiting a batch.
type submission struct {
	reqs []query.Request
	out  chan []query.Answer
	enq  time.Time
}

// Batcher is the admission queue. Submit is safe from any number of
// goroutines; a nil *Batcher is not usable.
type Batcher struct {
	cfg    Config
	answer Answerer

	mu      sync.Mutex
	pending []submission
	npend   int // queries (not submissions) pending
	gen     uint64
	timer   *time.Timer
	closed  bool

	wg    sync.WaitGroup // in-flight batch goroutines
	depth atomic.Int64   // queries admitted but not yet answered

	queries obs.Counter
	batches obs.Counter
	latency *obs.Histogram // per-query admission-to-answer latency
	sizes   *obs.Histogram // flushed batch sizes, in queries
}

// NewBatcher returns a running batcher over the answer function.
func NewBatcher(cfg Config, answer Answerer) *Batcher {
	return &Batcher{
		cfg:     cfg.fill(),
		answer:  answer,
		latency: obs.NewHistogram(obs.DefaultLatencyBuckets()),
		sizes:   obs.NewHistogram(obs.BatchSizeBuckets()),
	}
}

// Submit admits a group of queries and blocks until their batch is answered,
// returning the answers in request order. Returns nil after Close (or for an
// empty group).
func (b *Batcher) Submit(reqs []query.Request) []query.Answer {
	if len(reqs) == 0 {
		return nil
	}
	s := submission{reqs: reqs, out: make(chan []query.Answer, 1), enq: time.Now()}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.depth.Add(int64(len(reqs)))
	wasEmpty := len(b.pending) == 0
	b.pending = append(b.pending, s)
	b.npend += len(reqs)
	if b.npend >= b.cfg.MaxBatch {
		batch := b.take()
		b.mu.Unlock()
		b.run(batch)
	} else {
		if wasEmpty {
			b.armTimer()
		}
		b.mu.Unlock()
	}
	return <-s.out
}

// armTimer schedules the T-ms flush for the batch that just opened. Called
// with mu held. The generation guard keeps a stale timer — one whose batch
// was already flushed by size — from flushing the next batch early.
func (b *Batcher) armTimer() {
	gen := b.gen
	b.timer = time.AfterFunc(b.cfg.MaxWait, func() { b.flushGen(gen) })
}

// take claims the pending batch and resets admission state. Called with mu
// held, which is also where a non-empty batch joins wg: Close sets closed
// under mu before it waits, so every batch taken before it is counted.
func (b *Batcher) take() []submission {
	batch := b.pending
	if len(batch) > 0 {
		b.wg.Add(1)
	}
	b.pending = nil
	b.npend = 0
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// flushGen is the timer path: flush only if the batch the timer was armed
// for is still the pending one.
func (b *Batcher) flushGen(gen uint64) {
	b.mu.Lock()
	if b.closed || gen != b.gen {
		b.mu.Unlock()
		return
	}
	batch := b.take()
	b.mu.Unlock()
	b.run(batch)
}

// run answers one flushed batch on its own goroutine and distributes the
// answer slices back to the submitters. It must never reacquire b.mu (both
// callers flush after unlocking, and a lock here would serialize in-flight
// batches) or reach the engine's step loop.
//
//streamlint:lockfree
func (b *Batcher) run(batch []submission) {
	if len(batch) == 0 {
		return
	}
	go func() {
		defer b.wg.Done()
		total := 0
		for _, s := range batch {
			total += len(s.reqs)
		}
		reqs := make([]query.Request, 0, total)
		for _, s := range batch {
			reqs = append(reqs, s.reqs...)
		}
		answers := b.answer(reqs)
		b.batches.Inc()
		b.queries.Add(int64(total))
		b.sizes.Observe(float64(total))
		off := 0
		for _, s := range batch {
			// Observed before the answer is handed over, so a Submit that has
			// returned is already counted.
			lat := time.Since(s.enq).Seconds()
			for range s.reqs {
				b.latency.Observe(lat)
			}
			b.depth.Add(-int64(len(s.reqs)))
			if answers != nil && len(answers) >= off+len(s.reqs) {
				s.out <- answers[off : off+len(s.reqs)]
			} else {
				s.out <- nil
			}
			off += len(s.reqs)
		}
	}()
}

// Close flushes any pending queries, waits for in-flight batches to finish,
// and makes further Submits return nil. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.take()
	b.mu.Unlock()
	b.run(batch)
	b.wg.Wait()
}

// QueueDepth returns the number of queries admitted but not yet answered
// (the admission-queue depth gauge).
func (b *Batcher) QueueDepth() int64 { return b.depth.Load() }

// Queries returns the total queries answered.
func (b *Batcher) Queries() int64 { return b.queries.Value() }

// Batches returns the total micro-batches flushed.
func (b *Batcher) Batches() int64 { return b.batches.Value() }

// LatencySnapshot returns the per-query admission-to-answer latency
// distribution (seconds).
func (b *Batcher) LatencySnapshot() obs.Snapshot { return b.latency.Snapshot() }

// BatchSizeSnapshot returns the distribution of flushed batch sizes, in
// queries per batch.
func (b *Batcher) BatchSizeSnapshot() obs.Snapshot { return b.sizes.Snapshot() }
