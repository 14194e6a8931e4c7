// Package obs provides the engine's observability primitives: lock-cheap
// atomic counters and fixed-bucket log-spaced latency histograms, plus
// encoders for the Prometheus text exposition format. It has no dependencies
// beyond the standard library and is safe for concurrent use: every mutation
// is a single atomic operation, so instrumenting the training hot path costs
// a few nanoseconds per observation.
package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefaultLatencyBuckets returns the histogram bounds used for step-phase
// latencies: 28 log-spaced (doubling) upper bounds from 1µs to ~134s. The
// range covers everything from a no-op expiry phase to a multi-second
// full-graph training pass; observations above the last bound land in the
// implicit +Inf bucket.
func DefaultLatencyBuckets() []float64 {
	bounds := make([]float64, 28)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// FractionBuckets returns histogram bounds for ratios in [0, 1] (e.g. the
// dirty fraction of incremental forward inference): 0 exactly, then 20
// linear 0.05-wide buckets up to 1. The zero bucket isolates quiet steps —
// cache reuse with no recomputation — from steps that touched any node.
func FractionBuckets() []float64 {
	bounds := make([]float64, 21)
	for i := 1; i < len(bounds); i++ {
		bounds[i] = float64(i) * 0.05
	}
	return bounds
}

// BatchSizeBuckets returns histogram bounds for micro-batch sizes: doubling
// integer bounds 1, 2, 4, ... 1024. Sizes above the last bound land in the
// implicit +Inf bucket.
func BatchSizeBuckets() []float64 {
	bounds := make([]float64, 11)
	b := 1.0
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// Histogram is a fixed-bucket latency histogram. Observations are recorded
// with atomic adds only (one bucket increment, one count increment, one CAS
// loop for the float sum), so it is safe and cheap to call from concurrent
// goroutines. Bucket bounds are upper bounds in seconds; an implicit +Inf
// bucket catches the overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits of the sum of observations
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (seconds). Pass DefaultLatencyBuckets() for step-phase latencies.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return h
}

// Observe records one observation (seconds).
func (h *Histogram) Observe(v float64) {
	// Binary search the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Snapshot is a point-in-time copy of a histogram's state. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf bucket.
type Snapshot struct {
	Count  int64
	Sum    float64 // in the observations' unit: seconds for latencies
	Bounds []float64
	Counts []int64
}

// Snapshot returns a copy of the histogram's current state.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the mean observation in seconds (0 before any observation).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observations from
// the bucket counts, interpolating linearly inside the landing bucket (from
// 0 for the first bucket). Observations in the +Inf bucket are reported as
// the last finite bound. Returns 0 before any observation. The estimate's
// resolution is the bucket width — good enough for p50/p99 latency
// reporting, which is what it exists for.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(s.Bounds[i]-lower)
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ---- Prometheus text exposition format ----
//
// Each writer below emits one whole family — its # HELP and # TYPE lines,
// then every sample — so a family can be neither split nor left untyped.
// Label lists are written without braces (e.g. `phase="train"`); empty means
// an unlabelled sample.

// Sample is one sample line of a counter or gauge family.
type Sample struct {
	Labels string
	Value  float64
}

type number interface{ ~int | ~int64 | ~float64 }

// Value returns an unlabelled sample.
func Value[T number](v T) Sample { return Sample{Value: float64(v)} }

// Labeled returns a sample with the label list labels.
func Labeled[T number](labels string, v T) Sample { return Sample{Labels: labels, Value: float64(v)} }

// Indexed returns one sample per element of vals, labelled label="i" — the
// shape of per-shard series (shard="0", shard="1", ...).
func Indexed[T number](label string, vals []T) []Sample {
	out := make([]Sample, len(vals))
	for i, v := range vals {
		out[i] = Labeled(fmt.Sprintf(`%s="%d"`, label, i), v)
	}
	return out
}

// WriteCounter writes a counter family.
func WriteCounter(w io.Writer, name, help string, samples ...Sample) {
	writeFamily(w, name, help, "counter", samples)
}

// WriteGauge writes a gauge family.
func WriteGauge(w io.Writer, name, help string, samples ...Sample) {
	writeFamily(w, name, help, "gauge", samples)
}

func writeFamily(w io.Writer, name, help, typ string, samples []Sample) {
	writeHeader(w, name, help, typ)
	for _, s := range samples {
		writeSample(w, name, s.Labels, s.Value)
	}
}

// Series is one series of a histogram family: a snapshot and its label list.
type Series struct {
	Labels string
	Snapshot
}

// WriteHistogram writes a histogram family: each series' cumulative _bucket
// lines (its labels merged with le), then its _sum and _count.
func WriteHistogram(w io.Writer, name, help string, series ...Series) {
	writeHeader(w, name, help, "histogram")
	for _, s := range series {
		var cum int64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			writeSample(w, name+"_bucket", joinLabels(s.Labels, `le="`+formatFloat(b)+`"`), float64(cum))
		}
		if len(s.Counts) > len(s.Bounds) {
			cum += s.Counts[len(s.Bounds)]
		}
		writeSample(w, name+"_bucket", joinLabels(s.Labels, `le="+Inf"`), float64(cum))
		writeSample(w, name+"_sum", s.Labels, s.Sum)
		writeSample(w, name+"_count", s.Labels, float64(s.Count))
	}
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(v))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
