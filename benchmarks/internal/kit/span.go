package kit

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Start and End are offsets from the recorder's epoch. Parent is
// the index of the span that caused this one, -1 for a root. ID is the step
// index or the request id, shared by every span of one step or request.
type Span struct {
	Name   string        `json:"name"`
	ID     int64         `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder records
// nothing, so the untraced run pays one nil check per boundary.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns a recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, 1<<14)}
}

// Begin opens a span and returns its index, to be passed to End and used as
// the Parent of spans it causes. It returns -1 on a nil recorder.
func (r *Recorder) Begin(name string, id int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// End closes the span Begin returned.
func (r *Recorder) End(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// Offset converts a wall-clock reading to the recorder's time base.
func (r *Recorder) Offset(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch)
}

// Spans returns the closed spans recorded so far. Parent indices are kept
// valid: a span that was never closed is kept with End = Start.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Span(nil), r.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// SelfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other (two
// parallel RPCs under one step), so the covered part is the union of the
// child intervals clipped to the parent.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// SpanSummary aggregates the spans of one name.
type SpanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
}

// Summarize groups spans by name, in order of first appearance.
func Summarize(spans []Span) []SpanSummary {
	self := SelfTimes(spans)
	idx := map[string]int{}
	var out []SpanSummary
	durs := map[string][]float64{}
	for i, s := range spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, SpanSummary{Name: s.Name})
		}
		ms := float64(s.End-s.Start) / 1e6
		out[k].Count++
		out[k].TotalMS += ms
		out[k].SelfMS += float64(self[i]) / 1e6
		durs[s.Name] = append(durs[s.Name], ms)
	}
	for k := range out {
		d := durs[out[k].Name]
		out[k].P50MS = Percentile(d, 0.5)
		out[k].P95MS = Percentile(d, SupportedPercentile(len(d), 0.95))
	}
	return out
}
