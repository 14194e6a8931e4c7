package kit

import (
	"math"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 5, want: 0.99, got: 0.5},     // never below the median
		{n: 100, want: 0.99, got: 0.9},   // 10 samples beyond p90, 5 beyond p95
		{n: 200, want: 0.99, got: 0.95},  // exactly 10 beyond p95
		{n: 1000, want: 0.99, got: 0.99}, // exactly 10 beyond p99
		{n: 100000, want: 0.99, got: 0.99},
		{n: 100000, want: 0.9, got: 0.9}, // never above what was asked for
	}
	for _, c := range cases {
		if got := SupportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("SupportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := Percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if Percentile(nil, 0.5) != 0 || Median(nil) != 0 {
		t.Error("empty samples must reduce to 0")
	}
	if xs[0] != 5 {
		t.Error("Percentile reordered its input")
	}
}

// The expected values are what CPython's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{2, 4, 8}, 2, 4, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []Span{
		{Name: "step", Parent: -1, Start: 0, End: 100 * us},
		{Name: "a", Parent: 0, Start: 10 * us, End: 30 * us},
		{Name: "b", Parent: 0, Start: 20 * us, End: 50 * us}, // overlaps a: the union counts once
		{Name: "c", Parent: 0, Start: 60 * us, End: 70 * us},
		{Name: "d", Parent: 0, Start: 95 * us, End: 120 * us}, // clipped to the parent
		{Name: "leaf", Parent: 2, Start: 25 * us, End: 35 * us},
	}
	self := SelfTimes(spans)
	want := []time.Duration{45 * us, 20 * us, 20 * us, 10 * us, 25 * us, 10 * us}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	sum := Summarize(spans)
	if sum[0].Name != "step" || sum[0].Count != 1 || math.Abs(sum[0].SelfMS-0.045) > 1e-9 {
		t.Errorf("summary of step = %+v", sum[0])
	}
}

func TestRecorder(t *testing.T) {
	var none *Recorder
	if i := none.Begin("x", 1, -1); i != -1 {
		t.Errorf("nil recorder returned span %d", i)
	}
	none.End(-1)
	if none.Spans() != nil {
		t.Error("nil recorder has spans")
	}
	r := NewRecorder()
	p := r.Begin("parent", 7, -1)
	c := r.Begin("child", 7, p)
	r.End(c)
	open := r.Begin("never closed", 8, -1)
	r.End(p)
	spans := r.Spans()
	if len(spans) != 3 || spans[c].Parent != p || spans[c].ID != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[p].End < spans[c].End || spans[c].Start < spans[p].Start {
		t.Errorf("child %+v not inside parent %+v", spans[c], spans[p])
	}
	if spans[open].End != spans[open].Start {
		t.Errorf("unclosed span has a duration: %+v", spans[open])
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := MetricDef{Name: "ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	noisy := []float64{60, 100, 140, 80, 120, 100}
	cases := []struct {
		name string
		a, b []float64
		def  MetricDef
		want string
	}{
		{"same", steady(100), steady(101), lower, Unchanged},
		{"slower beyond the bound", steady(100), steady(115), lower, Regressed},
		{"slower within the bound", steady(100), steady(108), lower, Unchanged},
		{"faster", steady(100), steady(85), lower, Improved},
		{"rate fell", steady(100), steady(85), higher, Regressed},
		{"rate rose", steady(100), steady(115), higher, Improved},
		{"spread wider than the bound", noisy, steady(150), lower, Unresolved},
		{"missing side", steady(100), nil, lower, Unresolved},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b, c.def); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse %+.3f, spreads %.3f %.3f), want %s", c.name, got.Verdict, got.Worse, got.SpreadA, got.SpreadB, c.want)
		}
	}
}
