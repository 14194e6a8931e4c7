package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestDefaultLatencyBuckets(t *testing.T) {
	b := DefaultLatencyBuckets()
	if len(b) != 28 {
		t.Fatalf("len = %d", len(b))
	}
	if b[0] != 1e-6 {
		t.Fatalf("first bound %v", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d", i)
		}
	}
	if b[len(b)-1] < 100 {
		t.Fatalf("top bound %v does not cover slow steps", b[len(b)-1])
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // bucket 0
	h.Observe(0.001)  // bucket 0 (le is inclusive)
	h.Observe(0.005)  // bucket 1
	h.Observe(0.05)   // bucket 2
	h.Observe(5)      // +Inf bucket
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 {
		t.Fatalf("Count = %d", s.Count)
	}
	if math.Abs(s.Sum-5.0565) > 1e-12 {
		t.Fatalf("Sum = %v", s.Sum)
	}
	if m := s.Mean(); math.Abs(m-5.0565/5) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("Count = %d", s.Count)
	}
	if math.Abs(s.Sum-8000*1e-5) > 1e-9 {
		t.Fatalf("Sum = %v", s.Sum)
	}
}

func TestWriteHistogramPrometheus(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(3)
	var b strings.Builder
	empty := NewHistogram([]float64{0.5, 1}).Snapshot()
	WriteHistogram(&b, "x_seconds", "test", Series{Labels: `phase="train"`, Snapshot: h.Snapshot()}, Series{Labels: `phase="idle"`, Snapshot: empty})
	want := `# HELP x_seconds test
# TYPE x_seconds histogram
x_seconds_bucket{phase="train",le="0.5"} 1
x_seconds_bucket{phase="train",le="1"} 2
x_seconds_bucket{phase="train",le="+Inf"} 3
x_seconds_sum{phase="train"} 3.9
x_seconds_count{phase="train"} 3
x_seconds_bucket{phase="idle",le="0.5"} 0
x_seconds_bucket{phase="idle",le="1"} 0
x_seconds_bucket{phase="idle",le="+Inf"} 0
x_seconds_sum{phase="idle"} 0
x_seconds_count{phase="idle"} 0
`
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteIndexedIntValues(t *testing.T) {
	var b strings.Builder
	WriteGauge(&b, "shard_nodes", "Nodes per shard.", Indexed("shard", []int64{7, 0, 3})...)
	want := "# HELP shard_nodes Nodes per shard.\n# TYPE shard_nodes gauge\n" +
		"shard_nodes{shard=\"0\"} 7\nshard_nodes{shard=\"1\"} 0\nshard_nodes{shard=\"2\"} 3\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
	if s := Indexed[int64]("i", nil); len(s) != 0 {
		t.Fatalf("nil slice should index to no samples, got %v", s)
	}
}

func TestWriteValueNoLabels(t *testing.T) {
	var b strings.Builder
	WriteCounter(&b, "steps_total", "Steps.", Value(int64(42)))
	WriteGauge(&b, "rate", "Rate.", Value(0.25))
	WriteCounter(&b, "big_total", "Big.", Value(int64(1)<<40), Labeled(`kind="neg"`, -3))
	want := "# HELP steps_total Steps.\n# TYPE steps_total counter\nsteps_total 42\n" +
		"# HELP rate Rate.\n# TYPE rate gauge\nrate 0.25\n" +
		"# HELP big_total Big.\n# TYPE big_total counter\nbig_total 1099511627776\nbig_total{kind=\"neg\"} -3\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}
