package streamgnn

import "testing"

func TestTelemetryPopulated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 6
	cfg.WindowSteps = 4
	e := endToEnd(t, cfg, 5)

	tel := e.Telemetry()
	if tel.Steps != 5 {
		t.Fatalf("Steps = %d, want 5", tel.Steps)
	}
	if tel.Step.Count != 5 {
		t.Fatalf("whole-step histogram count = %d, want 5", tel.Step.Count)
	}
	if tel.Step.Sum <= 0 {
		t.Fatalf("whole-step histogram sum = %v, want > 0", tel.Step.Sum)
	}
	for _, name := range StepPhases() {
		h, ok := tel.Phases[name]
		if !ok {
			t.Fatalf("phase %q missing from telemetry", name)
		}
		if h.Count != 5 {
			t.Fatalf("phase %q count = %d, want 5", name, h.Count)
		}
		var bucketed int64
		for _, c := range h.Counts {
			bucketed += c
		}
		if bucketed != h.Count {
			t.Fatalf("phase %q buckets sum to %d, count is %d", name, bucketed, h.Count)
		}
		if len(h.Counts) != len(h.Bounds)+1 {
			t.Fatalf("phase %q has %d counts for %d bounds", name, len(h.Counts), len(h.Bounds))
		}
	}
	// Phase times nest inside the whole-step time.
	var phaseSum float64
	for _, h := range tel.Phases {
		phaseSum += h.Sum
	}
	if phaseSum > tel.Step.Sum {
		t.Fatalf("phase sums (%v) exceed whole-step sum (%v)", phaseSum, tel.Step.Sum)
	}
	// The steps above drew their buffers through the pool and recycled them.
	if tel.TensorPoolGets == 0 || tel.TensorPoolHits == 0 || tel.TensorPoolHits > tel.TensorPoolGets || tel.TensorFreshBytes == 0 {
		t.Fatalf("tensor pool counters gets=%d hits=%d fresh=%d", tel.TensorPoolGets, tel.TensorPoolHits, tel.TensorFreshBytes)
	}
	// The last full forward ran over all 12 nodes; a node that joins without
	// an edge is one more row and no more active rows.
	if tel.ForwardRows != 12 || tel.ForwardActiveRows < 1 || tel.ForwardActiveRows > 12 {
		t.Fatalf("last full forward: %d active of %d rows, want 1..12 of 12", tel.ForwardActiveRows, tel.ForwardRows)
	}
	e.AddNode(0, []float64{0, 0, 1})
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if after := e.Telemetry(); after.ForwardRows != 13 || after.ForwardActiveRows < 1 || after.ForwardActiveRows > 12 {
		t.Fatalf("after an isolated node joined: %d active of %d rows, want 1..12 of 13", after.ForwardActiveRows, after.ForwardRows)
	}
}

func TestTelemetryZeroBeforeStepping(t *testing.T) {
	e, err := NewEngine(3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tel := e.Telemetry()
	if tel.Steps != 0 || tel.Step.Count != 0 {
		t.Fatalf("fresh engine reports telemetry: %+v", tel)
	}
	if got := len(tel.Phases); got != len(StepPhases()) {
		t.Fatalf("fresh engine has %d phase histograms, want %d", got, len(StepPhases()))
	}
}
