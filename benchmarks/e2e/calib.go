package main

import (
	"math"
	"time"

	"streamgnn/benchmarks/internal/kit"
)

// calibScratch is the working set of the calibration slice: 4 MB of values
// and a fixed pseudo-random visiting order over them.
var calibScratch = func() (s struct {
	vals  []float64
	order []int32
}) {
	const n = 1 << 19
	s.vals = make([]float64, n)
	s.order = make([]int32, 1<<15)
	for i := range s.vals {
		s.vals[i] = float64(i&1023) / 1024
	}
	for i := range s.order {
		s.order[i] = int32((uint64(i)*2654435761 + 12345) % n)
	}
	return s
}()

// calibrate runs a fixed slice of work owned by the benchmark, a miniature
// of what an engine step does to the machine: fresh allocations that are
// written once and dropped, indexed gathers over a few megabytes, and a
// small dense product through tanh and sigmoid gates. It returns how long
// the slice took. The step loop runs one slice after every step, so each
// repetition carries a reading of the host's speed sampled over exactly the
// time its steps ran; see hostFactor.
func calibrate() time.Duration {
	const rows, dim = 512, 16
	sc := calibScratch
	t0 := time.Now()
	sink := 0.0
	for r := 0; r < 4; r++ {
		a := make([]float64, rows*dim)
		out := make([]float64, rows*dim)
		for i, j := range sc.order[r*len(a) : (r+1)*len(a)] {
			a[i] = sc.vals[j]
		}
		for i := 0; i < rows; i++ {
			ai, oi := a[i*dim:(i+1)*dim], out[i*dim:(i+1)*dim]
			for k, av := range ai {
				for j := range oi {
					oi[j] += av * sc.vals[(k*dim+j)&1023]
				}
			}
			for j, v := range oi {
				oi[j] = math.Tanh(v) * (1 / (1 + math.Exp(-v)))
			}
		}
		sink += out[r]
	}
	calibSink = sink
	return time.Since(t0)
}

// calibNominalMS is what a calibration slice takes on the development VM in
// its fast state. Dividing by it makes the host factor 1 there, so calibrated
// times read like the times measured on that machine when it is quiet.
const calibNominalMS = 2.0

// calibSlicesPerRep is about how many slices a repetition takes, spread over
// its steps: several after each of a few long steps, one after every n-th of
// many short ones, so the slices stay a few percent of the repetition.
const calibSlicesPerRep = 32

// hostFactor is the repetition's reading of the host's speed: the median of
// its calibration slices over the nominal slice. The development VM shares
// its cores: between identical repetitions wall time varies by a factor of 2
// and CPU time by 1.4, in states that last from seconds to minutes, and code
// that misses the cache slows down far more than arithmetic does. Timings
// that are CPU-bound are therefore reported divided by this factor — in
// nominal-machine time — which took the spread between identical runs from
// 22 % to 10 % for wall time and the drift between two halves of a
// 3.5-minute series from -18 % to -9 %. Timings set by a clock (a paced
// stream's rate, the admission queue's 2 ms wait) are left as measured.
func (r *repResult) hostFactor() float64 {
	if len(r.calibMS) == 0 {
		return 1
	}
	return kit.Median(r.calibMS) / calibNominalMS
}

// calibSink keeps the compiler from discarding the calibration work.
var calibSink float64
