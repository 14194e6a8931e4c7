package tensor

import "sync/atomic"

// The allocation meter counts float64 values allocated through New. It gives
// a deterministic, machine-independent proxy for the working set ("maximum
// memory consumption during training" in the paper): full-graph training
// materializes O(n·d) intermediates per layer, subgraph training only
// O(|G_v|·d), and the meter makes that difference directly observable.
//
// The meter is cumulative over explicit epochs: call ResetMeter at the start
// of a measured region; TotalFloats reports the allocation volume since.

var (
	meterEnabled int64 // non-zero when metering
	totalFloats  int64
)

// EnableMeter turns the allocation meter on or off. The meter is off by
// default so hot paths pay only one atomic load.
func EnableMeter(on bool) {
	if on {
		atomic.StoreInt64(&meterEnabled, 1)
	} else {
		atomic.StoreInt64(&meterEnabled, 0)
	}
}

// ResetMeter zeroes the cumulative counter.
func ResetMeter() { atomic.StoreInt64(&totalFloats, 0) }

// TotalFloats returns the number of float64s allocated since the last reset.
func TotalFloats() int64 { return atomic.LoadInt64(&totalFloats) }

// TotalBytes returns TotalFloats expressed in bytes.
func TotalBytes() int64 { return TotalFloats() * 8 }

func recordAlloc(n int) {
	if atomic.LoadInt64(&meterEnabled) == 0 || n == 0 {
		return
	}
	atomic.AddInt64(&totalFloats, int64(n))
}
