package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// memReading is a reading of the Go runtime's allocation and GC counters.
type memReading struct {
	allocBytes uint64
	gcCPU      float64 // seconds
}

// memDelta is the difference of two readings.
type memDelta memReading

func readMem() memReading {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var m memReading
	if samples[0].Value.Kind() == metrics.KindUint64 {
		m.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = samples[1].Value.Float64()
	}
	return m
}

func (m memReading) since(m0 memReading) memDelta {
	return memDelta{allocBytes: m.allocBytes - m0.allocBytes, gcCPU: m.gcCPU - m0.gcCPU}
}

// rssPeakMB is the process's peak resident set (VmHWM), 0 where /proc does
// not say.
func rssPeakMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
