// Package wiretest is the fuzz harness every internal/wire decoder shares:
// frames and WAL records in internal/cluster, checkpoints in the root
// package.
package wiretest

import (
	"bytes"
	"runtime"
	"testing"
)

// Check feeds data to decode, which reads one message from a whole input
// and, when it accepts it, returns the function that encodes the decoded
// value again. decode must not panic; it may allocate at most 20 times the
// input plus a fixed 8 KiB, because a length is believed only as far as the
// bytes behind it; and what it accepts must re-encode to exactly the input,
// because a value has one encoding.
func Check(t *testing.T, data []byte, name string, decode func([]byte) (reencode func() ([]byte, error), err error)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reencode, err := decode(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(20*len(data)+8192); got > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d, limit %d", name, len(data), got, limit)
	}
	if err != nil {
		return
	}
	if again, err := reencode(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("%s accepted an input it re-encodes differently (%v):\n in  %x\n out %x", name, err, data, again)
	}
}
