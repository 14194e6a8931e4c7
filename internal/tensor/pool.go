package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buffer pooling for tape intermediates. A training round and an inference
// forward each draw a full set of matrices per pass, and their tape hands
// them back at Release (autodiff.Tape.Release); recycling those buffers
// through sized-class rings removes the dominant source of allocation,
// zeroing and GC work on both hot paths.
//
// Pooling is orthogonal to the allocation meter: New always records the
// logical allocation, whether the backing slice came from the pool or from
// make, so metered working-set numbers count what a step asks for, not what
// the pool happened to hold.

// Pool counters, cumulative since process start (see ReadPoolStats). A get is
// a hit or a miss, so the hot path pays for one counter.
var poolHits, poolMisses, poolFreshBytes atomic.Int64

// PoolStats is a snapshot of the buffer pool's own counters: how many buffer
// requests it saw, how many it served from a recycled buffer, and how many
// bytes it had to take fresh from the Go heap instead. A steady-state
// inference forward should add (almost) nothing to FreshBytes.
type PoolStats struct {
	Gets, Hits, FreshBytes int64
}

// ReadPoolStats returns the process-wide pool counters.
func ReadPoolStats() PoolStats {
	hits := poolHits.Load()
	return PoolStats{Gets: hits + poolMisses.Load(), Hits: hits, FreshBytes: poolFreshBytes.Load()}
}

// 1<<poolClasses is the largest pooled buffer (2^26 floats = 512 MB); larger
// requests always fall through to make.
const poolClasses = 27

// rings[c] is a small bounded stack of buffers with cap exactly 1<<c;
// contents are arbitrary (grab zeroes the prefix it hands out). Unlike a
// sync.Pool it is not drained by a GC cycle, so the hot buffer shapes of a
// step survive the collections between steps. Retention is bounded at
// ringFloats floats per class (larger classes hold proportionally fewer
// buffers, the largest none); a buffer offered to a full ring is left to the
// collector.
type classRing struct {
	mu sync.Mutex
	// buf stores slice headers by value: pushing a buffer must not allocate
	// (boxing a header into a *[]float64 costs a heap object per Recycle).
	buf [][]float64
}

var rings [poolClasses]classRing

// ringFloats caps the floats a class ring may retain (1<<20 floats = 8 MB).
const ringFloats = 1 << 20

// ringCap returns the maximum buffers ring c may hold.
func ringCap(c int) int {
	n := ringFloats >> uint(c)
	if n > 64 {
		n = 64
	}
	return n
}

// ringGet pops a buffer from ring c, or nil if the ring is empty.
//
//streamlint:lockfree-exempt bounded O(1) sized-class ring pop — a few pointer moves under a per-class mutex, never the engine step lock
func ringGet(c int) []float64 {
	r := &rings[c]
	r.mu.Lock()
	k := len(r.buf)
	if k == 0 {
		r.mu.Unlock()
		return nil
	}
	s := r.buf[k-1]
	r.buf[k-1] = nil
	r.buf = r.buf[:k-1]
	r.mu.Unlock()
	return s
}

// ringPut offers a buffer to ring c, which drops it when full.
//
//streamlint:lockfree-exempt bounded O(1) sized-class ring push — a few pointer moves under a per-class mutex, never the engine step lock
func ringPut(c int, s []float64) {
	r := &rings[c]
	r.mu.Lock()
	if len(r.buf) < ringCap(c) {
		r.buf = append(r.buf, s)
	}
	r.mu.Unlock()
}

// sizeClass returns the pool class for n floats, or -1 if n is not poolable.
func sizeClass(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
	if c >= poolClasses {
		return -1
	}
	return c
}

// grab returns a length-n slice, drawn from the pool when possible. With zero
// set its contents are zero; without, a pooled buffer comes back with
// arbitrary contents — only for callers that write every element before any
// read (make-backed buffers are zeroed by the runtime regardless).
func grab(n int, zero bool) []float64 {
	c := sizeClass(n)
	if c < 0 {
		poolMisses.Add(1)
		poolFreshBytes.Add(int64(n) * 8)
		return make([]float64, n)
	}
	s := ringGet(c)
	if s == nil {
		poolMisses.Add(1)
		poolFreshBytes.Add(8 << uint(c))
		return make([]float64, n, 1<<c)
	}
	poolHits.Add(1)
	s = s[:n]
	if zero {
		for i := range s {
			s[i] = 0
		}
	}
	return s
}

// Recycle returns m's backing buffer to the pool and detaches it from m, so
// a stale reference to the matrix fails loudly instead of reading recycled
// data. Only buffers whose capacity is an exact size class are pooled;
// anything else (including matrices built with FromSlice over foreign
// storage) is left to the garbage collector.
func Recycle(m *Matrix) {
	if m == nil {
		return
	}
	s := m.Data
	m.Data = nil
	c := sizeClass(cap(s))
	if c < 0 || cap(s) != 1<<c {
		return
	}
	ringPut(c, s[:cap(s)])
}
