package graph

import "sync"

// scratchPool recycles the per-call []int32 working buffers used as
// global-id-indexed marker tables: global->row maps in Region and visited
// marks in Ball. A map[int]int{} per call would be the dominant allocation of
// partition extraction.
//
// Invariant: every buffer in the pool is fully zeroed over its whole
// capacity, not only its length, since a later, larger get reslices up to it.
// getScratch returns buffers without re-zeroing; callers must zero exactly
// the entries they set before calling putScratch. The pool is safe for
// concurrent use, so partition extraction can run on worker goroutines.
var scratchPool sync.Pool

// getScratch returns an all-zero length-n int32 slice. A new buffer gets a
// quarter of headroom, so a graph that grows by a few nodes a step keeps
// reusing it instead of allocating one a step.
func getScratch(n int) []int32 {
	if p, ok := scratchPool.Get().(*[]int32); ok {
		if s := *p; cap(s) >= n {
			return s[:n]
		}
		// Too small for this graph; drop it and grow.
	}
	return make([]int32, n, n+n/4)
}

// putScratch returns s to the pool. s must be fully zeroed again.
func putScratch(s []int32) {
	scratchPool.Put(&s)
}
