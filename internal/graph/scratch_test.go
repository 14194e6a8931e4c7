package graph

import (
	"runtime"
	"testing"
)

// A buffer put back at length n serves a get at n+1 in place: no allocation,
// and every entry zero. The pool may drop what it is given (a GC between the
// put and the get, or the race detector's random drops), so the pair is
// tried a few times and must succeed once.
func TestScratchGrowsInPlace(t *testing.T) {
	for try := 0; try < 20; try++ {
		// Larger than any graph another test of the package builds, and than
		// the tries before, so no earlier buffer can serve both gets.
		n := 100003 + 2*try
		s := getScratch(n)
		first := &s[0]
		putScratch(s)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := getScratch(n + 1)
		runtime.ReadMemStats(&after)
		if len(r) != n+1 {
			t.Fatalf("len %d, want %d", len(r), n+1)
		}
		for i, v := range r {
			if v != 0 {
				t.Fatalf("entry %d of a pooled buffer is %d, want 0", i, v)
			}
		}
		reused := &r[0] == first && after.Mallocs == before.Mallocs
		putScratch(r)
		if reused {
			return
		}
	}
	t.Fatal("a get at n+1 after a put at n never reused the buffer without allocating")
}
