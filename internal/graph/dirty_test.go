package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestDirtyTrackingDisabledByDefault(t *testing.T) {
	g := NewDynamic(2)
	g.AddNode([]float64{1, 0})
	if got := g.TakeDirty(); got != nil {
		t.Fatalf("TakeDirty = %v on a disabled tracker", got)
	}
}

func TestDirtyTrackingAccumulatesAndDrains(t *testing.T) {
	g := NewDynamic(2)
	g.EnableDirtyTracking()
	a := g.AddNode([]float64{1, 0})
	b := g.AddNode([]float64{0, 1})
	c := g.AddNode([]float64{1, 1})
	g.AddEdge(a, b, 0, 0)
	if got, want := g.TakeDirty(), []int{a, b, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("TakeDirty = %v, want %v", got, want)
	}
	// Drained: a quiet interval reports nothing.
	if got := g.TakeDirty(); got != nil {
		t.Fatalf("TakeDirty after drain = %v, want nil", got)
	}
	// Feature writes mark their node only; label writes are supervision
	// and do not affect forward inference at all.
	g.SetFeature(b, []float64{0.5, 0.5})
	g.SetLabel(c, 1)
	if got, want := g.TakeDirty(), []int{b}; !reflect.DeepEqual(got, want) {
		t.Fatalf("TakeDirty = %v, want %v", got, want)
	}
	if got := g.TakeDirty(); got != nil {
		t.Fatalf("TakeDirty after drain = %v, want nil", got)
	}
}

// Window expiry must feed the forward-dirty set even though it bypasses the
// update set U: dropping an edge changes degrees, hence normalization, hence
// the forward inputs of both endpoints.
func TestDirtyTrackingSeesExpiry(t *testing.T) {
	g := NewDynamic(2)
	g.EnableDirtyTracking()
	a := g.AddNode(nil)
	b := g.AddNode(nil)
	g.AddNode(nil)
	g.AddEdge(a, b, 0, 0)
	g.TakeDirty()
	g.ResetUpdated()
	g.ExpireEdgesBefore(5)
	if got, want := g.TakeDirty(), []int{a, b}; !reflect.DeepEqual(got, want) {
		t.Fatalf("TakeDirty after expiry = %v, want %v", got, want)
	}
	if got := g.Updated(); len(got) != 0 {
		t.Fatalf("expiry fed the update set U: %v", got)
	}
}

// Ball must equal the union of its sources' single-source balls.
func TestBallMatchesKHopBallUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewDynamic(1)
	const n = 60
	for i := 0; i < n; i++ {
		g.AddNode([]float64{1})
	}
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 0, 0)
	}
	for i := 0; i < 25; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), 0, 0)
	}
	for _, L := range []int{0, 1, 2, 3} {
		sources := []int{3, 17, 17, 44} // duplicate on purpose
		union := map[int]struct{}{}
		for _, s := range sources {
			for _, v := range g.Ball([]int{s}, L) {
				union[v] = struct{}{}
			}
		}
		want := make([]int, 0, len(union))
		for v := range union {
			want = append(want, v)
		}
		sort.Ints(want)
		if got := g.Ball(sources, L); !reflect.DeepEqual(got, want) {
			t.Fatalf("L=%d: Ball = %v, want %v", L, got, want)
		}
	}
	if got := g.Ball(nil, 2); got != nil {
		t.Fatalf("Ball(nil) = %v, want nil", got)
	}
}

// Live is the nodes with a live edge plus the extra ids, ascending and
// deduplicated, and it is closed under Ball: expiry takes a node out, a new
// edge brings it back.
func TestLiveIsClosedUnderBall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewDynamic(1)
	for v := 0; v < 40; v++ {
		g.AddNode([]float64{0})
	}
	for step := int64(0); step < 12; step++ {
		for k := 0; k < 4; k++ {
			g.AddEdge(rng.Intn(40), rng.Intn(40), 0, step)
		}
		g.ExpireEdgesBefore(step - 2)
		extra := []int{7, rng.Intn(40), 7}
		live := g.Live(extra)
		var want []int
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) > 0 || v == extra[0] || v == extra[1] {
				want = append(want, v)
			}
		}
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("step %d: Live = %v, want %v", step, live, want)
		}
		if ball := g.Ball(live, 3); !reflect.DeepEqual(ball, live) {
			t.Fatalf("step %d: Ball(Live, 3) = %v, Live = %v", step, ball, live)
		}
	}
}
