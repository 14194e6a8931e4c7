package dgnn

import (
	"math/rand"
	"reflect"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/shard"
)

// islands builds k disjoint rings of n nodes each — a region over scattered
// dirty nodes then decomposes into several components, exercising a real
// multi-shard fan-out.
func islands(k, n, featDim int) *graph.Dynamic {
	g := graph.NewDynamic(featDim)
	for i := 0; i < k*n; i++ {
		f := make([]float64, featDim)
		f[0] = float64(i%3) - 1
		g.AddNode(f)
	}
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			g.AddUndirectedEdge(c*n+i, c*n+(i+1)%n, 0, int64(i))
		}
	}
	return g
}

// The sharded fan-out invariant, at the dgnn layer: for every model,
// partitioning a step's compute region by component ownership, forwarding
// each shard's part, and merging gives bit-identical embeddings *and*
// recurrent state to the single unsharded whole-region forward.
func TestForwardShardsMatchesUnsharded(t *testing.T) {
	s, err := shard.New(4, shard.Hash)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			gA := islands(5, 8, 3)
			gB := islands(5, 8, 3)
			gB.AttachSharding(s)
			mA := New(k, rand.New(rand.NewSource(7)), 3, 4)
			mB := New(k, rand.New(rand.NewSource(7)), 3, 4)
			storeA, storeB := NewEmbStore(), NewEmbStore()

			// Step 0: committed full forward on both, seeding state and the
			// embedding stores identically.
			mA.BeginStep(0)
			storeA.SetFull(mA.Forward(autodiff.NewTape(), FullView(gA)).Value.Clone(), 0)
			mB.BeginStep(0)
			storeB.SetFull(mB.Forward(autodiff.NewTape(), FullView(gB)).Value.Clone(), 0)

			// Step 1: one dirty node in four of the five islands; both sides
			// compute the same global exact set and compute region.
			src := []int{1, 9, 17, 33}
			exact := gA.Ball(src, mA.Layers())
			region := gA.Ball(exact, mA.Layers())

			// A: the unsharded reference — one forward over the whole region.
			mA.BeginStep(1)
			sub := gA.Induced(region, region[0])
			rows := LocalRows(sub.Nodes, exact)
			out := mA.Forward(autodiff.NewTape(), DirtyView(sub, rows))
			storeA.Splice(out.Value, rows, exact)

			// B: the sharded fan-out over the component partition.
			mB.BeginStep(1)
			parts := gB.RegionParts(region)
			nonEmpty := 0
			for _, p := range parts {
				if len(p) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < 2 {
				t.Fatalf("region did not fan out: %d non-empty parts", nonEmpty)
			}
			res := ForwardShards(gB, mB, parts, exact)
			if n := MergeShards(storeB, res); n != len(exact) {
				t.Fatalf("MergeShards spliced %d rows, want %d", n, len(exact))
			}

			if !storeA.Publish().Dense().AllClose(storeB.Publish().Dense(), 0) {
				t.Fatal("sharded embeddings differ from unsharded reference")
			}
			if !reflect.DeepEqual(mA.DumpState(), mB.DumpState()) {
				t.Fatal("sharded recurrent state differs from unsharded reference")
			}
		})
	}
}

// RegionParts keeps components whole, assigns them to the owner of their
// smallest node, and covers the region exactly.
func TestRegionPartsComponentAssignment(t *testing.T) {
	g := islands(3, 6, 2)
	s, err := shard.New(2, shard.Hash)
	if err != nil {
		t.Fatal(err)
	}
	g.AttachSharding(s)
	region := []int{0, 1, 2, 6, 7, 12, 13, 14}
	parts := g.RegionParts(region)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	covered := 0
	for _, p := range parts {
		covered += len(p)
	}
	if covered != len(region) {
		t.Fatalf("parts cover %d nodes, want %d", covered, len(region))
	}
	// Each island's fragment is one component; it must land whole on the
	// shard owning its smallest node.
	for _, comp := range [][]int{{0, 1, 2}, {6, 7}, {12, 13, 14}} {
		owner := s.Of(comp[0])
		for _, v := range comp {
			found := false
			for _, u := range parts[owner] {
				if u == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d not in part %d with its component", v, owner)
			}
		}
	}
	if empty := g.RegionParts(nil); len(empty) != 2 || empty[0] != nil || empty[1] != nil {
		t.Fatalf("empty region should yield empty parts, got %v", empty)
	}
}

// Empty shard parts produce nil outputs that the merge skips.
func TestForwardShardsEmptyParts(t *testing.T) {
	g := ring(8, 3)
	m := NewWinGNN(rand.New(rand.NewSource(2)), 3, 4)
	m.BeginStep(0)
	st := NewEmbStore()
	st.SetFull(m.Forward(autodiff.NewTape(), FullView(g)).Value.Clone(), 0)

	res := ForwardShards(g, m, [][]int{nil, {1, 2, 3, 4}, nil}, []int{2, 3})
	if res[0].Out != nil || res[2].Out != nil {
		t.Fatal("empty parts should yield nil outputs")
	}
	if res[1].Out == nil || res[1].Shard != 1 || len(res[1].IDs) != 2 {
		t.Fatalf("shard 1 result malformed: %+v", res[1])
	}
	if n := MergeShards(st, res); n != 2 {
		t.Fatalf("MergeShards spliced %d rows, want 2", n)
	}
}
