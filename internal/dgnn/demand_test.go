package dgnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/shard"
	"streamgnn/internal/tensor"
)

// looseGraph is a stream's snapshot in the shapes that matter to a region:
// a few sparse components over typed, directed edges, isolated nodes between
// them, features that differ per node.
func looseGraph(rng *rand.Rand, n, featDim int) *graph.Dynamic {
	g := graph.NewDynamic(featDim)
	growLoose(g, rng, n, 0)
	return g
}

// growLoose is one step of that stream: k new nodes, a third of them left
// isolated, and about as many new edges anywhere in the graph.
func growLoose(g *graph.Dynamic, rng *rand.Rand, k int, step int64) {
	for i := 0; i < k; i++ {
		f := make([]float64, g.FeatDim())
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		g.AddNode(f)
	}
	n := g.N()
	for e := 0; e < k; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u%3 == 0 || v%3 == 0 {
			continue // every third node never gets an edge
		}
		g.AddEdge(u, v, graph.EdgeType(rng.Intn(3)), step)
	}
}

func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// sameStateBits is sameDumps to the bit: a -0 for a +0 is a difference.
func sameStateBits(t *testing.T, what string, a, b []StateDump) {
	t.Helper()
	sameDumps(t, what, a, b)
	for i := range a {
		if !sameBits(a[i].Data, b[i].Data) {
			t.Fatalf("%s: state %d differs in the sign of a zero", what, i)
		}
	}
}

// The equivalence the incremental forward rests on, one table: for every
// kind, on random graphs with isolated nodes and separate components and a
// node set that grows between steps, for random wanted sets, and for frontiers
// shorter than, equal to and longer than the model's depth, the demand-ordered
// forward returns — bit for bit — the wanted nodes' rows of the whole-region
// forward on the ascending subgraph (DirtyView over Induced, what the engine
// ran before), commits the same recurrent state for them and touches no other
// state row; and a second identical pass on the same inference tape agrees
// with the first.
func TestDemandOrderMatchesWholeRegion(t *testing.T) {
	const featDim, hidden = 3, 5
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + k)))
			var region graph.Region
			tape := autodiff.NewInferenceTape()
			for trial := 0; trial < 6; trial++ {
				g := looseGraph(rng, 30+rng.Intn(30), featDim)
				ref := New(k, rand.New(rand.NewSource(int64(trial))), featDim, hidden)
				dem := New(k, rand.New(rand.NewSource(int64(trial))), featDim, hidden)
				for _, m := range []Model{ref, dem} {
					m.BeginStep(0)
					m.Forward(autodiff.NewTape(), FullView(g))
				}
				for step := 1; step <= 8; step++ {
					growLoose(g, rng, 4, int64(step))
					all := make([]int, g.N())
					for i := range all {
						all[i] = i
					}
					var want []int
					for _, v := range all {
						if rng.Intn(5) == 0 {
							want = append(want, v)
						}
					}
					depth := step % 4
					nodes := g.Ball(want, ref.Layers())
					switch step {
					case 5:
						want = nil // nothing wanted: nothing returned, nothing committed
						nodes = all
					case 6:
						want, nodes = all, all
					case 7:
						// A part the wanted rows do not reach across: strays and a
						// ball cut a hop short.
						nodes = g.Ball(want, 1)
						for v := 0; v < g.N(); v += 7 {
							nodes = append(nodes, v)
						}
					}
					if len(nodes) == 0 {
						continue
					}
					what := fmt.Sprintf("trial %d step %d (depth %d, %d of %d rows wanted)", trial, step, depth, len(want), len(nodes))

					ref.BeginStep(step)
					sub := g.Induced(nodes, -1)
					rows := LocalRows(sub.Nodes, want)
					whole := Infer(autodiff.NewInferenceTape(), ref, DirtyView(sub, rows))

					dem.BeginStep(step)
					var first *tensor.Matrix
					for pass := 0; pass < 2; pass++ {
						region.Build(g, nodes, want, depth)
						v := RegionView(&region)
						v.SnapshotState = true // a second pass reads what the first read
						out := Infer(tape, dem, v)
						if out.Rows != len(want) || out.Cols != hidden {
							t.Fatalf("%s: forward returned %dx%d", what, out.Rows, out.Cols)
						}
						for i, r := range rows {
							if !sameBits(out.Row(i), whole.Row(r)) {
								t.Fatalf("%s pass %d: node %d differs from the whole-region forward", what, pass, want[i])
							}
						}
						if pass == 0 {
							first = out
						} else if !sameBits(first.Data, out.Data) {
							t.Fatalf("%s: the warm pass differs from the first", what)
						}
						sameStateBits(t, what, ref.DumpState(), dem.DumpState())
					}
				}
			}
		})
	}
}

// ForwardPart is that forward with the model's own depth: the exact rows it
// finds in the part lead its output, and Demand is how far each depth reached.
func TestForwardPartShape(t *testing.T) {
	g := islands(3, 8, 3)
	m := NewTGCN(rand.New(rand.NewSource(3)), 3, 4)
	m.BeginStep(0)
	m.Forward(autodiff.NewTape(), FullView(g))
	m.BeginStep(1)
	part := []int{8, 9, 10, 11, 12, 13, 14, 15, 20} // island 1 and a stray of island 2
	res := ForwardPart(g, m, 2, part, []int{3, 9, 20, 23})
	if res.Shard != 2 || fmt.Sprint(res.IDs) != "[9 20]" || fmt.Sprint(res.Rows) != "[0 1]" {
		t.Fatalf("part result %+v", res)
	}
	// 9 reaches 8 and 10 in one hop, 11 and 15 in two; 20 is alone in the part.
	if res.Demand != [3]int{2, 4, 9} || res.Out.Rows != 2 {
		t.Fatalf("demand %v over a %d-row output", res.Demand, res.Out.Rows)
	}
}

// Concurrent parts each lay out their own pooled region and run on their own
// pooled tape (run under -race in CI): five parts of a recurrent model, over
// several steps so the scratch is reused warm, against one part holding
// everything.
func TestForwardShardsConcurrentRegions(t *testing.T) {
	s, err := shard.New(5, shard.Hash)
	if err != nil {
		t.Fatal(err)
	}
	one, many := islands(10, 6, 3), islands(10, 6, 3)
	many.AttachSharding(s)
	mOne := NewGCLSTM(rand.New(rand.NewSource(9)), 3, 4)
	mMany := NewGCLSTM(rand.New(rand.NewSource(9)), 3, 4)
	storeOne, storeMany := NewEmbStore(), NewEmbStore()
	for step := 0; step < 6; step++ {
		mOne.BeginStep(step)
		mMany.BeginStep(step)
		if step == 0 {
			storeOne.SetFull(Infer(autodiff.NewInferenceTape(), mOne, FullView(one)), 0)
			storeMany.SetFull(Infer(autodiff.NewInferenceTape(), mMany, FullView(many)), 0)
			continue
		}
		var src []int
		for c := 0; c < 10; c++ {
			src = append(src, c*6+(step+c)%6)
		}
		exact := one.Ball(src, 1)
		region := one.Ball(exact, mOne.Layers())
		parts := many.RegionParts(region)
		busy := 0
		for _, p := range parts {
			if len(p) > 0 {
				busy++
			}
		}
		if busy < 3 {
			t.Fatalf("step %d: only %d parts have rows", step, busy)
		}
		MergeShards(storeOne, ForwardShards(one, mOne, [][]int{region}, exact))
		res := ForwardShards(many, mMany, parts, exact)
		var demand [3]int
		for _, r := range res {
			for d, rows := range r.Demand {
				demand[d] += rows
			}
		}
		if demand[0] != len(exact) || demand[2] != len(region) || demand[1] < demand[0] || demand[1] > demand[2] {
			t.Fatalf("step %d: parts covered %v rows, exact %d, region %d", step, demand, len(exact), len(region))
		}
		MergeShards(storeMany, res)
		if !sameBits(storeOne.Publish().Dense().Data, storeMany.Publish().Dense().Data) {
			t.Fatalf("step %d: five concurrent parts differ from the single part", step)
		}
		sameStateBits(t, fmt.Sprintf("step %d", step), mOne.DumpState(), mMany.DumpState())
	}
}
