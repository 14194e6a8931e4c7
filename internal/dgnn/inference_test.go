package dgnn

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/tensor"
)

// typedGraph is a ring with chords whose edges carry three edge types, so
// RTGCN's per-relation path runs with more than one live relation, and whose
// features change from step to step.
func typedGraph(n, featDim int) *graph.Dynamic {
	g := graph.NewDynamic(featDim)
	for i := 0; i < n; i++ {
		f := make([]float64, featDim)
		f[0], f[1] = float64(i%3)-1, float64(i%5)*0.25
		g.AddNode(f)
	}
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n, graph.EdgeType(i%3), int64(i))
		if i%4 == 0 {
			g.AddEdge(i, (i+n/2)%n, graph.EdgeType((i/4)%3), int64(i))
		}
	}
	return g
}

// mutateTyped is one stream step of typedGraph: a feature rewrite and a new
// edge, so consecutive forwards see different data behind the same ops.
func mutateTyped(g *graph.Dynamic, step int) {
	n := g.N()
	v := (step*7 + 3) % n
	f := make([]float64, g.FeatDim())
	f[0], f[2] = float64(step%4)*0.3, -0.5
	g.SetFeature(v, f)
	g.AddEdge((step*5)%n, (step*11+1)%n, graph.EdgeType(step%3), int64(100+step))
}

// viewCase builds one shape of view, fresh each call (views own their Feat).
type viewCase struct {
	name  string
	build func(g *graph.Dynamic, step int) View
}

// inferenceViews are the three view shapes a forward runs over.
var inferenceViews = []viewCase{
	{"full", func(g *graph.Dynamic, _ int) View { return FullView(g) }},
	{"sub-nocommit", func(g *graph.Dynamic, step int) View {
		v := SubView(g.Partition((step*3)%g.N(), 2))
		v.NoCommit = true
		return v
	}},
	{"dirty", func(g *graph.Dynamic, step int) View {
		exact := g.Ball([]int{(step * 3) % g.N(), (step*3 + 9) % g.N()}, 2)
		region := g.Ball(exact, 2)
		sub := g.Induced(region, region[0])
		return DirtyView(sub, LocalRows(sub.Nodes, exact))
	}},
}

func sameDumps(t *testing.T, what string, a, b []StateDump) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d state matrices", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Rows != b[i].Rows || a[i].Cols != b[i].Cols {
			t.Fatalf("%s: state %d is %dx%d vs %dx%d", what, i, a[i].Rows, a[i].Cols, b[i].Rows, b[i].Cols)
		}
		for k := range a[i].Data {
			if a[i].Data[k] != b[i].Data[k] {
				t.Fatalf("%s: state %d differs at %d: %v vs %v", what, i, k, a[i].Data[k], b[i].Data[k])
			}
		}
	}
}

// The inference-mode contract, one table: for every kind and every view
// shape, consecutive forwards on one reused inference tape — pooling on, so a
// buffer released early really is handed to the next op — produce the output
// and the committed recurrent state of the same forwards on fresh recording
// tapes, bit for bit. The fourth row rotates the view shapes on a single tape,
// so one tape runs every shape's forward in turn.
func TestInferenceTapeMatchesRecordingTape(t *testing.T) {
	const n, featDim, hidden, steps = 48, 3, 6, 4
	rows := append(inferenceViews[:len(inferenceViews):len(inferenceViews)], viewCase{"rotating", func(g *graph.Dynamic, step int) View {
		return inferenceViews[step%len(inferenceViews)].build(g, step)
	}})
	for _, kind := range Kinds() {
		for _, r := range rows {
			t.Run(fmt.Sprintf("%s/%s", kind, r.name), func(t *testing.T) {
				g := typedGraph(n, featDim)
				ref := New(kind, rand.New(rand.NewSource(3)), featDim, hidden)
				inf := New(kind, rand.New(rand.NewSource(3)), featDim, hidden)
				tp := autodiff.NewInferenceTape()
				for step := 0; step < steps; step++ {
					mutateTyped(g, step)
					ref.BeginStep(step)
					inf.BeginStep(step)
					want := ref.Forward(autodiff.NewTape(), r.build(g, step)).Value
					got := Infer(tp, inf, r.build(g, step))
					if !want.Equal(got) {
						t.Fatalf("step %d: inference-tape output differs from the recording tape's", step)
					}
					sameDumps(t, fmt.Sprintf("step %d", step), ref.DumpState(), inf.DumpState())
				}
			})
		}
	}
}

// Pooled inference tapes (shard workers) serve whichever model borrows them
// next, so a tape that ran one kind's forward runs every other kind's: for
// each ordered pair of kinds, a tape warmed on the first must still compute
// the second's values exactly.
func TestInferenceTapeSharedAcrossKinds(t *testing.T) {
	const n, featDim, hidden = 24, 3, 4
	g := typedGraph(n, featDim)
	for _, first := range Kinds() {
		for _, second := range Kinds() {
			tp := autodiff.NewInferenceTape()
			a := New(first, rand.New(rand.NewSource(1)), featDim, hidden)
			ref := New(second, rand.New(rand.NewSource(2)), featDim, hidden)
			inf := New(second, rand.New(rand.NewSource(2)), featDim, hidden)
			a.BeginStep(0)
			Infer(tp, a, FullView(g))
			Infer(tp, a, FullView(g))
			for step := 0; step < 2; step++ {
				ref.BeginStep(step)
				inf.BeginStep(step)
				want := ref.Forward(autodiff.NewTape(), FullView(g)).Value
				if got := Infer(tp, inf, FullView(g)); !want.Equal(got) {
					t.Fatalf("%s after %s, step %d: output differs", second, first, step)
				}
			}
		}
	}
}

// The diffusion convolution runs on the active block when some row has no edge
// and on today's ops when every row has one, so a stream that flips between the
// two hands one long-lived inference tape two op sequences in turn. Every step
// DCRNN's full and dirty-region forwards on the reused tape — lent to a TGCN in
// between, as a pooled shard-worker tape is — match fresh recording tapes bit
// for bit, output and committed state, and meter exactly the floats a fresh
// inference tape meters for the same forward on a twin model: what a forward
// writes in place and releases early does not depend on the tape's history.
func TestInferenceTapeAcrossActiveBlockFlips(t *testing.T) {
	const n, featDim, hidden, steps = 24, 3, 4, 8
	g := typedGraph(n, featDim)
	ref := NewDCRNN(rand.New(rand.NewSource(2)), featDim, hidden)
	inf := NewDCRNN(rand.New(rand.NewSource(2)), featDim, hidden)
	twin := NewDCRNN(rand.New(rand.NewSource(2)), featDim, hidden)
	other := NewTGCN(rand.New(rand.NewSource(1)), featDim, hidden)
	tp := autodiff.NewInferenceTape()
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	metered := func(tp *autodiff.Tape, m Model, v View) (*tensor.Matrix, int64) {
		tensor.ResetMeter()
		out := Infer(tp, m, v)
		return out, tensor.TotalFloats()
	}
	pending := -1
	for step := 0; step < steps; step++ {
		// Two steps in three add a node without an edge (|A| < n); the third
		// connects both, and every row is active again.
		if step%3 != 2 {
			pending = g.AddNode([]float64{1, float64(step), 0})
		} else {
			for v := pending - 1; v <= pending; v++ {
				g.AddEdge(v, step%n, 0, int64(200+step))
			}
		}
		if full := FullView(g); (full.RWFn().ActiveRows() == full.N) != (step%3 == 2) {
			t.Fatalf("step %d: %d of %d rows active", step, full.RWFn().ActiveRows(), full.N)
		}
		region := g.Ball([]int{pending, step % n}, 2)
		for _, build := range []func() View{
			func() View { return FullView(g) },
			func() View { sub := g.Induced(region, region[0]); return DirtyView(sub, LocalRows(sub.Nodes, region)) },
		} {
			// Twice each: the first pass follows other ops on the tape, the
			// second the same ones.
			for pass := 0; pass < 2; pass++ {
				ref.BeginStep(step)
				inf.BeginStep(step)
				twin.BeginStep(step)
				want := ref.Forward(autodiff.NewTape(), build()).Value
				_, fresh := metered(autodiff.NewInferenceTape(), twin, build())
				got, floats := metered(tp, inf, build())
				if !want.Equal(got) {
					t.Fatalf("step %d pass %d: inference-tape output differs from the recording tape's", step, pass)
				}
				if floats != fresh {
					t.Fatalf("step %d pass %d: the reused tape metered %d floats, a fresh one %d", step, pass, floats, fresh)
				}
				sameDumps(t, fmt.Sprintf("step %d pass %d", step, pass), ref.DumpState(), inf.DumpState())
			}
		}
		other.BeginStep(step)
		Infer(tp, other, FullView(g))
	}
}

// Shard workers each borrow their own inference tape; concurrent parts over a
// recurrent model must agree with the serial single-region forward (run under
// -race in CI).
func TestForwardShardsOnInferenceTapesMatchesSerial(t *testing.T) {
	g := islands(4, 10, 3)
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	ref := NewTGCN(rand.New(rand.NewSource(5)), 3, 4)
	par := NewTGCN(rand.New(rand.NewSource(5)), 3, 4)
	parts := make([][]int, 4)
	for v := 0; v < g.N(); v++ {
		parts[v/10] = append(parts[v/10], v)
	}
	for step := 0; step < 3; step++ {
		ref.BeginStep(step)
		par.BeginStep(step)
		sub := g.Induced(all, 0)
		want := ref.Forward(autodiff.NewTape(), DirtyView(sub, LocalRows(sub.Nodes, all))).Value
		store := NewEmbStore()
		store.SetFull(tensor.New(g.N(), 4), step)
		MergeShards(store, ForwardShards(g, par, parts, all))
		if !want.Equal(store.Publish().Dense()) {
			t.Fatalf("step %d: sharded inference-tape rows differ from the serial forward", step)
		}
		sameDumps(t, fmt.Sprintf("step %d", step), ref.DumpState(), par.DumpState())
	}
}

// mostlyIsolated is typedGraph's ring with chords on the first n/20 nodes and
// no edge anywhere else: the shape of a stream whose window has expired under
// most of its nodes, where the diffusion runs on the active block.
func mostlyIsolated(n, featDim int) *graph.Dynamic {
	g := graph.NewDynamic(featDim)
	for i := 0; i < n; i++ {
		f := make([]float64, featDim)
		f[0], f[1] = float64(i%3)-1, float64(i%5)*0.25
		g.AddNode(f)
	}
	for i, m := 0, n/20; i < m; i++ {
		g.AddUndirectedEdge(i, (i+1)%m, graph.EdgeType(i%3), int64(i))
		if i%4 == 0 {
			g.AddEdge(i, (i+m/2)%m, graph.EdgeType((i/4)%3), int64(i))
		}
	}
	return g
}

// Steady state, a full DCRNN or TGCN forward allocates about its output matrix
// and nothing else: every intermediate comes from and returns to the pool,
// node shells are reused, and the active block is the graph's, built once per
// topology version. The guard is the heap bytes allocated per forward, which a
// forward that materializes fresh temporaries again (80 of them, on a
// recording tape) or rebuilds the block per call exceeds many times over.
//
// A fresh tape's first forward also meters exactly the floats of a warm one
// plus the pages the recurrent state grows to n rows: from the first pass on,
// every row-local op whose operand dies there writes into that operand's
// buffer instead of drawing a new one.
func TestFullForwardSteadyStateAllocation(t *testing.T) {
	const n, featDim, hidden = 2000, 4, 16
	newDCRNN := func() Model { return NewDCRNN(rand.New(rand.NewSource(1)), featDim, hidden) }
	newTGCN := func() Model { return NewTGCN(rand.New(rand.NewSource(1)), featDim, hidden) }
	for _, c := range []struct {
		name  string
		model func() Model
		g     *graph.Dynamic
	}{
		{"connected", newDCRNN, typedGraph(n, featDim)},
		{"95% isolated", newDCRNN, mostlyIsolated(n, featDim)},
		{"TGCN connected", newTGCN, typedGraph(n, featDim)},
	} {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			m := c.model()
			tp := autodiff.NewInferenceTape()
			tensor.EnableMeter(true)
			defer tensor.EnableMeter(false)
			metered := func() int64 {
				tensor.ResetMeter()
				Infer(tp, m, FullView(g))
				return tensor.TotalFloats()
			}
			first := metered()
			for i := 0; i < 2; i++ { // warm the pool
				Infer(tp, m, FullView(g))
			}
			warm := metered()
			t.Logf("metered floats: first pass %d, warm %d", first, warm)
			grown := int64((n + tensor.PageRows - 1) / tensor.PageRows * tensor.PageRows * hidden)
			if first != warm+grown {
				t.Fatalf("the first forward meters %d floats, not a warm one's %d plus the %d of the state it grows", first, warm, grown)
			}
			// No collection inside the measured region: a GC cycle empties the
			// sync.Pool tier of the buffer pool, which is a property of the
			// collector's schedule, not of the forward.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fresh0 := tensor.ReadPoolStats().FreshBytes
			for i := 0; i < runs; i++ {
				Infer(tp, m, FullView(g))
			}
			runtime.ReadMemStats(&after)
			perForward := (after.TotalAlloc - before.TotalAlloc) / runs
			output := uint64(n * hidden * 8)
			if perForward > 3*output {
				t.Fatalf("full forward allocates %d bytes, more than 3x its %d-byte output", perForward, output)
			}
			if fresh := uint64(tensor.ReadPoolStats().FreshBytes-fresh0) / runs; fresh > 3*output {
				t.Fatalf("pool took %d fresh bytes per forward, more than 3x the %d-byte output", fresh, output)
			}
		})
	}
}
