package autodiff

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamgnn/internal/tensor"
)

// planCase is one rule of the planner: a program recorded by build, read on
// rows of its output, and the rows Run must give the nodes it names (nil:
// every row), and, by name, the op kind of the restriction a node's first
// input must be read through.
type planCase struct {
	name     string
	rows     []int
	build    func(tp *Tape, in planInputs) (out *Node, named map[string]*Node)
	want     map[string][]int
	restrict map[string]opKind
}

// planInputs are a case's leaves: two 12×3 inputs, a 3×3 and a 6×2 weight, a
// 1×3 bias, and a 12-row adjacency whose row r names r and r+1, except row 5,
// which names nothing, and rows 9 and 10, which name 5 alone.
type planInputs struct {
	x, y, w, u, b *Node
	adj           *tensor.CSR
}

func newPlanInputs(rng *rand.Rand) planInputs {
	entries := make([][]tensor.CSREntry, 12)
	for r := range entries {
		switch r {
		case 5:
		case 9, 10:
			entries[r] = []tensor.CSREntry{{Col: 5, Val: 0.5}}
		default:
			entries[r] = []tensor.CSREntry{{Col: r, Val: 0.5}, {Col: (r + 1) % 12, Val: 0.25}}
		}
	}
	return planInputs{
		x:   Param(tensor.NewRandom(rng, 12, 3, 1)),
		y:   Param(tensor.NewRandom(rng, 12, 3, 1)),
		w:   Param(tensor.NewRandom(rng, 3, 3, 1)),
		u:   Param(tensor.NewRandom(rng, 6, 2, 1)),
		b:   Param(tensor.NewRandom(rng, 1, 3, 1)),
		adj: tensor.NewCSR(12, 12, entries),
	}
}

// The planner's rules, one case each: a program is recorded on a planning
// tape and run for some rows of its output, which a loss then reads. Every
// named node holds exactly the rows the rule gives it, a reader of fewer rows
// reads the restriction named, and the rows read and every parameter
// gradient of the loss are Float64bits-equal to the same program's computed
// on every row.
func TestPlannerRows(t *testing.T) {
	named := func(kv ...any) map[string]*Node {
		m := map[string]*Node{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(*Node)
		}
		return m
	}
	cases := []planCase{{
		name: "row-local ops and ConcatCols pass rows through",
		rows: []int{1, 7},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a, b := tp.Tanh(in.x), tp.Sigmoid(in.y)
			c := tp.ConcatCols(a, b)
			return tp.MatMul(c, in.u), named("a", a, "b", b, "c", c)
		},
		want: map[string][]int{"a": {1, 7}, "b": {1, 7}, "c": {1, 7}},
	}, {
		name: "a product's left factor passes rows, its right is read whole",
		rows: []int{4},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a, w := tp.ReLU(in.x), tp.Tanh(in.w)
			return tp.MatMulAcc(tp.Mul(a, in.y), a, w), named("a", a, "w", w)
		},
		want: map[string][]int{"a": {4}, "w": nil},
	}, {
		name: "SpMM reads the columns its rows name",
		rows: []int{0, 2},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a := tp.Tanh(in.x)
			return tp.AddBias(tp.SpMM(in.adj, a), in.b), named("a", a)
		},
		want: map[string][]int{"a": {0, 1, 2, 3}},
	}, {
		name: "an SpMM of an SpMM leaves out the +0 rows it names",
		rows: []int{8, 9},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			hop1 := tp.SpMM(in.adj, in.x)
			return tp.SpMM(in.adj, hop1), named("hop1", hop1)
		},
		// Row 9 names row 5 of hop1 alone, which names nothing: +0.
		want: map[string][]int{"hop1": {8, 9}},
	}, {
		name: "GatherRows maps rows through its indices",
		rows: []int{1, 3},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a := tp.Tanh(in.x)
			return tp.GatherRows(a, []int{5, 2, 5, 7}), named("a", a)
		},
		want: map[string][]int{"a": {2, 7}},
	}, {
		name: "rows asked out of order and twice are held once, ascending",
		rows: nil,
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a := tp.Tanh(in.x)
			return tp.GatherRows(a, []int{2, 0, 2}), named("a", a)
		},
		want: map[string][]int{"a": {0, 2}},
	}, {
		name: "ScatterRows maps rows through its indices",
		rows: []int{0, 4},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			base, src := tp.Tanh(in.x), tp.Sigmoid(tp.GatherRows(in.y, []int{0, 1, 2}))
			return tp.ScatterRows(base, src, []int{1, 4, 6}), named("base", base, "src", src)
		},
		want: map[string][]int{"base": {0, 4}, "src": {1}},
	}, {
		name: "a loss, Mean and Sum read every row",
		rows: nil,
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a, b := tp.Tanh(in.x), tp.Sigmoid(in.y)
			loss := tp.MSESeg(a, tensor.New(12, 3), []int{5, 12})
			return tp.Add(tp.Sum(loss), tp.Mean(b)), named("a", a, "b", b)
		},
		want: map[string][]int{"a": nil, "b": nil},
	}, {
		name: "a leading block of an input's rows is read as a Head",
		rows: []int{0, 1, 2},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a := tp.Tanh(in.x)
			b := tp.Scale(a, 2)
			return tp.Add(b, tp.GatherRows(a, []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})), named("a", a, "b", b)
		},
		want:     map[string][]int{"a": {0, 1, 2, 3}, "b": {0, 1, 2}},
		restrict: map[string]opKind{"b": opHead},
	}, {
		name: "other rows of an input's are gathered",
		rows: []int{3, 9},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a := tp.Tanh(in.x)
			b := tp.Scale(a, 3)
			return tp.Add(b, tp.GatherRows(a, []int{0, 1, 2, 2, 4, 5, 6, 7, 8, 1, 10, 11})), named("a", a, "b", b)
		},
		want:     map[string][]int{"a": {1, 2, 3, 9}, "b": {3, 9}},
		restrict: map[string]opKind{"b": opGatherRows},
	}, {
		name: "rows covering most of a node run on every row",
		rows: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a := tp.Tanh(in.x)
			return tp.Sigmoid(a), named("a", a)
		},
		want: map[string][]int{"a": nil},
	}, {
		name: "a leading block keeps its rows however many",
		rows: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		build: func(tp *Tape, in planInputs) (*Node, map[string]*Node) {
			a := tp.Tanh(in.x)
			return tp.Sigmoid(a), named("a", a)
		},
		want: map[string][]int{"a": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	}}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(planned bool) (*tensor.Matrix, []*tensor.Matrix, map[string]*Node) {
				in := newPlanInputs(rand.New(rand.NewSource(int64(i))))
				tp := NewTape()
				if planned {
					tp.Plan()
				}
				y, nodes := c.build(tp, in)
				if planned {
					y = tp.Run(y, c.rows)
				}
				if c.rows != nil {
					y = tp.GatherRows(y, c.rows)
				}
				tp.Backward(tp.Sum(tp.Tanh(y)))
				var grads []*tensor.Matrix
				for _, p := range []*Node{in.x, in.y, in.w, in.u, in.b} {
					grads = append(grads, p.Grad)
				}
				return y.Value.Clone(), grads, nodes
			}
			want, wantGrads, _ := run(false)
			got, gotGrads, nodes := run(true)
			if !bitEqual(want, got) {
				t.Fatalf("planned rows %v, every row's %v", got, want)
			}
			for k := range wantGrads {
				if (wantGrads[k] == nil) != (gotGrads[k] == nil) || wantGrads[k] != nil && !bitEqual(wantGrads[k], gotGrads[k]) {
					t.Fatalf("parameter %d: planned gradient %v, every row's %v", k, gotGrads[k], wantGrads[k])
				}
			}
			for name, rows := range c.want {
				if n := nodes[name]; !slices.Equal(n.rows, rows) || (n.rows == nil) != (rows == nil) {
					t.Fatalf("%s holds rows %v, want %v", name, n.rows, rows)
				}
			}
			for name, op := range c.restrict {
				if p := nodes[name].parents[0]; p.src == nil || p.op != op {
					t.Fatalf("%s reads its input as %s, want a restriction of op %d", name, fmt.Sprint(p.op), op)
				}
			}
		})
	}
}

// A pass makes each block once: a request for the same matrix, rows and
// columns gets the block made before, any other — every row or none, every
// column or none among them — a block of its own, and after Release the
// request is made anew.
func TestBlockOncePerRequest(t *testing.T) {
	adj := newPlanInputs(rand.New(rand.NewSource(1))).adj
	tp := NewTape()
	rows, cols := []int{3, 7, 9}, []int{2, 3, 4, 5, 7, 8, 9, 10}
	first := tp.block(adj, rows, cols)
	if again := tp.block(adj, slices.Clone(rows), slices.Clone(cols)); again != first {
		t.Fatal("an equal request made a second block")
	}
	others := [][2][]int{{rows, nil}, {rows, {}}, {{}, cols}, {{0, 1}, cols}, {{}, {}}, {{}, nil}}
	made := []*tensor.CSR{first}
	for _, o := range others {
		b := tp.block(adj, o[0], o[1])
		if slices.Contains(made, b) {
			t.Fatalf("rows %v (nil %v) and columns %v (nil %v) got a block made for another request", o[0], o[0] == nil, o[1], o[1] == nil)
		}
		made = append(made, b)
	}
	tp.Release()
	if tp.block(adj, rows, cols) == first {
		t.Fatal("a block outlived Release")
	}
}
