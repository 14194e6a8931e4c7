package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"streamgnn/internal/tensor"
)

// refBackward and refRunBack are the backward pass the in-place rules
// replaced — every share added onto a zero-filled gradient per node, products
// and slices through a temporary — kept here as the reference the rules must
// match: bit for bit in every parameter gradient, up to the sign of a zero in
// every interior one. The reference reads every concatenation as the copy
// ConcatCols once made, taken here, and keeps one gradient for it.
func refBackward(t *Tape, root *Node) {
	for _, n := range t.nodes {
		if n.view() {
			n.Value.Data = n.concat().Dense().Data
		}
	}
	var order []*Node
	var visit func(n *Node)
	visit = func(n *Node) {
		if n.visited || n.op == opNone {
			return
		}
		n.visited = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	for _, n := range order {
		n.visited = false
	}
	ensureGrad(root)
	root.Grad.Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if n := order[i]; n.Grad != nil {
			refRunBack(n)
		}
	}
}

func refRunBack(out *Node) {
	switch out.op {
	case opMatMul:
		a, b := out.parents[0], out.parents[1]
		// Gradient temporaries are recycled immediately: they are not tape
		// nodes, so without this they would drain the buffer pool every step.
		if a.requiresGrad {
			ag := ensureGrad(a)
			tmp := tensor.MatMulTransB(out.Grad, b.Value)
			tensor.AddInPlace(ag, tmp)
			tensor.Recycle(tmp)
		}
		if b.requiresGrad {
			bg := ensureGrad(b)
			tmp := tensor.MatMulTransA(a.Value, out.Grad)
			tensor.AddInPlace(bg, tmp)
			tensor.Recycle(tmp)
		}
	case opSpMM:
		x := out.parents[0]
		if x.requiresGrad {
			xg := ensureGrad(x)
			tmp := tensor.SpMMTrans(out.auxCSR, out.Grad)
			tensor.AddInPlace(xg, tmp)
			tensor.Recycle(tmp)
		}
	case opAdd:
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			tensor.AddInPlace(ensureGrad(a), out.Grad)
		}
		if b.requiresGrad {
			tensor.AddInPlace(ensureGrad(b), out.Grad)
		}
	case opSub:
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			tensor.AddInPlace(ensureGrad(a), out.Grad)
		}
		if b.requiresGrad {
			tensor.AddScaledInPlace(ensureGrad(b), out.Grad, -1)
		}
	case opMul:
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			ag := ensureGrad(a)
			tmp := tensor.Mul(out.Grad, b.Value)
			tensor.AddInPlace(ag, tmp)
			tensor.Recycle(tmp)
		}
		if b.requiresGrad {
			bg := ensureGrad(b)
			tmp := tensor.Mul(out.Grad, a.Value)
			tensor.AddInPlace(bg, tmp)
			tensor.Recycle(tmp)
		}
	case opScale:
		a := out.parents[0]
		if a.requiresGrad {
			tensor.AddScaledInPlace(ensureGrad(a), out.Grad, out.auxF)
		}
	case opAddBias:
		m, b := out.parents[0], out.parents[1]
		if m.requiresGrad {
			tensor.AddInPlace(ensureGrad(m), out.Grad)
		}
		if b.requiresGrad {
			bg := ensureGrad(b)
			for r := 0; r < out.Grad.Rows; r++ {
				row := out.Grad.Row(r)
				for c, v := range row {
					bg.Data[c] += v
				}
			}
		}
	case opSigmoid:
		a := out.parents[0]
		if a.requiresGrad {
			ag := ensureGrad(a)
			for i, y := range out.Value.Data {
				ag.Data[i] += out.Grad.Data[i] * y * (1 - y)
			}
		}
	case opTanh:
		a := out.parents[0]
		if a.requiresGrad {
			ag := ensureGrad(a)
			for i, y := range out.Value.Data {
				ag.Data[i] += out.Grad.Data[i] * (1 - y*y)
			}
		}
	case opReLU:
		a := out.parents[0]
		if a.requiresGrad {
			ag := ensureGrad(a)
			for i := range out.Value.Data {
				if a.Value.Data[i] > 0 {
					ag.Data[i] += out.Grad.Data[i]
				}
			}
		}
	case opOneMinus:
		a := out.parents[0]
		if a.requiresGrad {
			tensor.AddScaledInPlace(ensureGrad(a), out.Grad, -1)
		}
	case opConcatCols:
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			ag := ensureGrad(a)
			tmp := tensor.SliceCols(out.Grad, 0, a.Value.Cols)
			tensor.AddInPlace(ag, tmp)
			tensor.Recycle(tmp)
		}
		if b.requiresGrad {
			bg := ensureGrad(b)
			tmp := tensor.SliceCols(out.Grad, a.Value.Cols, out.Grad.Cols)
			tensor.AddInPlace(bg, tmp)
			tensor.Recycle(tmp)
		}
	case opGatherRows:
		a := out.parents[0]
		if a.requiresGrad {
			ag := ensureGrad(a)
			for i, r := range out.auxInts {
				grow := out.Grad.Row(i)
				arow := ag.Row(r)
				for c, v := range grow {
					arow[c] += v
				}
			}
		}
	case opScatterRows:
		// Each output row came from exactly one place: row auxInts[i] from
		// src's row i, every other row from base's own.
		base, src := out.parents[0], out.parents[1]
		if base.requiresGrad {
			bg := ensureGrad(base)
			k := 0
			for r := 0; r < out.Grad.Rows; r++ {
				if k < len(out.auxInts) && out.auxInts[k] == r {
					k++
					continue
				}
				brow := bg.Row(r)
				for c, v := range out.Grad.Row(r) {
					brow[c] += v
				}
			}
		}
		if src.requiresGrad {
			sg := ensureGrad(src)
			for i, r := range out.auxInts {
				srow := sg.Row(i)
				for c, v := range out.Grad.Row(r) {
					srow[c] += v
				}
			}
		}
	case opHead:
		// The leading rows of a row-major matrix are the head of its data.
		a := out.parents[0]
		if a.requiresGrad {
			ag := ensureGrad(a)
			for i, v := range out.Grad.Data {
				ag.Data[i] += v
			}
		}
	case opMean:
		a := out.parents[0]
		if a.requiresGrad {
			ag := ensureGrad(a)
			g := out.Grad.Data[0] / float64(len(a.Value.Data))
			for i := range ag.Data {
				ag.Data[i] += g
			}
		}
	case opMSESeg:
		// aux is the residual pred−target; auxInts the segments' row ends.
		pred := out.parents[0]
		if pred.requiresGrad {
			pg := ensureGrad(pred)
			lo := 0
			for s, end := range out.auxInts {
				hi := end * out.aux.Cols
				g := out.Grad.Data[s] * 2 / float64(hi-lo)
				for i := lo; i < hi; i++ {
					pg.Data[i] += g * out.aux.Data[i]
				}
				lo = hi
			}
		}
	case opBCESeg:
		// aux is the 0/1 target matrix; auxInts the segments' row ends.
		logits := out.parents[0]
		if logits.requiresGrad {
			lg := ensureGrad(logits)
			lo := 0
			for s, end := range out.auxInts {
				hi := end * out.aux.Cols
				g := out.Grad.Data[s] / float64(hi-lo)
				for i := lo; i < hi; i++ {
					lg.Data[i] += g * (tensor.Sigmoid(logits.Value.Data[i]) - out.aux.Data[i])
				}
				lo = hi
			}
		}
	case opSum:
		a := out.parents[0]
		if a.requiresGrad {
			ag := ensureGrad(a)
			g := out.Grad.Data[0]
			for i := range ag.Data {
				ag.Data[i] += g
			}
		}
	case opMatMulAcc:
		// sum + x·w: Add's rule for sum, MatMul's for x and w. out.Grad
		// stands in for the product node's gradient of the unfused pair,
		// which is 0 + out.Grad: the two differ at most in the sign of a
		// zero, which no sum below can observe.
		sum, x, w := out.parents[0], out.parents[1], out.parents[2]
		if sum.requiresGrad {
			tensor.AddInPlace(ensureGrad(sum), out.Grad)
		}
		if x.requiresGrad {
			xg := ensureGrad(x)
			tmp := tensor.MatMulTransB(out.Grad, w.Value)
			tensor.AddInPlace(xg, tmp)
			tensor.Recycle(tmp)
		}
		if w.requiresGrad {
			wg := ensureGrad(w)
			tmp := tensor.MatMulTransA(x.Value, out.Grad)
			tensor.AddInPlace(wg, tmp)
			tensor.Recycle(tmp)
		}
	}
}

// progRows is the row count of every matrix a random program builds but the
// heads, gathered sources, biases and losses.
const progRows = 4

// program builds a random forward on a tape from one seed: the same seed
// builds the same ops over the same values on any tape, over parameter leaves
// of its own.
type program struct {
	rng    *rand.Rand
	tp     *Tape
	params []*Node
	nodes  []*Node       // operands to draw from: every node built, leaves included
	widths map[*Node]int // their widths, which an inference tape's released ones lose
	uses   map[*Node]int
	terms  []*Node // scalar loss terms
	// freeze makes every other parameter leaf need no gradient: the same
	// ops over the same values, with other operands needing gradients.
	freeze bool
}

// mat is a random matrix with the zeros the rules must carry: +0, −0, whole
// zero rows.
func (p *program) mat(rows, cols int) *tensor.Matrix {
	m := tensor.NewRandom(p.rng, rows, cols, 1)
	signed(p.rng, m)
	if rows > 1 && p.rng.Intn(3) == 0 {
		clear(m.Row(p.rng.Intn(rows)))
	}
	return m
}

// signed plants +0 and −0 in about a fifth of m's entries.
func signed(rng *rand.Rand, m *tensor.Matrix) {
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
}

func (p *program) param(rows, cols int) *Node {
	n := Param(p.mat(rows, cols))
	n.requiresGrad = !p.freeze || len(p.params)%2 == 0
	p.params = append(p.params, n)
	return n
}

// add makes n an operand for later ops.
func (p *program) add(n *Node) *Node {
	if p.widths == nil {
		p.widths = map[*Node]int{}
	}
	p.nodes = append(p.nodes, n)
	p.widths[n] = n.Value.Cols
	return n
}

// pick draws an operand read by fewer than four ops so far — of cols columns
// unless cols is 0 — or nil when there is none; it counts the read.
func (p *program) pick(cols int) *Node {
	var ok []*Node
	for _, n := range p.nodes {
		if p.uses[n] < 4 && (cols == 0 || p.widths[n] == cols) {
			ok = append(ok, n)
		}
	}
	if len(ok) == 0 {
		return nil
	}
	n := ok[p.rng.Intn(len(ok))]
	p.uses[n]++
	return n
}

// second draws b's partner for a binary op: b itself one time in four
// (aliased operands), else another operand of its width, else a new leaf.
func (p *program) second(a *Node) *Node {
	if p.rng.Intn(4) == 0 && p.uses[a] < 4 {
		p.uses[a]++
		return a
	}
	if b := p.pick(a.Value.Cols); b != nil {
		return b
	}
	return p.param(progRows, a.Value.Cols)
}

// weight is the right factor of a product with a k-column left one: a
// parameter mostly, an interior node (EvolveGCN's evolved weights) when the
// left factor has as many columns as there are rows.
func (p *program) weight(k, cols int) *Node {
	if k == progRows && p.rng.Intn(2) == 0 {
		if w := p.pick(cols); w != nil {
			return w
		}
	}
	return p.param(k, cols)
}

func (p *program) csr() *tensor.CSR {
	entries := make([][]tensor.CSREntry, progRows)
	for r := range entries {
		for c := 0; c < progRows; c++ {
			switch p.rng.Intn(4) {
			case 0:
				entries[r] = append(entries[r], tensor.CSREntry{Col: c, Val: p.rng.NormFloat64()})
			case 1:
				entries[r] = append(entries[r], tensor.CSREntry{Col: c, Val: math.Copysign(0, -1)})
			}
		}
	}
	entries[p.rng.Intn(progRows)] = nil
	return tensor.NewCSR(progRows, progRows, entries)
}

// upstream is a loss term over n with a random upstream gradient, zeros of
// both signs included.
func (p *program) upstream(n *Node) *Node {
	tp := p.tp
	switch p.rng.Intn(5) {
	case 0:
		return tp.Mean(n)
	case 1:
		ends := []int{n.Value.Rows / 2, n.Value.Rows}
		return tp.Sum(tp.MSESeg(n, p.mat(n.Value.Rows, n.Value.Cols), ends))
	case 2:
		target := tensor.New(n.Value.Rows, n.Value.Cols)
		for i := range target.Data {
			target.Data[i] = float64(p.rng.Intn(2))
		}
		return tp.Sum(tp.BCESeg(n, target, []int{n.Value.Rows}))
	}
	return tp.Sum(tp.Mul(n, Constant(p.mat(n.Value.Rows, n.Value.Cols))))
}

// viewCase records, over operand a, one of the shapes of use concatenation
// views have in the models and around them, passing each value later ops may
// read to rec: DCRNN's [x|h] of a constant and a tracked part read by two
// products and an SpMM; the link heads' nested [u|v|u∘v], whose parts Mul
// reads beside; TGCN's head of [x|h] beside a head of x, concatenated again;
// a part read last after the concatenation's last read, by an op that may
// write over it unless a later weight rule reads the concatenation; and a
// concatenation read by one of the ops that read parts (partRead). No view
// reaches rec: only those ops can read one (TestViewReadersPanic).
func (p *program) viewCase(a *Node, rec func(*Node) *Node) {
	tp := p.tp
	cols := a.Value.Cols
	switch p.rng.Intn(5) {
	case 0:
		v := tp.ConcatCols(p.add(Constant(p.mat(progRows, 2))), a)
		w := v.Value.Cols
		rec(tp.SpMM(p.csr(), v))
		rec(tp.MatMulAcc(tp.MatMul(v, p.param(w, cols)), v, p.param(w, cols)))
	case 1:
		b := p.second(a)
		rec(tp.MatMul(tp.ConcatCols(tp.ConcatCols(a, b), tp.Mul(a, b)), p.param(3*cols, 1+p.rng.Intn(3))))
	case 2:
		r := 1 + p.rng.Intn(progRows-1)
		z := tp.MatMul(tp.Head(tp.ConcatCols(a, p.second(a)), r), p.param(2*cols, cols))
		p.terms = append(p.terms, p.upstream(tp.MatMul(tp.ConcatCols(tp.Head(a, r), z), p.param(2*cols, 2))))
	case 3:
		v := tp.ConcatCols(a, p.second(a))
		w := Constant(p.mat(2*cols, 2))
		if p.rng.Intn(2) == 0 {
			w = p.param(2*cols, 2)
		}
		rec(tp.MatMul(v, w))
		if p.uses[a] < 4 {
			p.uses[a] = 4
			rec(tp.Sigmoid(a))
		}
	case 4:
		rec(p.partRead(tp.ConcatCols(a, p.second(a))))
	}
}

// partRead reads the view v of progRows rows by one of the ops that read a
// view's parts and returns what it computes, no view: a product's left
// factor, over an interior weight at times; MatMulAcc's x, beside a sum from
// the operands; SpMM; a gather of rows, some twice, some never; or a
// concatenation of v, read in turn.
func (p *program) partRead(v *Node) *Node {
	tp, cols := p.tp, v.Value.Cols
	switch p.rng.Intn(5) {
	case 0:
		return tp.MatMul(v, p.weight(cols, 1+p.rng.Intn(3)))
	case 1:
		sum := p.pick(0)
		if sum == nil {
			sum = p.param(progRows, 2)
		}
		return tp.MatMulAcc(sum, v, p.weight(cols, sum.Value.Cols))
	case 2:
		return tp.SpMM(p.csr(), v)
	case 3:
		rows := make([]int, progRows)
		for i := range rows {
			rows[i] = p.rng.Intn(progRows)
		}
		return tp.GatherRows(v, rows)
	}
	return p.partRead(tp.ConcatCols(v, p.param(progRows, 1)))
}

// randomProgram records ops random programs are made of — every op kind,
// aliased operands, nodes read by one to four ops, products over interior
// weights, concatenations in their shapes of use (viewCase) — and returns
// the scalar sum of a loss term over every node no op read, none a view.
func randomProgram(seed int64, tp *Tape) (*Node, *program) {
	p := &program{rng: rand.New(rand.NewSource(seed)), tp: tp, uses: map[*Node]int{}}
	for c := 1; c <= 3; c++ {
		p.add(p.param(progRows, c))
	}
	p.add(Constant(p.mat(progRows, 2)))
	p.add(tp.OwnedConstant(p.mat(progRows, 3)))
	for ops := 12 + p.rng.Intn(20); ops > 0; ops-- {
		a := p.pick(0)
		if a == nil {
			break
		}
		cols := p.widths[a]
		switch p.rng.Intn(16) {
		case 0:
			p.add(tp.Sigmoid(a))
		case 1:
			p.add(tp.Tanh(a))
		case 2:
			p.add(tp.ReLU(a))
		case 3:
			p.add(tp.OneMinus(a))
		case 4:
			p.add(tp.Scale(a, []float64{2, -0.5, 0, -1}[p.rng.Intn(4)]))
		case 5:
			p.add(tp.Add(a, p.second(a)))
		case 6:
			p.add(tp.Sub(a, p.second(a)))
		case 7:
			p.add(tp.Mul(a, p.second(a)))
		case 8:
			p.add(tp.AddBias(a, p.param(1, cols)))
		case 9:
			if cols == progRows && p.rng.Intn(3) == 0 {
				p.uses[a]++
				p.add(tp.MatMul(a, a))
				break
			}
			p.add(tp.MatMul(a, p.weight(cols, 1+p.rng.Intn(4))))
		case 10:
			// sum + x·w, with x, or w, the sum itself at times.
			var x *Node
			if p.rng.Intn(3) == 0 && p.uses[a] < 4 {
				x = a
				p.uses[a]++
			} else if x = p.pick(0); x == nil {
				x = p.param(progRows, 2)
			}
			p.add(tp.MatMulAcc(a, x, p.weight(x.Value.Cols, cols)))
		case 11:
			p.add(tp.SpMM(p.csr(), a))
		case 12:
			if cols > 3 {
				p.add(p.partRead(tp.ConcatCols(a, p.param(progRows, 1))))
				break
			}
			p.add(p.partRead(tp.ConcatCols(a, p.second(a))))
		case 13:
			rows := make([]int, progRows)
			for i := range rows {
				rows[i] = p.rng.Intn(progRows)
			}
			p.add(tp.GatherRows(a, rows))
		case 14:
			// A scatter of rows gathered elsewhere, and a head: the two ops
			// whose outputs have other shapes than their operand's.
			src := tp.GatherRows(p.second(a), []int{p.rng.Intn(progRows), p.rng.Intn(progRows)})
			p.add(tp.ScatterRows(a, src, []int{0, 1 + p.rng.Intn(progRows-1)}))
			p.terms = append(p.terms, p.upstream(tp.Head(a, 1+p.rng.Intn(progRows-1))))
		case 15:
			p.viewCase(a, p.add)
		}
	}
	for _, n := range p.nodes {
		if p.uses[n] == 0 {
			p.terms = append(p.terms, p.upstream(n))
		}
	}
	root := p.terms[0]
	for _, term := range p.terms[1:] {
		root = tp.Add(root, term)
	}
	return root, p
}

// poisonPool leaves NaN in the pooled buffers of every size a program draws,
// so a rule that adds onto a buffer it did not write shows.
func poisonPool() {
	var ms []*tensor.Matrix
	for c := 0; c <= 7; c++ {
		for k := 0; k < 8; k++ {
			m := tensor.NewUninit(1, 1<<c)
			m.Fill(math.NaN())
			ms = append(ms, m)
		}
	}
	for _, m := range ms {
		tensor.Recycle(m)
	}
}

// equalUpToZeroSign reports whether a and b hold the same values, where +0
// and −0 count as one.
func equalUpToZeroSign(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) && !(v == 0 && b.Data[i] == 0) {
			return false
		}
	}
	return true
}

// The in-place backward rules against the accumulate-onto-zeros reference,
// over random programs of every op kind with ±0 in values and upstream
// gradients, aliased operands, nodes read by one to four ops and interior
// product weights, with poisoned pool buffers: parameter gradients are
// bit-equal, interior gradients equal up to the sign of a zero, and no two
// nodes own one buffer. Every op that reads views reads one.
func TestBackwardRulesMatchAccumulatingReference(t *testing.T) {
	withPooling(t)
	seen, readsView := map[opKind]bool{}, map[opKind]bool{}
	handed := 0
	for seed := int64(1); seed <= 300; seed++ {
		tpR, tpN := NewTape(), NewTape()
		rootR, pR := randomProgram(seed, tpR)
		poisonPool()
		refBackward(tpR, rootR)
		rootN, pN := randomProgram(seed, tpN)
		poisonPool()
		tpN.Backward(rootN)
		for _, n := range tpN.nodes {
			seen[n.op] = true
			for _, q := range n.parents {
				readsView[n.op] = readsView[n.op] || q.view()
			}
		}

		if !bitEqual(rootR.Value, rootN.Value) {
			t.Fatalf("seed %d: the two programs compute different losses", seed)
		}
		for i, want := range pR.params {
			wantG, gotG := want.Grad, pN.params[i].Grad
			if (wantG == nil) != (gotG == nil) || wantG != nil && !bitEqual(wantG, gotG) {
				t.Fatalf("seed %d: parameter %d gradient %v, reference %v", seed, i, gotG, wantG)
			}
		}
		for _, n := range pN.nodes {
			if !n.requiresGrad && n.Grad != nil {
				t.Fatalf("seed %d: a value that needs no gradient has one: %v", seed, n.Grad)
			}
		}
		owner := map[*float64]int{}
		for i, n := range tpN.nodes {
			ref := tpR.nodes[i].Grad
			switch {
			case n.Grad == nil && ref != nil:
				handed++ // its rule handed the buffer down to an operand
			case n.Grad != nil && (ref == nil || !equalUpToZeroSign(n.Grad, ref)):
				t.Fatalf("seed %d: node %d (op %d) gradient %v, reference %v", seed, i, n.op, n.Grad, ref)
			case n.Grad != nil && len(n.Grad.Data) > 0:
				if j, ok := owner[&n.Grad.Data[0]]; ok {
					t.Fatalf("seed %d: nodes %d and %d own one gradient buffer", seed, j, i)
				}
				owner[&n.Grad.Data[0]] = i
			}
		}
		tpR.Release()
		tpN.Release()
	}
	for k := opMatMul; k <= opHead; k++ {
		if !seen[k] {
			t.Fatalf("no program recorded op %d", k)
		}
	}
	for _, k := range []opKind{opMatMul, opMatMulAcc, opSpMM, opGatherRows, opHead, opConcatCols} {
		if !readsView[k] {
			t.Fatalf("no program read a view with op %d", k)
		}
	}
	if handed == 0 {
		t.Fatal("no rule handed its gradient buffer down")
	}
}
