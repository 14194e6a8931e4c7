package autodiff

import (
	"math"
	"math/rand"
	"slices"
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
	for _, n := range slices.Concat(t.nodes, t.restrictions) {
		if n.view() {
			n.Value.Data = dense(n.concat()).Data
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
	refGrad(root)
	root.Grad.Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if n := order[i]; n.Grad != nil {
			refRunBack(n)
		}
	}
}

// refGrad is the reference's gradient buffer of n, zero-filled on first use.
func refGrad(n *Node) *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = tensor.New(n.Value.Rows, n.Value.Cols)
	}
	n.zeroed = false
	return n.Grad
}

// refTransA is the reference's temporary aᵀ·b, summed from +0.
func refTransA(a, b *tensor.Matrix) *tensor.Matrix {
	m := tensor.New(a.Cols, b.Cols)
	tensor.MatMulTransAConcatInto(m, one(a), b)
	return m
}

func refRunBack(out *Node) {
	switch out.op {
	case opMatMul:
		a, b := out.parents[0], out.parents[1]
		// Gradient temporaries are recycled immediately: they are not tape
		// nodes, so without this they would drain the buffer pool every step.
		if a.requiresGrad {
			ag := refGrad(a)
			tmp := tensor.MatMulTransBTo(nil, out.Grad, b.Value)
			tensor.AddInPlace(ag, tmp)
			tensor.Recycle(tmp)
		}
		if b.requiresGrad {
			bg := refGrad(b)
			tmp := refTransA(a.Value, out.Grad)
			tensor.AddInPlace(bg, tmp)
			tensor.Recycle(tmp)
		}
	case opSpMM:
		x := out.parents[0]
		if x.requiresGrad {
			xg := refGrad(x)
			tmp := tensor.SpMMTransColsInto(tensor.New(out.auxCSR.NCols, out.Grad.Cols), out.auxCSR, out.Grad, 0, out.Grad.Cols)
			tensor.AddInPlace(xg, tmp)
			tensor.Recycle(tmp)
		}
	case opAdd:
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			tensor.AddInPlace(refGrad(a), out.Grad)
		}
		if b.requiresGrad {
			tensor.AddInPlace(refGrad(b), out.Grad)
		}
	case opMul:
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			ag := refGrad(a)
			tmp := tensor.MulTo(nil, out.Grad, b.Value)
			tensor.AddInPlace(ag, tmp)
			tensor.Recycle(tmp)
		}
		if b.requiresGrad {
			bg := refGrad(b)
			tmp := tensor.MulTo(nil, out.Grad, a.Value)
			tensor.AddInPlace(bg, tmp)
			tensor.Recycle(tmp)
		}
	case opScale:
		a := out.parents[0]
		if a.requiresGrad {
			tensor.AddScaledInPlace(refGrad(a), out.Grad, out.auxF)
		}
	case opAddBias:
		m, b := out.parents[0], out.parents[1]
		if m.requiresGrad {
			tensor.AddInPlace(refGrad(m), out.Grad)
		}
		if b.requiresGrad {
			bg := refGrad(b)
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
			ag := refGrad(a)
			for i, y := range out.Value.Data {
				ag.Data[i] += out.Grad.Data[i] * y * (1 - y)
			}
		}
	case opTanh:
		a := out.parents[0]
		if a.requiresGrad {
			ag := refGrad(a)
			for i, y := range out.Value.Data {
				ag.Data[i] += out.Grad.Data[i] * (1 - y*y)
			}
		}
	case opReLU:
		a := out.parents[0]
		if a.requiresGrad {
			ag := refGrad(a)
			for i, y := range out.Value.Data {
				if y > 0 { // exactly where a is above 0
					ag.Data[i] += out.Grad.Data[i]
				}
			}
		}
	case opOneMinus:
		a := out.parents[0]
		if a.requiresGrad {
			tensor.AddScaledInPlace(refGrad(a), out.Grad, -1)
		}
	case opConcatCols:
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			ag := refGrad(a)
			tmp := sliceCols(out.Grad, 0, a.Value.Cols)
			tensor.AddInPlace(ag, tmp)
			tensor.Recycle(tmp)
		}
		if b.requiresGrad {
			bg := refGrad(b)
			tmp := sliceCols(out.Grad, a.Value.Cols, out.Grad.Cols)
			tensor.AddInPlace(bg, tmp)
			tensor.Recycle(tmp)
		}
	case opGatherRows:
		a := out.parents[0]
		if a.requiresGrad {
			ag := refGrad(a)
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
			bg := refGrad(base)
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
			sg := refGrad(src)
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
			ag := refGrad(a)
			for i, v := range out.Grad.Data {
				ag.Data[i] += v
			}
		}
	case opMean:
		a := out.parents[0]
		if a.requiresGrad {
			ag := refGrad(a)
			g := out.Grad.Data[0] / float64(a.Value.Rows*a.Value.Cols)
			for i := range ag.Data {
				ag.Data[i] += g
			}
		}
	case opMSESeg:
		// aux is the residual pred−target; auxInts the segments' row ends.
		pred := out.parents[0]
		if pred.requiresGrad {
			pg := refGrad(pred)
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
			lg := refGrad(logits)
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
			ag := refGrad(a)
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
			tensor.AddInPlace(refGrad(sum), out.Grad)
		}
		if x.requiresGrad {
			xg := refGrad(x)
			tmp := tensor.MatMulTransBTo(nil, out.Grad, w.Value)
			tensor.AddInPlace(xg, tmp)
			tensor.Recycle(tmp)
		}
		if w.requiresGrad {
			wg := refGrad(w)
			tmp := refTransA(x.Value, out.Grad)
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
// of its own, or over prior's: those of an earlier program of the seed.
type program struct {
	rng    *rand.Rand
	tp     *Tape
	params []*Node
	prior  []*Node
	nodes  []*Node // operands to draw from: every node built, leaves included
	uses   map[*Node]int
	terms  []*Node // scalar loss terms
	// freeze makes every other parameter leaf need no gradient, and still
	// every one: the same ops over the same values, with other operands
	// needing gradients, or none.
	freeze, still bool
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
	if k := len(p.params); k < len(p.prior) {
		n = p.prior[k] // drawn by the same seed: the same shape and values
	}
	n.requiresGrad = !p.still && (!p.freeze || len(p.params)%2 == 0)
	p.params = append(p.params, n)
	return n
}

// add makes n an operand for later ops.
func (p *program) add(n *Node) *Node {
	p.nodes = append(p.nodes, n)
	return n
}

// pick draws an operand read by fewer than four ops so far — of cols columns
// unless cols is 0 — or nil when there is none; it counts the read.
func (p *program) pick(cols int) *Node {
	var ok []*Node
	for _, n := range p.nodes {
		if p.uses[n] < 4 && (cols == 0 || n.lcols == cols) {
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
	if b := p.pick(a.lcols); b != nil {
		return b
	}
	return p.param(progRows, a.lcols)
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

// head reads n's leading r rows: a restriction made at once (Head) on a tape
// that computes at once, and under Plan a gather of those rows, which has
// Run compute n, and the row-local ops under it, on them alone.
func (p *program) head(n *Node, r int) *Node {
	if !p.tp.planning {
		return p.tp.Head(n, r)
	}
	lead := make([]int, r)
	for i := range lead {
		lead[i] = i
	}
	return p.tp.GatherRows(n, lead)
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
	tp, rows, cols := p.tp, n.lrows, n.lcols
	switch p.rng.Intn(5) {
	case 0:
		return tp.Mean(n)
	case 1:
		ends := []int{rows / 2, rows}
		return tp.Sum(tp.MSESeg(n, p.mat(rows, cols), ends))
	case 2:
		target := tensor.New(rows, cols)
		for i := range target.Data {
			target.Data[i] = float64(p.rng.Intn(2))
		}
		return tp.Sum(tp.BCESeg(n, target, []int{rows}))
	}
	return tp.Sum(tp.Mul(n, Constant(p.mat(rows, cols))))
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
	cols := a.lcols
	switch p.rng.Intn(5) {
	case 0:
		v := tp.ConcatCols(p.add(Constant(p.mat(progRows, 2))), a)
		w := v.lcols
		rec(tp.SpMM(p.csr(), v))
		rec(tp.MatMulAcc(tp.MatMul(v, p.param(w, cols)), v, p.param(w, cols)))
	case 1:
		b := p.second(a)
		rec(tp.MatMul(tp.ConcatCols(tp.ConcatCols(a, b), tp.Mul(a, b)), p.param(3*cols, 1+p.rng.Intn(3))))
	case 2:
		// Made at once, the heads are restrictions (Head); under Plan a head
		// of the last product has Run compute the ops under it on those rows,
		// over restrictions of their operands.
		r := 1 + p.rng.Intn(progRows-1)
		v := tp.ConcatCols(a, p.second(a))
		if !tp.planning {
			z := tp.MatMul(tp.Head(v, r), p.param(2*cols, cols))
			p.terms = append(p.terms, p.upstream(tp.MatMul(tp.ConcatCols(tp.Head(a, r), z), p.param(2*cols, 2))))
			break
		}
		z := tp.MatMul(v, p.param(2*cols, cols))
		p.terms = append(p.terms, p.upstream(p.head(tp.MatMul(tp.ConcatCols(a, z), p.param(2*cols, 2)), r)))
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
	tp, cols := p.tp, v.lcols
	switch p.rng.Intn(5) {
	case 0:
		return tp.MatMul(v, p.weight(cols, 1+p.rng.Intn(3)))
	case 1:
		sum := p.pick(0)
		if sum == nil {
			sum = p.param(progRows, 2)
		}
		return tp.MatMulAcc(sum, v, p.weight(cols, sum.lcols))
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
func randomProgram(seed int64, tp *Tape) (*Node, *program) { return randomProgramOver(seed, tp, nil) }

// randomProgramOver is randomProgram over the parameter leaves of an earlier
// program of the seed, nil for leaves of its own.
func randomProgramOver(seed int64, tp *Tape, prior []*Node) (*Node, *program) {
	p := &program{rng: rand.New(rand.NewSource(seed)), tp: tp, uses: map[*Node]int{}, prior: prior}
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
		cols := a.lcols
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
		case 5, 6:
			p.add(tp.Add(a, p.second(a)))
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
			p.add(tp.MatMulAcc(a, x, p.weight(x.lcols, cols)))
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
			p.terms = append(p.terms, p.upstream(p.head(a, 1+p.rng.Intn(progRows-1))))
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
			for i := range m.Data {
				m.Data[i] = math.NaN()
			}
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
// bit-equal, interior gradients equal up to the sign of a zero — kept by the
// same program with every node pinned —, and no two nodes own one buffer,
// value or gradient. Every op that reads views reads one. With no node
// pinned the backward keeps no interior gradient and no value a rule read,
// and draws no more floats from the pool than the pinned one, fewer where a
// buffer it gave back served a later draw.
func TestBackwardRulesMatchAccumulatingReference(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	seen, readsView := map[opKind]bool{}, map[opKind]bool{}
	handed, fewer := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		tpR, tpP, tpN := NewTape(), NewTape(), NewTape()
		rootR, pR := randomProgram(seed, tpR)
		poisonPool()
		refBackward(tpR, rootR)
		rootP, pP := randomProgram(seed, tpP)
		for _, n := range tpP.nodes {
			tpP.Pin(n)
		}
		poisonPool()
		tensor.ResetMeter()
		tpP.Backward(rootP)
		pinned := tensor.TotalFloats()
		rootN, pN := randomProgram(seed, tpN)
		read := map[*Node]bool{}
		for _, n := range tpN.nodes {
			read[n] = n.reads > 0 && n.op != opNone
		}
		poisonPool()
		tensor.ResetMeter()
		tpN.Backward(rootN)
		switch plain := tensor.TotalFloats(); {
		case plain > pinned:
			t.Fatalf("seed %d: the backward meters %d floats, %d with every node pinned", seed, plain, pinned)
		case plain < pinned:
			fewer++
		}
		for _, n := range slices.Concat(tpN.nodes, tpN.restrictions) {
			seen[n.op] = true
			for _, q := range n.parents {
				readsView[n.op] = readsView[n.op] || q.view()
			}
			if n.Grad != nil || slices.ContainsFunc(n.grads, func(g *tensor.Matrix) bool { return g != nil }) {
				t.Fatalf("seed %d: node %d (op %d) kept its gradient past Backward, pinned by nobody", seed, n.seq, n.op)
			}
			if n.reads != 0 || read[n] && n.Value.Data != nil {
				t.Fatalf("seed %d: node %d (op %d) kept its value past its last backward reader (%d reads left)", seed, n.seq, n.op, n.reads)
			}
		}

		if !bitEqual(rootR.Value, rootN.Value) || !bitEqual(rootR.Value, rootP.Value) {
			t.Fatalf("seed %d: the programs compute different losses", seed)
		}
		for i, want := range pR.params {
			wantG := want.Grad
			for _, gotG := range []*tensor.Matrix{pP.params[i].Grad, pN.params[i].Grad} {
				if (wantG == nil) != (gotG == nil) || wantG != nil && !bitEqual(wantG, gotG) {
					t.Fatalf("seed %d: parameter %d gradient %v, reference %v", seed, i, gotG, wantG)
				}
			}
		}
		for _, n := range pP.nodes {
			if !n.requiresGrad && n.Grad != nil {
				t.Fatalf("seed %d: a value that needs no gradient has one: %v", seed, n.Grad)
			}
		}
		for _, tp := range []*Tape{tpP, tpN} {
			owner := map[*float64]int{}
			own := func(i int, m *tensor.Matrix) {
				if m != nil && len(m.Data) > 0 {
					if j, ok := owner[&m.Data[0]]; ok {
						t.Fatalf("seed %d: nodes %d and %d own one buffer", seed, j, i)
					}
					owner[&m.Data[0]] = i
				}
			}
			for i, n := range tp.nodes {
				own(i, n.Grad)
				own(i, n.Value)
			}
		}
		for i, n := range tpP.nodes {
			ref := tpR.nodes[i].Grad
			switch {
			case n.Grad == nil && ref != nil:
				handed++ // its rule handed the buffer down to an operand
			case n.Grad != nil && (ref == nil || !equalUpToZeroSign(n.Grad, ref)):
				t.Fatalf("seed %d: node %d (op %d) gradient %v, reference %v", seed, i, n.op, n.Grad, ref)
			}
		}
		tpR.Release()
		tpP.Release()
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
	if handed == 0 || fewer == 0 {
		t.Fatalf("%d gradient buffers handed down, %d programs drew fewer floats unpinned: the programs miss a case", handed, fewer)
	}
}

// A recording tape gives each buffer back to its own pass once nothing reads
// it, and the pass draws from those first. In a GCN convolution over
// x = tanh(X), then a square product z = h·V, pinned, and a loss term:
//   - p = x·W, which no backward rule reads, gives its buffer to z at SpMM,
//     its last reader;
//   - h and x, which backward rules read, keep their values through the
//     forward, and are gone after Backward;
//   - in the backward, the loss term's value buffer takes its own gradient,
//     h's value buffer, given back after Tanh's rule read it last, takes p's
//     gradient, and s's gradient, spent once SpMM's rule has run, takes x's;
//   - z, pinned, keeps its value and its gradient past Backward.
//
// So a warm pass meters exactly three buffers fewer in the forward (two of
// them the in-place writes of AddBias and Tanh) and three fewer in the
// backward than the same program with every node pinned, and every parameter
// gradient, z's value and z's gradient are bit-equal to that program's.
func TestRecordingTapeGivesBuffersBackAtLastUse(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	rng := rand.New(rand.NewSource(5))
	ps := []*Node{
		Param(tensor.NewRandom(rng, 6, 4, 1)), Param(tensor.NewRandom(rng, 4, 4, 1)),
		Param(tensor.NewRandom(rng, 1, 4, 1)), Param(tensor.NewRandom(rng, 4, 4, 1)),
	}
	c := Constant(tensor.NewRandom(rng, 6, 4, 1))
	adj := tensor.NewCSR(6, 6, [][]tensor.CSREntry{
		{{Col: 0, Val: 0.5}, {Col: 4, Val: 0.5}}, {{Col: 1, Val: 1}}, nil,
		{{Col: 2, Val: -1}, {Col: 5, Val: 2}}, {{Col: 0, Val: 0.25}}, {{Col: 3, Val: 1}},
	})
	type pass struct {
		fwd, bwd         int64
		held, gone, kept bool
		z                []*tensor.Matrix // its value and gradient
		grads            []*tensor.Matrix
	}
	run := func(pinAll bool) pass {
		var r pass
		tp := NewTape()
		tp.Plan()
		x := tp.Tanh(ps[0])
		p := tp.MatMul(x, ps[1])
		h := tp.Tanh(tp.AddBias(tp.SpMM(adj, p), ps[2]))
		z := tp.MatMul(h, ps[3])
		tp.Pin(z)
		loss := tp.Sum(tp.Mul(z, c))
		if pinAll {
			for _, n := range tp.nodes {
				tp.Pin(n)
			}
		}
		tensor.ResetMeter()
		loss = tp.Run(loss, nil)
		r.fwd = tensor.TotalFloats()
		r.held = holds(x) && holds(h)
		tensor.ResetMeter()
		tp.Backward(loss)
		r.bwd = tensor.TotalFloats()
		r.gone, r.kept = !holds(p) && !holds(x) && !holds(h), holds(z) && z.Grad != nil
		if r.kept {
			r.z = []*tensor.Matrix{z.Value.Clone(), z.Grad.Clone()}
		}
		for _, p := range ps {
			r.grads = append(r.grads, p.Grad.Clone())
		}
		zeroGrads(ps)
		tp.Release()
		return r
	}
	run(false) // warm: the parameters' gradients allocated
	plain, pinned := run(false), run(true)
	if !plain.held || !plain.gone || !plain.kept {
		t.Fatalf("x and h held through the forward %v, p, x and h gone after Backward %v, z and its gradient kept %v", plain.held, plain.gone, plain.kept)
	}
	for k, m := range plain.z {
		if !bitEqual(m, pinned.z[k]) {
			t.Fatalf("z (%d: value, gradient) %v, every node pinned %v", k, m, pinned.z[k])
		}
	}
	for k := range ps {
		if !bitEqual(plain.grads[k], pinned.grads[k]) {
			t.Fatalf("parameter %d gradient %v, every node pinned %v", k, plain.grads[k], pinned.grads[k])
		}
	}
	t.Logf("forward %d and backward %d floats, %d and %d with every node pinned", plain.fwd, plain.bwd, pinned.fwd, pinned.bwd)
	const buf = 6 * 4
	if pinned.fwd-plain.fwd != 3*buf || pinned.bwd-plain.bwd != 3*buf {
		t.Fatalf("forward and backward meter %d and %d floats, %d and %d with every node pinned; want three %d-float buffers fewer in each",
			plain.fwd, plain.bwd, pinned.fwd, pinned.bwd, buf)
	}
}

// A backward draw of a length the pass kept no buffer of takes a kept buffer
// of its pool size class. Three loss terms, each a two-layer head over 7, 6
// and 5 rows, draw their hidden gradients — 28, 24 and 20 floats, one size
// class — while their hidden values are still read, and the backward, which
// reaches the 7-row term first, draws nothing the same program with three
// 7-row terms does not: the smaller terms take the larger one's buffers.
// Every gradient is bit-equal to the program's with every node pinned, which
// gives no buffer back.
func TestBackwardDrawTakesItsSizeClass(t *testing.T) {
	tensor.EnableMeter(true)
	defer tensor.EnableMeter(false)
	rng := rand.New(rand.NewSource(9))
	ws := []*Node{Param(tensor.NewRandom(rng, 4, 4, 1)), Param(tensor.NewRandom(rng, 4, 1, 1))}
	xs := make([]*tensor.Matrix, 3)
	for i := range xs {
		xs[i] = tensor.NewRandom(rng, 7, 4, 1)
	}
	run := func(rows []int, pinAll bool) (int64, []*tensor.Matrix) {
		tp := NewTape()
		tp.Plan()
		var loss *Node
		for i, n := range rows {
			x := Constant(tensor.FromSlice(n, 4, xs[i].Data[:4*n]))
			term := tp.Sum(tp.MatMul(tp.Tanh(tp.MatMul(x, ws[0])), ws[1]))
			if loss == nil {
				loss = term
			} else {
				loss = tp.Add(term, loss)
			}
		}
		if pinAll {
			for _, n := range tp.nodes {
				tp.Pin(n)
			}
		}
		loss = tp.Run(loss, nil)
		tensor.ResetMeter()
		tp.Backward(loss)
		floats := tensor.TotalFloats()
		grads := []*tensor.Matrix{ws[0].Grad.Clone(), ws[1].Grad.Clone()}
		zeroGrads(ws)
		tp.Release()
		return floats, grads
	}
	run([]int{7, 6, 5}, false) // warm: the weights' gradients allocated
	mixed, g := run([]int{7, 6, 5}, false)
	same, _ := run([]int{7, 7, 7}, false)
	pinned, want := run([]int{7, 6, 5}, true)
	t.Logf("backward floats: rows 7, 6, 5 %d; 7, 7, 7 %d; every node pinned %d", mixed, same, pinned)
	for k := range ws {
		if !bitEqual(g[k], want[k]) {
			t.Fatalf("weight %d gradient %v, every node pinned %v", k, g[k], want[k])
		}
	}
	if mixed != same || mixed >= pinned {
		t.Fatalf("backward over rows 7, 6, 5 meters %d floats, over 7, 7, 7 %d, pinned %d", mixed, same, pinned)
	}
}

// twoProducts adds to a random program's loss a term that reads its first
// parameter as the right factor of two products.
func twoProducts(root *Node, p *program) (*Node, *program) {
	tp, w := p.tp, p.params[0]
	x, y := Constant(p.mat(3, progRows)), Constant(p.mat(3, progRows))
	return tp.Add(root, tp.Mean(tp.Tanh(tp.MatMulAcc(tp.MatMul(x, w), y, w)))), p
}

// A product's share goes straight into a gradient that is all +0 — none yet,
// or one ZeroGrad cleared — and through a temporary into any other: over
// random programs on one set of parameter leaves, some the right factor of
// two products in a round, three rounds — from nil gradients, after
// zeroGrads, and onto the second round's gradients without it — leave every
// parameter gradient bit-equal to the accumulate-onto-zeros reference's after
// each round.
func TestFirstProductIntoZeroedGradient(t *testing.T) {
	direct, twice := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		var psR, psN []*Node
		for round := 0; round < 3; round++ {
			if round == 1 {
				zeroGrads(psR)
				zeroGrads(psN)
			}
			tpR, tpN := NewTape(), NewTape()
			rootR, pR := twoProducts(randomProgramOver(seed, tpR, psR))
			rootN, pN := twoProducts(randomProgramOver(seed, tpN, psN))
			psR, psN = pR.params, pN.params
			weights := map[*Node]int{}
			for _, n := range tpN.nodes {
				var w *Node
				switch n.op {
				case opMatMul:
					w = n.parents[1]
				case opMatMulAcc:
					w = n.parents[2]
				}
				if w != nil && w.seq == 0 && w.requiresGrad {
					if weights[w]++; w.zeroed && weights[w] == 1 {
						direct++
					}
				}
			}
			for _, k := range weights {
				if k > 1 {
					twice++
				}
			}
			poisonPool()
			refBackward(tpR, rootR)
			poisonPool()
			tpN.Backward(rootN)
			for i, want := range psR {
				wantG, gotG := want.Grad, psN[i].Grad
				if (wantG == nil) != (gotG == nil) || wantG != nil && !bitEqual(wantG, gotG) {
					t.Fatalf("seed %d round %d: parameter %d gradient %v, reference %v", seed, round, i, gotG, wantG)
				}
			}
			tpR.Release()
			tpN.Release()
		}
	}
	if direct == 0 || twice == 0 {
		t.Fatalf("%d first products into a zeroed gradient, %d parameters read by two products in a round: the programs miss a case", direct, twice)
	}
	t.Logf("%d first products into a zeroed gradient, %d parameters read by two products in a round", direct, twice)
}

// A product of a value by itself keeps its input rule before its weight
// rule, so the value's gradient takes the two shares in the reference's
// order after a share of a later op: the parameter's gradient is bit-equal
// to the accumulate-onto-zeros reference's, over random values.
func TestSelfProductKeepsShareOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pm, c1, c2 := tensor.NewRandom(rng, 4, 4, 1), tensor.NewRandom(rng, 4, 4, 1), tensor.NewRandom(rng, 4, 4, 1)
		var grads [2]*tensor.Matrix
		for k := range grads {
			tp, p := NewTape(), Param(pm.Clone())
			root := tp.Add(tp.Sum(tp.Mul(tp.MatMul(p, p), Constant(c1))), tp.Sum(tp.Mul(p, Constant(c2))))
			if k == 0 {
				refBackward(tp, root)
			} else {
				tp.Backward(root)
			}
			grads[k] = p.Grad
			tp.Release()
		}
		if !bitEqual(grads[0], grads[1]) {
			t.Fatalf("seed %d: gradient %v, reference %v", seed, grads[1], grads[0])
		}
	}
}
