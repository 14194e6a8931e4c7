package autodiff

import (
	"fmt"
	"slices"

	"streamgnn/internal/tensor"
)

// Planned programs (DESIGN.md §10): a forward read on some of its rows
// records its ops without arithmetic (Plan), and Run works out from the op
// kinds alone which rows of each node those rows need (needs), then computes
// each op on them, the union its readers ask for or every row past
// everyRowShare; a reader of fewer rows reads a restriction (in). Rows and
// parameter gradients hold the bits a run over every row gives them.

// afterRun is the last reader of a value Run returns: none of its ops.
const afterRun int32 = -1

// everyRowShare is the share of its rows past which a node runs on every row,
// sparing its readers copies (DESIGN.md §10); a leading block needs none.
const everyRowShare = 0.7

// Plan makes the tape record the ops that follow without computing them,
// until Run. Code between Plan and Run may not read an op's value, only its
// shape (Node.shape): a read once it is computed is asked for with Use.
func (t *Tape) Plan() { t.planning = true }

// Run computes the ops recorded since the tape last computed, each on the
// rows its readers need, in the order recorded, for the ascending rows of out
// the caller reads (nil: every row) and those Use asked for, whose reads run
// then. It returns out on exactly rows: out itself, or a copy of them when
// out runs on more.
//
// Before it computes anything it notes on each node the last of these ops
// that reads it (Node.last), out being read after all of them: that op may
// write over the value or give it back (see reuse, drop). A
// value read after its Run by anything else — code, or the ops of a later
// Run — must be pinned (Pin, Use).
func (t *Tape) Run(out *Node, rows []int) *Node {
	t.planning = false
	todo := t.nodes[t.ran:]
	if out.pending {
		out.ask(rows)
	}
	for _, u := range t.uses {
		u.ask(u.useRows)
	}
	for i := len(todo) - 1; i >= 0; i-- {
		n := todo[i]
		t.settle(n)
		for k, p := range n.parents {
			if p.pending {
				p.ask(t.needs(n, k))
			}
		}
	}
	for _, n := range todo {
		i := n.seq - 1
		for _, p := range n.parents {
			p.each(func(q *Node) { q.last = i })
		}
	}
	out.each(func(q *Node) { q.last = afterRun })
	for _, n := range todo {
		t.exec(n)
	}
	t.ran = len(t.nodes)
	for _, u := range t.uses {
		u.use(u.Value)
	}
	t.uses = t.uses[:0]
	if rows != nil && len(t.positions(out, rows)) != out.Value.Rows {
		out = t.restrict(out, rows, t.pos, nil, 0)
		out.seq = -2 // the caller's to read: no op may write over it or give it back
	}
	return out
}

// ask adds rows (nil: every row) to the rows n's readers need. Of two
// leading blocks the longer holds the other.
func (n *Node) ask(rows []int) {
	switch {
	case rows == nil:
		n.needAll = true
	case n.needAll || first(rows) && first(n.need) && len(rows) <= len(n.need):
	case first(rows) && first(n.need):
		n.need = append(n.need[:0], rows...)
	default:
		n.need = append(n.need, rows...)
	}
}

// settle fixes the rows n is computed on, ascending, from what its readers
// asked: every row of a matrix given whole, or of rows other than a leading
// block once they cover everyRowShare of them. A request short beside the
// span of rows it names is sorted; any other is marked on the span and read
// back, which costs the span but no comparison.
func (t *Tape) settle(n *Node) {
	if n.needAll || n.op == opNone && n.fill == nil {
		n.rows = nil
		return
	}
	if n.rows = n.need; !first(n.need) {
		lo, hi := slices.Min(n.need), slices.Max(n.need)
		if 16*len(n.need) < hi-lo {
			slices.Sort(n.need)
			n.rows = slices.Compact(n.need)
		} else {
			if len(t.marks) <= hi {
				t.marks = make([]bool, n.lrows)
			}
			for _, r := range n.need {
				t.marks[r] = true
			}
			for n.rows = n.need[:0]; lo <= hi; lo++ {
				if t.marks[lo] {
					t.marks[lo], n.rows = false, append(n.rows, lo)
				}
			}
		}
	}
	if n.rows == nil {
		n.rows = []int{} // no row: nil is every row
	}
	if !first(n.rows) && float64(len(n.rows)) >= everyRowShare*float64(n.lrows) {
		n.rows = nil
	}
}

// needs returns the rows input k of n must hold for n's rows, in scratch the
// next call reuses: nil for every row; ascending for the inputs in restricts,
// in any order with repeats for SpMM's and GatherRows'. A row-local op, a
// product's left factor and MatMulAcc's sum and x read n's rows; a product's
// right factor, a bias and a loss's input every row; SpMM the columns its
// rows name, less the +0 rows of an SpMM input (zeros); GatherRows and
// ScatterRows map n's rows through their indices.
func (t *Tape) needs(n *Node, k int) []int {
	if t.ints == nil {
		t.ints = make([]int, 0, 64) // no row is an empty list, not nil
	}
	rows, s := n.rows, t.ints[:0]
	switch {
	case n.op == opMean || n.op == opSum || n.op == opMSESeg || n.op == opBCESeg,
		k == 1 && (n.op == opMatMul || n.op == opAddBias), k == 2:
		return nil
	case n.op == opSpMM && rows != nil:
		c, z := n.auxCSR, zeros(n.parents[0])
		for _, r := range rows {
			for _, col := range c.ColIdx[c.RowPtr[r]:c.RowPtr[r+1]] {
				if z == nil || !z[col] {
					s = append(s, col)
				}
			}
		}
	case n.op == opGatherRows:
		s = append(s, t.gathered(n)...)
	case n.op == opScatterRows && k == 1:
		s, _ = t.scattered(n, s, t.pos[:0])
	default:
		return rows
	}
	t.ints = s
	return s
}

// gathered returns, in scratch, the input rows GatherRows n's rows read.
func (t *Tape) gathered(n *Node) []int {
	if n.rows == nil {
		return n.auxInts
	}
	g := t.pos[:0]
	for _, r := range n.rows {
		g = append(g, n.auxInts[r])
	}
	t.pos = g
	return g
}

// scattered appends to src the rows of ScatterRows n's src that land on n's
// rows, and to at where they land among them (index), in the order of the
// scatter's ascending index list.
func (t *Tape) scattered(n *Node, src, at []int) ([]int, []int) {
	pos := t.index(n.rows, n.lrows)
	for i, r := range n.auxInts {
		if pos != nil {
			r = pos[r] - 1
		}
		if r >= 0 {
			src, at = append(src, i), append(at, r)
		}
	}
	t.unindex(n.rows)
	return src, at
}

// index returns the tape's row table for a node of lrows rows computed on
// rows: 1 + the position of each of them, 0 for a row not held; nil for rows
// nil, every row, each at its own. unindex clears it, so the table stays all
// zero between uses and costs the rows, not lrows (CSR.Block shares it).
func (t *Tape) index(rows []int, lrows int) []int {
	if rows == nil {
		return nil
	}
	if len(t.at) < lrows {
		t.at = make([]int, lrows)
	}
	for j, r := range rows {
		t.at[r] = j + 1
	}
	return t.at
}

func (t *Tape) unindex(rows []int) {
	for _, r := range rows {
		t.at[r] = 0
	}
}

// zeros returns which rows of p are +0 whatever the data, when p is a
// recorded SpMM: the rows whose entries all name +0 rows of its input, as an
// SpMM's rows without entries are. nil for any other node: none known. A
// node's table is worked out once per pass (Node.zero).
func zeros(p *Node) []bool {
	if p.op != opSpMM || !p.pending {
		return nil
	}
	if p.zero == nil {
		c, in := p.auxCSR, zeros(p.parents[0])
		p.zero = make([]bool, c.NRows)
		for r := range p.zero {
			p.zero[r] = !slices.ContainsFunc(c.ColIdx[c.RowPtr[r]:c.RowPtr[r+1]], func(col int) bool { return in == nil || !in[col] })
		}
	}
	return p.zero
}

// count is how many rows a node of lrows rows computed on rows holds.
func count(rows []int, lrows int) int {
	if rows == nil {
		return lrows
	}
	return len(rows)
}

// first reports whether rows are 0, 1, …, len−1, as nil, every row, is.
func first(rows []int) bool {
	for i, r := range rows {
		if r != i {
			return false
		}
	}
	return true
}

// positions returns, in scratch, where the rows rows of p sit in its value:
// each at its own row when p holds a leading block, else as index finds it.
func (t *Tape) positions(p *Node, rows []int) []int {
	held := p.rows
	if first(held) {
		held = nil
	}
	pos, at := t.pos[:0], t.index(held, p.lrows)
	for _, r := range rows {
		j := r
		if at != nil {
			j = at[r] - 1
		}
		if j < 0 || j >= p.Value.Rows {
			panic(fmt.Sprintf("autodiff: row %d read of a value computed on %d rows without it", r, len(p.rows)))
		}
		pos = append(pos, j)
	}
	t.unindex(held)
	t.pos = pos
	return pos
}

// in makes input k of n the input itself when it holds exactly the rows n
// needs of it, else a restriction of it to those (Head or GatherRows), which
// n's backward rule reads as its parent. A restriction is no recorded node: n
// may write over it (reuse), it is given back after n unless n is a view or
// a backward rule reads it, and its source's read counts as n's.
func (t *Tape) in(n *Node, k int) {
	p, need := n.parents[k], t.needs(n, k)
	if need == nil {
		if p.rows != nil {
			panic("autodiff: an op reads every row of a value computed on some")
		}
		return
	}
	if len(need) != p.Value.Rows { // need is among p's rows
		n.parents[k] = t.restrict(p, need, t.positions(p, need), n, k)
	}
}

// restrict returns p on its rows rows, which sit at pos in its value, for
// input k of c (nil: for the caller of Run): a view of p's leading rows for a
// reader of views, a copy of them for any other, or those rows gathered.
func (t *Tape) restrict(p *Node, rows, pos []int, c *Node, k int) *Node {
	r := t.shell()
	t.restrictions = append(t.restrictions, r)
	r.seq, r.src, r.requiresGrad = -1, p, p.requiresGrad && !t.noGrad
	r.lrows, r.lcols = p.shape()
	r.rows = append(r.need[:0], rows...)
	r.parents = append(r.parents, p)
	switch {
	case !first(pos):
		r.op, r.auxInts = opGatherRows, append(r.auxInts[:0], pos...)
		r.Value = tensor.GatherRowsConcatTo(t.draw(len(pos), p.Value.Cols), p.concat(), r.auxInts)
	case p.view() || c != nil && (c.op == opMatMul && k == 0 || c.op == opMatMulAcc && k == 1 || c.op == opConcatCols):
		r.op = opHead
		t.view(r, len(pos), p, nil)
	default:
		r.op, r.Value = opHead, t.draw(len(pos), p.Value.Cols)
		copy(r.Value.Data, p.Value.Data)
	}
	return r
}

// block returns the part of c an SpMM on rows rows (nil: all) reads of an
// input holding rows cols (nil: all): c, its leading block (CSR.Head) when it
// names no column past cols, or else CSR.Block, which leaves out the entries
// naming a row the input does not hold, a +0 row (see needs). A request the
// pass made before gets the block made then (GCLSTM's four gates read one).
func (t *Tape) block(c *tensor.CSR, rows, cols []int) *tensor.CSR {
	if rows == nil && cols == nil {
		return c
	}
	for _, b := range t.cuts {
		if b.c == c && same(b.rows, rows) && same(b.cols, cols) {
			return b.b
		}
	}
	k, m := count(rows, c.NRows), count(cols, c.NCols)
	b := cut{c: c, rows: rows, cols: cols}
	switch {
	case first(rows) && first(cols) && (cols == nil || !slices.ContainsFunc(c.ColIdx[:c.RowPtr[k]], func(j int) bool { return j >= m })):
		b.b = c.Head(k, m)
	case rows == nil:
		panic("autodiff: SpMM of every row over a value computed on some")
	default:
		if cols != nil && len(t.at) < c.NCols {
			t.at = make([]int, c.NCols)
		}
		b.b = c.Block(rows, cols, t.at)
	}
	t.cuts = append(t.cuts, b)
	return b.b
}

// cut is a block of c the pass made (block) for an SpMM on rows rows of an
// input holding rows cols. The lists are nodes' rows, fixed until Release.
type cut struct {
	c, b       *tensor.CSR
	rows, cols []int
}

// same reports whether a and b list the same rows, nil (every row) only nil.
func same(a, b []int) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

// view makes n a view of the leading rows rows of a's parts and, unless nil,
// b's: an operand's own parts if it is a view, else itself.
func (t *Tape) view(n *Node, rows int, a, b *Node) {
	n.Value = &tensor.Matrix{Rows: rows}
	for _, p := range [...]*Node{a, b} {
		if p == nil {
			continue
		}
		n.Value.Cols += p.Value.Cols
		n.mats = append(n.mats, p.blocks()...)
		if p.view() {
			n.parts = append(n.parts, p.parts...)
		} else {
			n.parts = append(n.parts, p)
		}
	}
	if n.requiresGrad {
		for range n.parts {
			n.grads = append(n.grads, nil)
		}
	}
}

// The row-local kernels of one and of two dense operands, by op kind: each
// writes into dst.
var (
	unary = [...]func(dst, a *tensor.Matrix) *tensor.Matrix{
		opSigmoid: tensor.SigmoidTo, opTanh: tensor.TanhTo, opReLU: tensor.ReLUTo, opOneMinus: tensor.OneMinusTo,
	}
	binary = [...]func(dst, a, b *tensor.Matrix) *tensor.Matrix{
		opAdd: tensor.AddTo, opMul: tensor.MulTo, opAddBias: tensor.AddRowVectorTo,
	}
)

// exec computes n on its rows n.rows and records it.
func (t *Tape) exec(n *Node) {
	if n.op != opNone && n.op != opSpMM && n.op != opGatherRows {
		for k := range n.parents {
			t.in(n, k)
		}
	}
	var v *tensor.Matrix
	ps := n.parents
	// The shape of the result of a row-local op, MatMulAcc and ScatterRows.
	rows, cols := 0, 0
	if len(ps) > 0 {
		rows, cols = ps[0].Value.Rows, ps[0].Value.Cols
	}
	switch n.op {
	case opNone:
		v = n.Value
		if n.fill != nil {
			v = t.draw(count(n.rows, n.lrows), n.lcols)
			n.fill(n.rows, v)
		}
	case opMatMul:
		cands, b := 0, ps[1].Value
		if !ps[0].view() && b.Rows == b.Cols {
			cands = 1
		}
		v = tensor.MatMulConcatTo(t.dst(n, cands, rows, b.Cols), ps[0].concat(), b)
	case opMatMulAcc:
		v = tensor.MatMulAccConcatTo(t.dst(n, 1, rows, cols), ps[0].Value, ps[1].concat(), ps[2].Value)
	case opSpMM:
		n.auxCSR = t.block(n.auxCSR, n.rows, ps[0].rows)
		v = tensor.SpMMConcatTo(t.draw(n.auxCSR.NRows, cols), n.auxCSR, ps[0].concat())
	case opAdd, opMul:
		v = binary[n.op](t.dst(n, 2, rows, cols), ps[0].Value, ps[1].Value)
	case opAddBias:
		v = binary[n.op](t.dst(n, 1, rows, cols), ps[0].Value, ps[1].Value)
	case opSigmoid, opTanh, opReLU, opOneMinus:
		v = unary[n.op](t.dst(n, 1, rows, cols), ps[0].Value)
	case opScale:
		v = tensor.ScaleTo(t.dst(n, 1, rows, cols), ps[0].Value, n.auxF)
	case opConcatCols:
		t.view(n, count(n.rows, n.lrows), ps[0], ps[1])
		v = n.Value
	case opGatherRows:
		if ps[0].rows != nil || n.rows != nil {
			t.ints = append(t.ints[:0], t.gathered(n)...)
			n.auxInts = append(n.auxInts[:0], t.positions(ps[0], t.ints)...)
		}
		v = tensor.GatherRowsConcatTo(t.draw(len(n.auxInts), cols), ps[0].concat(), n.auxInts)
	case opScatterRows:
		_, at := t.scattered(n, t.ints[:0], t.pos[:0])
		n.auxInts = append(n.auxInts[:0], at...)
		if v = t.reuse(n, 1); v == nil {
			v = t.draw(rows, cols)
			copy(v.Data, ps[0].Value.Data)
		}
		tensor.ScatterRows(v, ps[1].Value, n.auxInts)
	case opMean:
		v = tensor.FromSlice(1, 1, []float64{ps[0].Value.Mean()})
	case opSum:
		v = tensor.FromSlice(1, 1, []float64{ps[0].Value.Sum()})
	case opMSESeg:
		// aux becomes the residual pred−target, which the rule reads.
		d := tensor.SubTo(t.draw(rows, cols), ps[0].Value, n.aux)
		t.residuals = append(t.residuals, d)
		n.aux = d
		v = segValue(n.auxInts, d.Cols, func(i int) float64 { return d.Data[i] * d.Data[i] })
	case opBCESeg:
		z, y := ps[0].Value, n.aux
		v = segValue(n.auxInts, y.Cols, func(i int) float64 { return bce(z.Data[i], y.Data[i]) })
	}
	if !n.requiresGrad && (n.op == opMSESeg || n.op == opBCESeg) {
		n.auxInts = nil // the caller's ends, which no rule reads
	}
	t.record(n, v)
}
