// Package autodiff implements a small tape-based reverse-mode automatic
// differentiation engine over dense matrices. It provides exactly the set of
// operations needed to express the seven dynamic-graph-neural-network
// baselines used in the paper's evaluation, plus the Adam optimizer.
//
// A Tape records the forward computation; Backward walks the tape in reverse
// and gives each node that requires a gradient its gradient. A parameter's is
// summed onto its Grad, which persists until the optimizer clears it. An
// interior node's is a buffer written once, with one owner: a node's first
// contribution is written, not added onto zeros, and an elementwise rule
// hands its own buffer down to its operand (see runBack). Parameters are
// long-lived nodes whose Value persists across steps; the tape itself is
// rebuilt for every forward pass.
//
// A planned forward (Plan … Run) knows which op reads each value last before
// it computes any, and a row-local op (or a product by a square matrix) that
// reads an operand for the last time writes its result over that operand's
// buffer instead of drawing one — only where no backward rule reads the
// operand's value (see reuse). The tape gives every other buffer back to its
// own pass once nothing reads it: a value after its last reader, forward or
// backward, and an interior gradient once its rule has run; the pass draws
// from those first, and Release hands them to the tensor pool (see NewTape).
// Forwards that will never run Backward — the engine's per-step inference —
// use an inference tape (NewInferenceTape), on which no op needs a gradient:
// no backward rule reads a value, so each goes back at its last forward
// reader. Ops recorded outside Plan … Run compute at once and neither write
// over nor give back a value in the forward.
//
// A concatenation (ConcatCols) is a view over its operands, never a copy: the
// products' left factors, SpMM, GatherRows, ConcatCols and a restriction to
// leading rows (plan.go) read its parts where they are, any other reader
// panics, and its gradient is kept per part, for the parts that need one (see
// Node.parts). A read of a view is a read of each part, for last uses as for
// the kernels; Pin pins a view part by part. A forward read on some of its
// rows runs each op on those rows (plan.go).
package autodiff

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"streamgnn/internal/tensor"
)

// opKind selects a node's backward rule. Backward logic lives in a single
// switch (runBack) over these codes rather than per-node closures: closures
// capture their environment on the heap for every recorded op, which on the
// training hot path costs an allocation per op per unit; opcode dispatch
// stores the same state in the node shell, which Release recycles.
type opKind uint8

const (
	opNone opKind = iota // leaf: Param, Constant, OwnedConstant, Input
	opMatMul
	opSpMM
	opAdd
	opMul
	opScale
	opAddBias
	opSigmoid
	opTanh
	opReLU
	opOneMinus
	opConcatCols
	opGatherRows
	opMean
	opMSESeg
	opBCESeg
	opSum
	opMatMulAcc
	opScatterRows
	opHead // a restriction to leading rows (plan.go)
)

// Node is one value in the computation graph.
type Node struct {
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	requiresGrad bool
	// zeroed marks a parameter's Grad as all +0, cleared by zeroGrads and not
	// added into since (ensureGrad; see dWeight). Code that writes a Grad
	// outside the rules leaves it all +0 again, as every Optimizer.Step does.
	zeroed  bool
	op      opKind
	parents []*Node
	visited bool
	// seq is the node's 1-based position on the tape that recorded it; 0 for
	// leaves (Param, Constant), which no tape owns, −1 for a restriction, −2
	// for the copy Run returns.
	seq int32

	// Backward-rule state (meaning depends on op): aux holds a matrix the
	// rule reads (MSE residual, BCE target), auxCSR the sparse operand of
	// SpMM, auxF a scalar (Scale's factor), and auxInts an index list
	// (GatherRows/ScatterRows rows, MSESeg/BCESeg segment ends). An aux
	// matrix is caller-owned or a residual the tape recycles at Release.
	aux     *tensor.Matrix
	auxCSR  *tensor.CSR
	auxF    float64
	auxInts []int

	// parts makes the node a view (ConcatCols, and a restriction of a view to
	// leading rows): its value is the leading Value.Rows rows of these
	// operands side by side, nested concatenations flattened, read where they
	// are, and Value is a shape with no data of its own. mats holds the parts'
	// values for the kernels; grads, when the view needs a gradient, the
	// view's gradient part by part, nil for a part that needs none. All three
	// are empty on every other node.
	parts []*Node
	mats  []*tensor.Matrix
	grads []*tensor.Matrix

	// The plan (see Run): lrows×lcols is the value on every row; rows
	// the ascending rows of it Value holds, nil for all; need (or needAll)
	// what its readers asked for. pending marks a node not computed yet. last
	// is the index of the last op of its Run that reads it (0: none; afterRun:
	// Run's caller), reads the number of backward rules recorded and not yet
	// run that read its value (tally), and pinned marks a Pin or a Use of it
	// (see reuse). src is the node a restriction reads rows of (see in); fill
	// draws an Input's rows; use reads a Use's, useRows. zero is a pending
	// SpMM's +0 rows, once zeros has worked them out.
	lrows, lcols int
	rows, need   []int
	needAll      bool
	pending      bool
	last, reads  int32
	pinned       bool
	src          *Node
	fill         func(rows []int, dst *tensor.Matrix)
	use          func(*tensor.Matrix)
	useRows      []int
	zero         []bool
}

// Tape records a forward computation for reverse-mode differentiation.
type Tape struct {
	nodes []*Node
	// free holds node shells recovered by Release; shell reuses them (and
	// their parents/auxInts slice capacity) so a reused tape records a whole
	// forward pass with almost no allocation.
	free []*Node
	// order is Backward's topological-sort scratch, reused across calls.
	order []*Node
	// backwardRan is set by Backward and cleared by Release: a second pass
	// would run the rules again over gradients the first left.
	backwardRan bool

	// noGrad marks an inference tape (NewInferenceTape), on which no op
	// needs a gradient. into is the input whose buffer the op being computed
	// writes its result into (see reuse), until record moves the buffer to
	// the op's output.
	noGrad bool
	into   *Node

	// spare holds the buffers the pass gave back (keep) and has not drawn
	// again (draw); tops maps a length to 1 + the index of the last one of
	// that length kept, 0 for none, and classes a size class c to that of
	// the last one holding at least 1<<c floats and fewer than 1<<(c+1).
	spare   []spareBuf
	tops    map[int]int
	classes [64]int

	// planning is set by Plan and cleared by Run, which computes nodes[ran:].
	// restrictions holds the nodes in made (see in), residuals MSESeg's, uses
	// the reads Use defers, cuts the SpMM blocks made (see block); the rest is
	// index scratch.
	planning     bool
	ran          int
	restrictions []*Node
	residuals    []*tensor.Matrix
	uses         []*Node
	cuts         []cut
	ints, pos    []int
	marks        []bool
	at           []int // CSR.Block's column table, all zero between calls
}

// spareBuf is a buffer on the spare list, and 1 + the index of the one of
// its length (next) and of its size class (peer) kept before it (0: none).
type spareBuf struct {
	data       []float64
	next, peer int
}

// NewTape returns an empty recording tape, for forwards that run Backward.
//
// One rule gives buffers back, on this tape and on an inference tape alike.
// The tape owns every value it records — an op's output, a restriction's
// copy, an OwnedConstant, an Input — and a value lives as long as something
// may read it; its buffer then goes to the tape's spare list (drop), from
// which every later draw of the pass takes one of its exact length before it
// asks the pool (draw). In a planned forward that is after the op that reads
// it last in its Run, unless a backward rule reads it (ruleReads), and then
// after the last such rule; a row-local op writes its result over an operand
// it reads last that no rule reads, instead of drawing (reuse). An interior
// gradient goes once its own rule has run. A view, the value Run returns and
// whatever Pin or Use pinned are never given back in the forward, and after
// Backward only pinned values, their gradients and the parameters' gradients
// are sure to remain. Release hands the spare list to the pool. The
// arithmetic is the same whichever buffer a result lands in, so every value
// and gradient keeps its bits.
//
// Ownership rule: every buffer has one owner, the one node whose Value it is,
// so the tape gives each back exactly once. Nothing may hold a tape value past
// Release except the forward's output, taken with Detach. A value that code
// outside the tape's ops reads after the ops are done with it (a
// recurrent-state commit) must be pinned with Use or Pin, which also keep
// every op from writing over it.
func NewTape() *Tape { return &Tape{} }

// NewInferenceTape returns a tape in inference (no-grad) mode, for forwards
// that never run Backward: a recording tape on which no op needs a gradient,
// whatever its operands, so no backward rule reads a value. NewTape's one
// rule then gives each value's buffer back right after the last op that reads
// it, which Run finds in the ops it is about to compute: a planned forward
// keeps only a handful of matrices live at any point, from a fresh tape's
// first pass on. The model code that defines a training forward thus also
// defines the inference forward, at the cost of the values alone. Backward
// panics on an inference tape.
func NewInferenceTape() *Tape { return &Tape{noGrad: true} }

// Release recycles every buffer the tape still owns, its spare list's among
// them, back into the tensor pool and ends the pass, keeping the node shells
// for the next forward pass on this tape: it is the one way a pass ends.
// Param and Constant nodes are never recorded, so persistent parameters,
// their gradients, and caller-owned constants are untouched. A buffer is the
// Value, or the Grad, of one recorded node at a time, or on the spare list,
// so it is released at most once. Call only when nothing retains the tape's
// values — after the backward and the utility reads of a training round;
// after Detach has taken the output of an inference forward.
func (t *Tape) Release() {
	for _, ns := range [...][]*Node{t.nodes, t.restrictions} {
		for _, n := range ns {
			tensor.Recycle(n.Value)
			tensor.Recycle(n.Grad)
			for _, g := range n.grads {
				tensor.Recycle(g)
			}
			clear(n.parts)
			clear(n.mats)
			clear(n.grads)
			clear(n.parents)
			n.parts, n.mats, n.grads, n.parents, n.need = n.parts[:0], n.mats[:0], n.grads[:0], n.parents[:0], n.need[:0]
			n.Value, n.Grad, n.aux, n.auxCSR, n.src, n.fill, n.use, n.rows, n.useRows, n.zero = nil, nil, nil, nil, nil, nil, nil, nil, nil, nil
			n.op, n.seq, n.last, n.reads, n.needAll, n.pending, n.pinned = opNone, 0, 0, 0, false, false, false
		}
		t.free = append(t.free, ns...)
	}
	for _, m := range t.residuals {
		tensor.Recycle(m)
	}
	for _, b := range t.spare {
		if b.data != nil {
			tensor.Recycle(&tensor.Matrix{Data: b.data})
		}
	}
	clear(t.spare)
	clear(t.tops)
	t.classes = [64]int{}
	t.spare = t.spare[:0]
	clear(t.restrictions)
	clear(t.uses)
	clear(t.cuts)
	t.nodes, t.restrictions, t.residuals, t.uses, t.cuts = t.nodes[:0], t.restrictions[:0], t.residuals[:0], t.uses[:0], t.cuts[:0]
	t.planning, t.ran, t.backwardRan = false, 0, false
	t.into = nil // an op that panicked between reuse and record
}

// Detach takes n's value out of the tape's ownership and returns it: Release
// will not recycle it. The engine detaches the output of an inference forward
// before releasing the tape, because the embedding store and the serving
// snapshots keep aliasing that matrix.
func (t *Tape) Detach(n *Node) *tensor.Matrix {
	m := n.read("Detach").Value
	if n.seq != 0 {
		n.Value = nil
	}
	return m
}

// Use is for code that reads n's value outside the tape's ops (a model
// committing recurrent state): it asks for n's rows rows (nil: every row),
// pins n, and calls read with n's value once Run has computed it, or at once.
// The value holds the rows n was computed on; when rows is nil or 0, 1, …,
// each of them is at its own position. Use of a view panics.
func (t *Tape) Use(n *Node, rows []int, read func(*tensor.Matrix)) {
	m := n.read("Use").Value
	t.Pin(n)
	if n.pending {
		n.use, n.useRows = read, rows
		t.uses = append(t.uses, n)
	} else {
		read(m)
	}
}

// Pin keeps n's value until Release — a view's part by part, with no copy —
// for a value read after the last op that consumes it in its Run, by code or
// by the ops of a later Run. Pin it before the Run that computes it, or at
// least before that Run's last reader of it. A pinned value is neither
// given back early nor written over, and on a recording tape it keeps its
// gradient past Backward.
func (t *Tape) Pin(n *Node) {
	gone := func(q *Node) bool { return q.seq != 0 && (q.Value == nil || q.Value.Data == nil) }
	if !n.pending && (!n.view() && gone(n) || slices.ContainsFunc(n.parts, gone)) {
		panic("autodiff: Pin of a value the tape already gave back or wrote over; Pin it before its Run")
	}
	n.each(pin)
}

// each calls f on every node this tape recorded that a read of n reads: n,
// and a view's parts, even those of a view not computed yet.
func (n *Node) each(f func(*Node)) {
	if n.seq > 0 {
		f(n)
	}
	if n.pending && n.view() {
		for _, p := range n.parents {
			p.each(f)
		}
	}
	for _, q := range n.parts {
		if q.seq > 0 {
			f(q)
		}
	}
}

// view reports whether n is a view over parts (see Node.parts), or will be
// once computed.
func (n *Node) view() bool { return len(n.parts) > 0 || n.pending && n.op == opConcatCols }

// shape returns n's shape on every row, whether or not it is computed.
func (n *Node) shape() (rows, cols int) { return n.lrows, n.lcols }

// blocks returns the matrices n's value is made of side by side: a view's
// parts' values, or n's own.
func (n *Node) blocks() []*tensor.Matrix {
	if n.view() {
		return n.mats
	}
	return []*tensor.Matrix{n.Value}
}

// concat is n's value as the kernels read it.
func (n *Node) concat() tensor.Concat { return tensor.Concat{Rows: n.Value.Rows, Parts: n.blocks()} }

// read returns n, to be read by op, a reader that cannot read a view's parts:
// of a view, even one not computed yet, it panics before op is recorded.
func (n *Node) read(op string) *Node {
	if n.view() {
		panic("autodiff: " + op + " cannot read a concatenation view; only MatMul's left factor, MatMulAcc's x, SpMM, GatherRows and ConcatCols can")
	}
	return n
}

// Len returns the number of recorded nodes (for tests).
func (t *Tape) Len() int { return len(t.nodes) }

// Param wraps a persistent parameter matrix in a gradient-tracked node.
// The node's Grad buffer is allocated lazily by Backward.
func Param(v *tensor.Matrix) *Node {
	return &Node{Value: v, requiresGrad: true, lrows: v.Rows, lcols: v.Cols}
}

// Constant wraps a matrix that does not require a gradient.
func Constant(v *tensor.Matrix) *Node {
	return &Node{Value: v, lrows: v.Rows, lcols: v.Cols}
}

// shell returns a node shell, reusing one recovered by Release.
func (t *Tape) shell() *Node {
	if k := len(t.free); k > 0 {
		n := t.free[k-1]
		t.free = t.free[:k-1]
		return n
	}
	return &Node{}
}

// add records an op of kind op on the inputs p1..p3 (nil ones are absent),
// whose value on every row is rows×cols. It computes nothing: see done.
func (t *Tape) add(op opKind, rows, cols int, p1, p2, p3 *Node) *Node {
	n := t.shell()
	t.nodes = append(t.nodes, n)
	n.seq = int32(len(t.nodes))
	n.op, n.lrows, n.lcols, n.pending, n.requiresGrad = op, rows, cols, true, false
	for _, p := range [...]*Node{p1, p2, p3} {
		if p != nil {
			n.parents = append(n.parents, p)
			n.requiresGrad = n.requiresGrad || p.requiresGrad && !t.noGrad
		}
	}
	return n
}

// done computes n, just recorded, on every row — unless the tape is planning
// (Plan), when Run computes it on the rows its readers need.
func (t *Tape) done(n *Node) *Node {
	if !t.planning {
		t.exec(n)
		t.ran = len(t.nodes)
	}
	return n
}

// OwnedConstant registers a gradient-free matrix built fresh for this pass
// (a view's gathered features) on the tape, which owns it from then
// on, and returns the node to pass to the ops: its buffer goes back to the
// pass after its last reader, as an op output's does (see NewTape).
func (t *Tape) OwnedConstant(m *tensor.Matrix) *Node {
	n := t.add(opNone, m.Rows, m.Cols, nil, nil, nil)
	n.Value = m
	return t.done(n)
}

// Input is OwnedConstant for a rows×cols matrix the tape draws and fill
// writes when it is computed: on every row (rows nil), or on the ascending
// rows listed, row i of dst holding row rows[i]. A planned forward's readers
// then decide which rows are filled (gathered recurrent state).
func (t *Tape) Input(rows, cols int, fill func(rows []int, dst *tensor.Matrix)) *Node {
	n := t.add(opNone, rows, cols, nil, nil, nil)
	n.fill = fill
	return t.done(n)
}

// record ends the computation of n with its value v: it moves to n the buffer
// of the input the op wrote into (see reuse) and counts what n's backward
// rule reads (ruleReads, tally). The inputs n reads last and n's restrictions
// (see in) give their buffers up (drop).
func (t *Tape) record(n *Node, v *tensor.Matrix) {
	if p := t.into; p != nil {
		// The output gets a header of its own and the input keeps its shape
		// with no data, as keep leaves a value given back: a reference to it
		// kept outside the tape fails loudly instead of reading the output,
		// while ensureGrad and the slicing rules read the shape.
		t.into = nil
		if v == p.Value {
			v = tensor.FromSlice(v.Rows, v.Cols, v.Data)
		}
		p.Value.Data = nil
	}
	n.Value, n.pending = v, false
	in, out := t.ruleReads(n)
	for k, p := range n.parents {
		if in[k] {
			t.tally(p, 1)
		}
	}
	if out {
		t.tally(n, 1)
	}
	// A read of a view is a read of each of its parts, and a read of a
	// restriction one of its source. An op that makes a view gives none of
	// them up: the view's value holds from its creation on, as any op's does.
	if !n.view() {
		i := n.seq - 1
		for _, p := range n.parents {
			for _, q := range [...]*Node{p, p.src} {
				if q == nil {
					continue
				}
				t.retire(q, i)
				for _, r := range q.parts {
					t.retire(r, i)
				}
			}
			if p.seq == -1 && !p.view() {
				t.drop(p)
			}
		}
	}
}

// pin keeps n's value from being given up early or written over.
func pin(n *Node) { n.pinned = true }

// retire drops q, a value this tape recorded, when op i is the last that
// reads it and nobody pinned it. A later read of a value given up or written
// over — a read outside the ops of its Run, of a value nobody pinned — fails
// loudly on the missing data rather than computing on reused storage.
func (t *Tape) retire(q *Node, i int32) {
	if q.seq > 0 && q.last == i && !q.pinned {
		t.drop(q)
	}
}

// drop gives q's buffer to the pass's spare list (keep) once no backward rule
// still reads q: NewTape's one rule, on either kind of tape.
func (t *Tape) drop(q *Node) {
	if q.reads == 0 {
		t.keep(q.Value)
	}
}

// tally adds d to the reads of each buffer a backward rule's read of n reads:
// n's own, when n is a value this tape recorded or a restriction's copy, and
// a view's parts'. A read taken off (d < 0) after the rule ran drops the
// buffers no rule reads any more that nobody pinned.
func (t *Tape) tally(n *Node, d int32) {
	if n.seq > 0 || n.seq == -1 && !n.view() {
		t.count(n, d)
	}
	for _, q := range n.parts {
		if q.seq > 0 {
			t.count(q, d)
		}
	}
}

// count adds d to q's reads, dropping q when a read taken off was its last.
func (t *Tape) count(q *Node, d int32) {
	if q.reads += d; d < 0 && q.reads == 0 && !q.pinned {
		t.drop(q)
	}
}

// keep gives m's buffer to the spare list, for a later draw of this pass,
// and leaves m its shape with no data, as an input an op wrote over is left.
func (t *Tape) keep(m *tensor.Matrix) {
	if m == nil || len(m.Data) == 0 {
		return
	}
	if t.tops == nil {
		t.tops = map[int]int{}
	}
	k, c := len(m.Data), bits.Len(uint(cap(m.Data)))-1
	t.spare = append(t.spare, spareBuf{m.Data, t.tops[k], t.classes[c]})
	t.tops[k], t.classes[c] = len(t.spare), len(t.spare)
	m.Data = nil
}

// draw returns a rows×cols matrix to write every element of before reading
// any: over the buffer of exactly its length the pass kept last (keep), or
// over one from the pool, metered, when none is left. In the backward, a
// length no kept buffer has takes the last kept buffer of its pool size
// class, the same capacity the pool would hand out: each loss term's
// gradients have the term's own row count, which the pass's other values
// rarely share.
func (t *Tape) draw(rows, cols int) *tensor.Matrix {
	k := rows * cols
	for i := t.tops[k]; i > 0; i = t.tops[k] {
		b := &t.spare[i-1]
		t.tops[k] = b.next
		if s := b.data; s != nil { // nil: taken by its size class
			b.data = nil
			return tensor.FromSlice(rows, cols, s)
		}
	}
	for c := bits.Len(uint(k - 1)); t.backwardRan && k > 0 && t.classes[c] > 0; {
		b := &t.spare[t.classes[c]-1]
		t.classes[c] = b.peer
		if s := b.data; s != nil { // nil: taken by its length
			b.data = nil
			return tensor.FromSlice(rows, cols, s[:k])
		}
	}
	return tensor.NewUninit(rows, cols)
}

// zeros is draw zero-filled.
func (t *Tape) zeros(rows, cols int) *tensor.Matrix {
	m := t.draw(rows, cols)
	clear(m.Data)
	return m
}

// ruleReads is the table of values the backward rule of n reads when n needs
// a gradient (none on an inference tape): which inputs, and whether its own
// output. Every rule not
// listed reads shapes alone. A weight rule reads the parts of a view left
// factor, MatMulAcc's sum among them if x holds it. record counts these reads
// (tally) and Backward takes them off after the rule, which is what keeps a
// value's buffer until its last backward reader; a pin is only ever a
// caller's (Pin, Use).
func (t *Tape) ruleReads(n *Node) (in [3]bool, out bool) {
	if !n.requiresGrad {
		return in, false
	}
	ps := n.parents
	switch n.op {
	case opSigmoid, opTanh, opReLU:
		out = ps[0].requiresGrad
	case opMatMul, opMul:
		in[0], in[1] = ps[1].requiresGrad, ps[0].requiresGrad
	case opMatMulAcc:
		in[1], in[2] = ps[2].requiresGrad, ps[1].requiresGrad
		in[0] = in[1] && slices.Contains(ps[1].parts, ps[0])
	case opBCESeg:
		in[0] = ps[0].requiresGrad
	}
	return in, out
}

// reuse returns the buffer n, an op about to be computed, may write its
// result into: that of the first of its leading cands inputs that no backward
// rule reads (reads, and n's own rule: ruleReads), nobody pinned (Pin, Use)
// and no later op reads: a restriction drawn for n alone (see in), or a value
// the tape owns whose last reader in its Run is n, so no later op can tell
// whether its buffer was written over or given up. A read of a view counts
// as a read of its parts, so no part is written over while a view of it is
// read later. The op must take every element of the result from the same
// element (a square MatMul copies each row out first) of that input, not read
// others after writing; an input it also reads as a non-candidate does not
// qualify (MatMulAcc's x may hold sum as a part: it assembles a row of x
// before it writes that row). A candidate is never a view (MatMul offers a
// dense left factor alone). record moves the buffer to n. nil means the op
// draws one (dst).
func (t *Tape) reuse(n *Node, cands int) *tensor.Matrix {
	ps := n.parents
	reads, _ := t.ruleReads(n)
	for k, p := range ps[:cands] {
		if p.Value == nil || reads[k] || slices.Contains(ps[cands:], p) {
			continue
		}
		if p.seq == -1 && !p.view() || p.seq > 0 && p.last == n.seq-1 && p.reads == 0 && !p.pinned {
			t.into = p
			return p.Value
		}
	}
	return nil
}

// dst returns the buffer n writes its rows×cols result into: that of one of
// its leading cands inputs (reuse), else one drawn (draw).
func (t *Tape) dst(n *Node, cands, rows, cols int) *tensor.Matrix {
	if m := t.reuse(n, cands); m != nil {
		return m
	}
	return t.draw(rows, cols)
}

// ensureGrad returns the buffer a gradient contribution to n is added into:
// n's own Grad, zero-filled on first use — from the pool for a parameter,
// whose Grad outlives the tape, as the pass draws (draw) for an interior
// node, whose Grad is private to the tape. It clears the zeroed mark: the
// caller adds into the buffer. Callers have already checked n.requiresGrad.
func (t *Tape) ensureGrad(n *Node) *tensor.Matrix {
	if n.Grad == nil && n.seq == 0 {
		n.Grad = tensor.New(n.Value.Rows, n.Value.Cols)
	} else if n.Grad == nil {
		n.Grad = t.zeros(n.Value.Rows, n.Value.Cols)
	}
	n.zeroed = false
	return n.Grad
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (1x1) node produced by this tape. Every reachable parameter's
// gradient is added into its Grad. Ops recorded and not yet computed run
// first (Run). A tape runs one backward per pass: a second one before
// Release panics.
//
// At each node's turn, its rule run or not (a node no gradient reached),
// the reads of its rule are taken off the values it reads (tally): a value
// no rule reads any more gives its buffer to the spare list, for the draws
// that follow (see NewTape), and so does the node's own gradient — its Grad,
// or a view's blocks — once its rule has run. A pinned node (Pin, Use) keeps
// both. Afterwards, then, only pinned values, their gradients and the
// parameters' gradients are sure to remain: read any other value before
// Backward, or pin it.
func (t *Tape) Backward(root *Node) {
	if t.noGrad {
		panic("autodiff: Backward on an inference tape")
	}
	if t.backwardRan {
		panic("autodiff: second Backward on one tape; Release it first")
	}
	if t.ran < len(t.nodes) {
		root = t.Run(root, nil)
	}
	if root.Value.Rows != 1 || root.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward root must be 1x1, got %dx%d", root.Value.Rows, root.Value.Cols))
	}
	t.backwardRan = true
	// Topological order via DFS over recorded nodes; the order slice is tape
	// scratch reused across Backward calls.
	t.order = t.order[:0]
	var visit func(n *Node)
	visit = func(n *Node) {
		if n.visited || n.op == opNone {
			return
		}
		n.visited = true
		for _, p := range n.parents {
			visit(p)
		}
		t.order = append(t.order, n)
	}
	visit(root)
	for _, n := range t.order {
		n.visited = false
	}
	t.ensureGrad(root)
	root.Grad.Data[0] = 1
	for i := len(t.order) - 1; i >= 0; i-- {
		n := t.order[i]
		in, out := t.ruleReads(n)
		if n.hasGrad() {
			n.runBack(t, &in)
		}
		for k, p := range n.parents {
			if in[k] {
				t.tally(p, -1)
			}
		}
		if out {
			t.tally(n, -1)
		}
		if !n.pinned {
			t.keep(n.Grad)
			n.Grad = nil
			for k, g := range n.grads {
				t.keep(g)
				n.grads[k] = nil
			}
		}
	}
}

// hasGrad reports whether n has a gradient: its Grad, or a view's part.
func (n *Node) hasGrad() bool {
	return n.Grad != nil || slices.ContainsFunc(n.grads, func(g *tensor.Matrix) bool { return g != nil })
}

// fresh reports whether n's next gradient contribution is its first and is
// written as its gradient instead of added onto zeros: n was recorded on a
// tape and has no gradient yet. Parameter leaves are never fresh; their
// gradients are always summed onto +0.
func fresh(n *Node) bool { return n.seq != 0 && n.Grad == nil }

// pass gives p out's gradient g unchanged: g itself when p is fresh — out
// gives the buffer up, so it keeps one owner — and added into p's gradient
// otherwise. The rule may read g afterwards, as long as whatever it then
// writes into p's gradient (when p is an operand twice over) it writes
// element by element after reading that element of g.
func (t *Tape) pass(out, p *Node, g *tensor.Matrix) {
	if fresh(p) {
		p.Grad, out.Grad = g, nil
		return
	}
	tensor.AddInPlace(t.ensureGrad(p), g)
}

// elementwise returns where an elementwise rule writes its contribution to p,
// and whether it adds: g itself, which the rule overwrites and which is
// handed down, when p is fresh; p's gradient, to add into, otherwise. Call it
// after every other read of g in the rule.
func (t *Tape) elementwise(out, p *Node) (dst *tensor.Matrix, add bool) {
	if !fresh(p) {
		return t.ensureGrad(p), true
	}
	p.Grad, out.Grad = out.Grad, nil
	return p.Grad, false
}

// plus is an elementwise rule's write of d over the destination element o.
func plus(add bool, o, d float64) float64 {
	if add {
		return o + d
	}
	return d
}

// firstBlock returns where block k of p's first gradient is written, drawn
// as the pass draws (draw) and zeroed when zero is set.
func (t *Tape) firstBlock(p *Node, k int, zero bool) *tensor.Matrix {
	m := t.draw(p.Value.Rows, p.blocks()[k].Cols)
	if zero {
		clear(m.Data)
	}
	return m
}

// dWeight gives w, the right factor of a product x·w, its share xᵀ·g. A
// gradient of all +0 (none yet, or zeroed) takes the sums straight in: a sum
// from +0 is never −0, so +0 + s is s. Into any other the share is a
// temporary added in, as the scatter's sums from +0 fix a parameter's bits,
// and then kept for the pass's next draw of its length.
func (t *Tape) dWeight(w *Node, x tensor.Concat, g *tensor.Matrix) {
	if w.Grad == nil || w.zeroed {
		tensor.MatMulTransAConcatInto(t.ensureGrad(w), x, g)
		return
	}
	m := t.zeros(x.Cols(), g.Cols)
	tensor.MatMulTransAConcatInto(m, x, g)
	tensor.AddInPlace(w.Grad, m)
	t.keep(m)
}

// The rules that read a view's parts write its gradient block by block: one
// block per part, or a node's own gradient as its one block.

// needs reports whether block k of n's gradient is wanted.
func (n *Node) needs(k int) bool {
	if n.view() {
		return n.parts[k].requiresGrad
	}
	return n.requiresGrad
}

// slot returns where block k of n's gradient is, and whether it is fresh:
// the next contribution is written there, not added in (see fresh).
func (t *Tape) slot(n *Node, k int) (dst **tensor.Matrix, first bool) {
	if n.view() {
		return &n.grads[k], n.grads[k] == nil
	}
	if fresh(n) {
		return &n.Grad, true
	}
	t.ensureGrad(n)
	return &n.Grad, false
}

// dInput gives p, the left factor of a product p·w, its share g·wᵀ: written
// as p's gradient when p is fresh, added straight in otherwise. A view's
// part takes its block g·W[part's rows]ᵀ, whose dot products are the ones
// g·wᵀ has in those columns; a part that needs no gradient costs nothing.
func (t *Tape) dInput(p *Node, g, w *tensor.Matrix) {
	off := 0
	for k, m := range p.blocks() {
		wk := w.RowRange(off, off+m.Cols)
		off += m.Cols
		if !p.needs(k) {
			continue
		}
		if dst, first := t.slot(p, k); first {
			*dst = tensor.MatMulTransBTo(t.draw(g.Rows, wk.Rows), g, wk)
		} else {
			tensor.MatMulTransBAddTo(*dst, g, wk)
		}
	}
}

// weightFirst reports whether a product x·w runs its weight rule before its
// input rule: w needs a gradient and is neither x nor one of x's parts, to
// which the input rule would give shares in another order.
func weightFirst(x, w *Node) bool {
	return w.requiresGrad && w != x && !slices.Contains(x.parts, w)
}

// runBack applies node out's backward rule, giving each parent that requires
// one its share of out's gradient g. One switch instead of per-node closures:
// see opKind.
//
// Every gradient buffer is written once and has one owner: a fresh parent's
// first share is written as its gradient — g itself, handed down, where the
// rule passes g on unchanged or elementwise, else a buffer the pass draws
// (draw) — and later shares are added in. A product's rule runs its weight
// share first where that share reads the left factor's value last, so the
// left factor's buffer may hold its own gradient; in[k] is cleared for a
// read it has taken off already (see Backward).
// Against adding every share onto zeros only a first share changes, from
// +0 + s to s, so interior gradients differ at most in the sign of a zero and
// every parameter gradient, summed onto +0, is bit-identical for finite
// values (DESIGN.md §8, "Gradients in place").
//
// A view keeps its gradient part by part (Node.grads), which the rules of the
// ops that read views — the products' input rules, SpMM's, GatherRows',
// a restriction's to leading rows and ConcatCols' — write block by block.
func (out *Node) runBack(t *Tape, in *[3]bool) {
	g := out.Grad
	switch out.op {
	case opMatMul:
		a, b := out.parents[0], out.parents[1]
		early := weightFirst(a, b)
		if early {
			t.dWeight(b, a.concat(), g)
			t.tally(a, -1)
			in[0] = false
		}
		if a.requiresGrad {
			t.dInput(a, g, b.Value)
		}
		if b.requiresGrad && !early {
			t.dWeight(b, a.concat(), g)
		}
		return
	case opMatMulAcc:
		// sum + x·w: Add's rule for sum, then MatMul's for x and w. x's add
		// form reads rows of g while it writes x's gradient, so a sum that is
		// also x takes a copy of g.
		sum, x, w := out.parents[0], out.parents[1], out.parents[2]
		if sum.requiresGrad {
			if sum == x && fresh(sum) {
				sum.Grad = t.draw(g.Rows, g.Cols)
				copy(sum.Grad.Data, g.Data)
			} else {
				t.pass(out, sum, g)
			}
		}
		early := weightFirst(x, w)
		if early {
			t.dWeight(w, x.concat(), g)
			t.tally(x, -1)
			if in[0] {
				t.tally(sum, -1)
			}
			in[0], in[1] = false, false
		}
		if x.requiresGrad {
			t.dInput(x, g, w.Value)
		}
		if w.requiresGrad && !early {
			t.dWeight(w, x.concat(), g)
		}
		return
	case opSpMM:
		// A view's part takes SpMMTransCols over its columns of g.
		x, off := out.parents[0], 0
		for k, m := range x.blocks() {
			if x.needs(k) {
				if dst, first := t.slot(x, k); first {
					*dst = tensor.SpMMTransColsInto(t.firstBlock(x, k, false), out.auxCSR, g, off, off+m.Cols)
				} else {
					s := tensor.SpMMTransColsInto(t.draw(out.auxCSR.NCols, m.Cols), out.auxCSR, g, off, off+m.Cols)
					tensor.AddInPlace(*dst, s)
					t.keep(s)
				}
			}
			off += m.Cols
		}
		return
	case opHead:
		// The leading rows of a row-major matrix are the head of its data:
		// of a's gradient, or of each of a view's blocks.
		a, gs := out.parents[0], out.grads
		if !out.view() {
			gs = []*tensor.Matrix{g}
		}
		for k, s := range gs {
			if s == nil || !a.needs(k) {
				continue
			}
			dst, first := t.slot(a, k)
			if first {
				*dst = t.firstBlock(a, k, true)
			}
			for i, v := range s.Data {
				(*dst).Data[i] += v
			}
		}
		return
	case opConcatCols:
		// Each operand takes its blocks once, where the copy's column slices
		// were taken: the block itself when it is fresh, added in otherwise.
		k := 0
		for _, p := range out.parents {
			for j := range p.blocks() {
				if s := out.grads[k]; s != nil {
					if dst, first := t.slot(p, j); first {
						*dst, out.grads[k] = s, nil
					} else {
						tensor.AddInPlace(*dst, s)
					}
				}
				k++
			}
		}
		return
	case opAdd:
		// a takes g first and unchanged; b reads it after, so b gets g
		// copied into a buffer of its own.
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			t.pass(out, a, g)
		}
		if b.requiresGrad {
			if fresh(b) {
				b.Grad = t.firstBlock(b, 0, false)
				copy(b.Grad.Data, g.Data)
			} else {
				tensor.AddInPlace(t.ensureGrad(b), g)
			}
		}
	case opMul:
		// b's share g∘a first, then a's, g∘b, written over g when a is fresh.
		a, b := out.parents[0], out.parents[1]
		if b.requiresGrad {
			if fresh(b) {
				b.Grad = tensor.MulTo(t.draw(g.Rows, g.Cols), g, a.Value)
			} else {
				bg := t.ensureGrad(b)
				for i, v := range g.Data {
					bg.Data[i] += v * a.Value.Data[i]
				}
			}
		}
		if a.requiresGrad {
			dst, add := t.elementwise(out, a)
			for i, v := range g.Data {
				dst.Data[i] = plus(add, dst.Data[i], v*b.Value.Data[i])
			}
		}
	case opScale:
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := t.elementwise(out, a)
			for i, v := range g.Data {
				dst.Data[i] = plus(add, dst.Data[i], out.auxF*v)
			}
		}
	case opAddBias:
		m, b := out.parents[0], out.parents[1]
		if b.requiresGrad {
			bg := t.ensureGrad(b)
			for r := 0; r < g.Rows; r++ {
				for c, v := range g.Row(r) {
					bg.Data[c] += v
				}
			}
		}
		if m.requiresGrad {
			t.pass(out, m, g)
		}
	case opSigmoid:
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := t.elementwise(out, a)
			for i, y := range out.Value.Data {
				dst.Data[i] = plus(add, dst.Data[i], g.Data[i]*y*(1-y))
			}
		}
	case opTanh:
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := t.elementwise(out, a)
			for i, y := range out.Value.Data {
				dst.Data[i] = plus(add, dst.Data[i], g.Data[i]*(1-y*y))
			}
		}
	case opReLU:
		// Where a is not above 0 the share is +0: written as such into g,
		// left out of a sum — the sum's element is selected, not added to,
		// so a −0 stays — as adding onto zeros leaves it. The output is
		// above 0 exactly where a is (ReLUTo), and a may be written over.
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := t.elementwise(out, a)
			ys := out.Value.Data
			ds, gs := dst.Data[:len(ys)], g.Data[:len(ys)]
			if add {
				for i, y := range ys {
					m, d := tensor.PositiveMask(y), math.Float64bits(ds[i])
					ds[i] = math.Float64frombits(math.Float64bits(ds[i]+gs[i])&m | d&^m)
				}
			} else {
				for i, y := range ys {
					ds[i] = math.Float64frombits(math.Float64bits(gs[i]) & tensor.PositiveMask(y))
				}
			}
		}
	case opOneMinus:
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := t.elementwise(out, a)
			for i, v := range g.Data {
				dst.Data[i] = plus(add, dst.Data[i], -v)
			}
		}
	case opGatherRows:
		// Row i of g goes to row auxInts[i] of a's gradient, block by block.
		a, off := out.parents[0], 0
		for k, m := range a.blocks() {
			if a.needs(k) {
				dst, first := t.slot(a, k)
				if first {
					*dst = t.firstBlock(a, k, true)
				}
				for i, r := range out.auxInts {
					drow := (*dst).Row(r)
					for c, v := range g.Row(i)[off : off+m.Cols] {
						drow[c] += v
					}
				}
			}
			off += m.Cols
		}
	case opScatterRows:
		// Each output row came from exactly one place: row auxInts[i] from
		// src's row i, every other row from base's own.
		base, src := out.parents[0], out.parents[1]
		if base.requiresGrad {
			bg := t.ensureGrad(base)
			k := 0
			for r := 0; r < g.Rows; r++ {
				if k < len(out.auxInts) && out.auxInts[k] == r {
					k++
					continue
				}
				brow := bg.Row(r)
				for c, v := range g.Row(r) {
					brow[c] += v
				}
			}
		}
		if src.requiresGrad {
			sg := t.ensureGrad(src)
			for i, r := range out.auxInts {
				srow := sg.Row(i)
				for c, v := range g.Row(r) {
					srow[c] += v
				}
			}
		}
	case opMean:
		a := out.parents[0]
		if a.requiresGrad {
			ag := t.ensureGrad(a)
			d := g.Data[0] / float64(a.Value.Rows*a.Value.Cols)
			for i := range ag.Data {
				ag.Data[i] += d
			}
		}
	case opMSESeg:
		// aux is the residual pred−target; auxInts the segments' row ends.
		pred := out.parents[0]
		if pred.requiresGrad {
			pg := t.ensureGrad(pred)
			lo := 0
			for s, end := range out.auxInts {
				hi := end * out.aux.Cols
				d := g.Data[s] * 2 / float64(hi-lo)
				for i := lo; i < hi; i++ {
					pg.Data[i] += d * out.aux.Data[i]
				}
				lo = hi
			}
		}
	case opBCESeg:
		// aux is the 0/1 target matrix; auxInts the segments' row ends.
		logits := out.parents[0]
		if logits.requiresGrad {
			lg := t.ensureGrad(logits)
			lo := 0
			for s, end := range out.auxInts {
				hi := end * out.aux.Cols
				d := g.Data[s] / float64(hi-lo)
				for i := lo; i < hi; i++ {
					lg.Data[i] += d * (tensor.Sigmoid(logits.Value.Data[i]) - out.aux.Data[i])
				}
				lo = hi
			}
		}
	case opSum:
		a := out.parents[0]
		if a.requiresGrad {
			ag := t.ensureGrad(a)
			d := g.Data[0]
			for i := range ag.Data {
				ag.Data[i] += d
			}
		}
	}
}

// --- operations ---
//
// Each op records a node of its kind with the shape of its value on every
// row, and computes it at once — unless the tape is planning (Plan), when Run
// computes it on the rows its readers need (plan.go). A reader that cannot
// read a view panics when it is recorded, before anything is computed.

// MatMul returns a·b. In a planned forward a product by a square b may write
// over a dense a it reads last (see reuse), never on a recording tape where b
// needs a gradient, whose rule reads a.
func (t *Tape) MatMul(a, b *Node) *Node {
	rows, _ := a.shape()
	_, cols := b.read("MatMul's right operand").shape()
	return t.done(t.add(opMatMul, rows, cols, a, b, nil))
}

// MatMulAcc returns sum + x·w as one op: the value and all three gradients
// are bit-identical to Add(sum, MatMul(x, w)), without materializing the
// product (see tensor.MatMulAccConcatTo). In a planned forward it may add the
// product into sum's buffer.
func (t *Tape) MatMulAcc(sum, x, w *Node) *Node {
	rows, cols := sum.read("MatMulAcc's sum").shape()
	return t.done(t.add(opMatMulAcc, rows, cols, sum, x, w.read("MatMulAcc's w")))
}

// SpMM returns s·x where s is a constant sparse matrix (no gradient flows
// into s; this matches graph adjacency use).
func (t *Tape) SpMM(s *tensor.CSR, x *Node) *Node {
	rows, cols := x.shape()
	if s.NCols != rows {
		panic(fmt.Sprintf("autodiff: SpMM inner mismatch %dx%d · %dx%d", s.NRows, s.NCols, rows, cols))
	}
	n := t.add(opSpMM, s.NRows, cols, x, nil, nil)
	n.auxCSR = s
	return t.done(n)
}

// The row-local ops below may, in a planned forward, write into the buffer of
// an operand they read last (see reuse): either operand of Add, Sub and Mul,
// the matrix operand of the rest.

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Node) *Node { return t.rowLocal(opAdd, "Add", a, b) }

// Mul returns the Hadamard product a∘b.
func (t *Tape) Mul(a, b *Node) *Node { return t.rowLocal(opMul, "Mul", a, b) }

// AddBias returns m with the 1×cols bias row b added to every row.
func (t *Tape) AddBias(m, b *Node) *Node { return t.rowLocal(opAddBias, "AddBias", m, b) }

// Scale returns s·a for scalar constant s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	rows, cols := a.read("Scale").shape()
	n := t.add(opScale, rows, cols, a, nil, nil)
	n.auxF = s
	return t.done(n)
}

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a *Node) *Node { return t.rowLocal(opSigmoid, "Sigmoid", a, nil) }

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *Node) *Node { return t.rowLocal(opTanh, "Tanh", a, nil) }

// ReLU applies max(0, x) elementwise.
func (t *Tape) ReLU(a *Node) *Node { return t.rowLocal(opReLU, "ReLU", a, nil) }

// OneMinus returns 1−a elementwise (used by GRU gates).
func (t *Tape) OneMinus(a *Node) *Node { return t.rowLocal(opOneMinus, "OneMinus", a, nil) }

// rowLocal records the op of kind op, named name, on dense a and, unless
// nil, b.
func (t *Tape) rowLocal(op opKind, name string, a, b *Node) *Node {
	if b != nil {
		b.read(name)
	}
	rows, cols := a.read(name).shape()
	return t.done(t.add(op, rows, cols, a, b, nil))
}

// ConcatCols returns [a | b] as a view: no buffer of its own, its parts read
// where they are by the ops that can — MatMul's and MatMulAcc's left factor,
// SpMM's dense operand, GatherRows, ConcatCols — while any other reader
// panics (see Node.parts). A concatenation of a view flattens into one list
// of parts. Its gradient is kept part by part, for the parts that need one.
func (t *Tape) ConcatCols(a, b *Node) *Node {
	ar, ac := a.shape()
	br, bc := b.shape()
	if ar != br {
		panic(fmt.Sprintf("autodiff: ConcatCols row mismatch %d vs %d", ar, br))
	}
	return t.done(t.add(opConcatCols, ar, ac+bc, a, b, nil))
}

// GatherRows selects the given rows of a, of a view's parts where they are.
func (t *Tape) GatherRows(a *Node, rows []int) *Node {
	_, cols := a.shape()
	n := t.add(opGatherRows, len(rows), cols, a, nil, nil)
	// A copy into the shell's reusable index scratch: the caller may mutate
	// rows before the op runs or Backward reads them.
	n.auxInts = append(n.auxInts[:0], rows...)
	return t.done(n)
}

// ScatterRows returns base with row rows[i] replaced by src's row i: the
// inverse of GatherRows(·, rows) over a background. rows must be strictly
// ascending (the backward rule walks them beside base's rows). The result is
// a copy of base, unless a planned forward scatters into base's own buffer,
// which base's last read allows (see reuse).
func (t *Tape) ScatterRows(base, src *Node, rows []int) *Node {
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			panic(fmt.Sprintf("autodiff: ScatterRows rows not strictly ascending at %d", i))
		}
	}
	br, bc := base.read("ScatterRows").shape()
	n := t.add(opScatterRows, br, bc, base, src.read("ScatterRows"), nil)
	n.auxInts = append(n.auxInts[:0], rows...)
	return t.done(n)
}

// Mean returns the scalar mean of all elements of a.
func (t *Tape) Mean(a *Node) *Node { return t.done(t.add(opMean, 1, 1, a.read("Mean"), nil, nil)) }

// Sum returns the scalar sum of all elements of a.
func (t *Tape) Sum(a *Node) *Node { return t.done(t.add(opSum, 1, 1, a.read("Sum"), nil, nil)) }

// MSESeg returns the mean squared error of each row segment of pred against
// the constant target, as a len(ends)×1 column: segment s is the rows from
// ends[s-1] (0 for the first) up to ends[s], ends ascending and ending at
// pred's row count. Each mean is summed over its own rows in order and takes
// its own gradient, exactly as one segment of those rows alone; an empty segment
// reads 0 and passes no gradient on.
func (t *Tape) MSESeg(pred *Node, target *tensor.Matrix, ends []int) *Node {
	return t.segLoss(opMSESeg, "MSESeg", pred, target, ends)
}

// BCESeg returns the mean binary cross-entropy of each row segment of logits
// against the constant 0/1 target matrix, computed in a numerically stable
// form; segments and result are laid out as MSESeg's.
func (t *Tape) BCESeg(logits *Node, target *tensor.Matrix, ends []int) *Node {
	return t.segLoss(opBCESeg, "BCESeg", logits, target, ends)
}

// segLoss records a segmented loss of kind op over in against target.
func (t *Tape) segLoss(op opKind, name string, in *Node, target *tensor.Matrix, ends []int) *Node {
	rows, cols := in.read(name).shape()
	if rows != target.Rows || cols != target.Cols {
		panic("autodiff: " + name + " shape mismatch")
	}
	n := t.add(op, len(checkEnds(ends, rows)), 1, in, nil, nil)
	n.aux = target
	if !n.requiresGrad {
		n.auxInts = ends // read by the op alone, which drops it (exec)
	} else {
		n.auxInts = append(n.auxInts[:0], ends...)
	}
	return t.done(n)
}

// segValue computes a segmented loss's column: segment s's mean of term(i)
// over its elements i.
func segValue(ends []int, cols int, term func(i int) float64) *tensor.Matrix {
	val := tensor.New(len(ends), 1)
	lo := 0
	for s, end := range ends {
		hi := end * cols
		if hi > lo {
			var sum float64
			for i := lo; i < hi; i++ {
				sum += term(i)
			}
			val.Data[s] = sum / float64(hi-lo)
		}
		lo = hi
	}
	return val
}

// bce is the binary cross-entropy of logit z against target y: log(1+e^z) −
// y·z, stable for both signs of z.
func bce(z, y float64) float64 {
	if z > 0 {
		return z - y*z + math.Log1p(math.Exp(-z))
	}
	return -y*z + math.Log1p(math.Exp(z))
}

// checkEnds panics unless ends are ascending row ends closing at rows, and
// returns them.
func checkEnds(ends []int, rows int) []int {
	if n := len(ends); n == 0 || ends[0] < 0 || ends[n-1] != rows || !sort.IntsAreSorted(ends) {
		panic(fmt.Sprintf("autodiff: segment ends %v are not ascending row ends closing at %d", ends, rows))
	}
	return ends
}
