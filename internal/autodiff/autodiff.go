// Package autodiff implements a small tape-based reverse-mode automatic
// differentiation engine over dense matrices. It provides exactly the set of
// operations needed to express the seven dynamic-graph-neural-network
// baselines used in the paper's evaluation, plus SGD and Adam optimizers.
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
// Every tape learns, pass by pass, which op reads each value last, and a
// row-local op that reads an operand for the last time writes its result over
// that operand's buffer instead of drawing one — on a recording tape only
// where no backward rule reads the operand's value (see reuse). Forwards that
// will never run Backward — the engine's per-step inference, query-head
// scoring — use an inference tape (NewInferenceTape): the same ops compute
// the same values but record nothing, and the tape also hands each
// intermediate buffer back to the tensor pool at its last use.
//
// A concatenation (ConcatCols) is a view over its operands, never a copy: the
// products' left factors, SpMM, GatherRows, Head and ConcatCols read its parts
// where they are, any other reader panics, and its gradient is kept per part,
// for the parts that need one (see Node.parts). A read of a view is a read of each
// part, for the plan as for the kernels; Pin pins a view part by part.
package autodiff

import (
	"fmt"
	"math"
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
	opNone opKind = iota // leaf: Param, Constant, Owned scratch
	opMatMul
	opSpMM
	opAdd
	opSub
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
	opHead
)

// Node is one value in the computation graph.
type Node struct {
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	requiresGrad bool
	op           opKind
	parents      []*Node
	visited      bool
	// seq is the node's 1-based position on the tape that recorded it; 0 for
	// leaves (Param, Constant), which no tape owns.
	seq int32

	// Backward-rule state (meaning depends on op): aux holds a matrix the
	// rule reads (MSE residual, BCE target), auxCSR the sparse operand of
	// SpMM, auxF a scalar (Scale's factor), and auxInts an index list
	// (GatherRows/ScatterRows rows, MSESeg/BCESeg segment ends). aux
	// matrices are either tape-owned (recycled via their own record) or
	// caller-owned; they are never recycled through this field.
	aux     *tensor.Matrix
	auxCSR  *tensor.CSR
	auxF    float64
	auxInts []int

	// parts makes the node a view (ConcatCols, and a Head of a view): its
	// value is the leading Value.Rows rows of these operands side by side,
	// nested concatenations flattened, read where they are, and Value is a
	// shape with no data of its own. mats holds the parts' values for the
	// kernels; grads, on a recording tape, the view's gradient part by part,
	// nil for a part that needs none. All three are empty on every other node.
	parts []*Node
	mats  []*tensor.Matrix
	grads []*tensor.Matrix
}

// Tape records a forward computation for reverse-mode differentiation.
type Tape struct {
	nodes []*Node
	// free holds node shells recovered by Release; newNode reuses them (and
	// their parents/auxInts slice capacity) so a reused tape records a whole
	// forward pass with almost no allocation.
	free []*Node
	// order is Backward's topological-sort scratch, reused across calls.
	order []*Node
	// backwardRan is set by Backward and cleared by Release: a second pass
	// would run the rules again over gradients the first left.
	backwardRan bool

	// noGrad marks an inference tape (NewInferenceTape). plan is the last-use
	// plan learned from the previous pass, cur the one this pass is learning,
	// and planOK whether every op of this pass so far matched plan. into is
	// the input whose buffer the op being computed writes its result into
	// (see reuse), until record moves the buffer to the op's output.
	noGrad    bool
	plan, cur []planStep
	planOK    bool
	into      *Node
}

// planStep is one recorded node of a pass: the op that produced it and which
// recorded nodes it read (the structural signature a later pass is matched
// against), and the index of the last op that read its value.
type planStep struct {
	op   opKind
	in   [3]int32 // seq of the recorded inputs; 0 for leaves and absent inputs
	last int32    // index of the last reader, lastNone or lastKept
}

const (
	lastNone int32 = -1 // no op reads the value: it lives until Release
	lastKept int32 = -2 // pinned by Pin, or read by a backward rule
)

// NewTape returns an empty recording tape, for forwards that run Backward.
// Every value lives until Release, so the backward rules can read it — but a
// warm tape gives a row-local op (see NewInferenceTape) the buffer of an
// operand it reads last, by the plan the previous pass left, unless a backward
// rule reads that operand's value: Sigmoid, Tanh and ReLU read their output;
// MatMul, Mul and MatMulAcc read an operand when the other one needs a
// gradient; BCESeg reads its logits (ruleReads). Every other rule reads
// shapes alone, which the written-over operand keeps. A reader whose rule
// reads a value pins it, as Pin does, when it is recorded.
func NewTape() *Tape { return &Tape{} }

// NewInferenceTape returns a tape in inference (no-grad) mode, for forwards
// that never run Backward. Every op computes its value and nothing else — no
// parents, no requiresGrad, no index copies; the odd pointer or scalar an op
// stashes on its node shell is inert and cleared at Release — so the model
// code that defines a training forward also defines the inference forward, at
// the cost of the values alone.
//
// The tape owns every op output (and every Owned matrix) and recycles it into
// the tensor pool: at Release at the latest, and normally right after the last
// op that reads it. Last uses are learned, not declared: each pass records per
// node which op read it last, and the next pass releases on that schedule for
// as long as its own op sequence matches the recorded one op for op; at the
// first mismatch it stops releasing early and relearns. A long-lived tape
// running the same model therefore keeps only a handful of matrices live at
// any point of a forward.
//
// A row-local op — Add, Sub, Mul, Scale, AddBias, Sigmoid, Tanh, ReLU,
// OneMinus, MatMulAcc's sum, ScatterRows's base, Head — does better than
// release its dying operand right after allocating a buffer of the same
// shape: it writes its result into that operand's buffer (Head takes a prefix
// of it), which then belongs to the output. The arithmetic and its order are
// the allocating op's, so every value is bit-identical. A recording tape
// writes in place the same way but releases nothing before Release.
//
// Ownership rule: every buffer has one owner, the one node whose Value it is,
// so Release hands each back exactly once. Nothing may hold a tape value past
// Release except the forward's output, taken with Detach. A value that code
// outside the tape's ops reads after the ops are done with it (a
// recurrent-state commit) must be pinned with Keep or Pin, which also keep
// every op from writing over it. Backward panics on an inference tape.
func NewInferenceTape() *Tape { return &Tape{noGrad: true} }

// endPass ends a pass: the next may run Backward, and follows the plan this
// one learned.
func (t *Tape) endPass() {
	t.backwardRan = false
	t.plan, t.cur = t.cur, t.plan[:0]
	t.planOK = true
	t.into = nil // an op that panicked between reuse and record
}

// Release recycles every buffer recorded on the tape back into the tensor
// pool and ends the pass, keeping the node shells, and the plan the pass
// learned, for the next forward pass on this tape: it is the one way a pass
// ends. Only recorded nodes' values and gradients are recycled: Param and
// Constant nodes are never recorded, so persistent parameters, their
// gradients, and caller-owned constants are untouched. A buffer is the Value,
// or the Grad, of one recorded node at a time — an op that writes into an
// input's buffer takes it from that input, whose Value is left without data,
// and a backward rule that hands its gradient down leaves its own Grad nil —
// so it is released at most once. Call only when nothing retains the tape's
// values — after the backward and the utility reads of a training round;
// after Detach has taken the output of an inference forward.
func (t *Tape) Release() {
	for _, n := range t.nodes {
		tensor.Recycle(n.Value)
		if n.Grad != nil {
			tensor.Recycle(n.Grad)
			n.Grad = nil
		}
		for _, g := range n.grads {
			tensor.Recycle(g)
		}
		clear(n.parts)
		clear(n.mats)
		clear(n.grads)
		n.parts, n.mats, n.grads = n.parts[:0], n.mats[:0], n.grads[:0]
		n.Value = nil
		n.op = opNone
		n.aux = nil
		n.auxCSR = nil
		n.parents = n.parents[:0]
		n.seq = 0
	}
	t.free = append(t.free, t.nodes...)
	t.nodes = t.nodes[:0]
	t.endPass()
}

// Detach takes n's value out of the tape's ownership and returns it: Release
// will not recycle it. The engine detaches the output of an inference forward
// before releasing the tape, because the embedding store and the serving
// snapshots keep aliasing that matrix. A value that is the head of a longer
// buffer (a Head may take its parent's) is copied out instead, so the longer
// buffer goes back to the pool at Release.
func (t *Tape) Detach(n *Node) *tensor.Matrix {
	m := n.dense("Detach")
	if n.seq == 0 {
		return m
	}
	if tensor.Oversized(m) {
		return m.Clone()
	}
	n.Value = nil
	return m
}

// Keep pins n's value (Pin) and returns it, for code that reads it outside
// the tape's ops (a model committing recurrent state). A view has no value of
// its own to return: Keep of one panics.
func (t *Tape) Keep(n *Node) *tensor.Matrix {
	m := n.dense("Keep")
	t.Pin(n)
	return m
}

// Pin keeps n's value until Release — a view's part by part, with no copy —
// for a value read after the last op that consumes it, or whose readers vary
// from pass to pass. Call it on every pass, whether or not the value ends up
// being read: it holds from the call on in this pass, and from the start in
// the next through the plan the pass leaves behind. A pinned value is neither
// released early nor written over, on either kind of tape.
func (t *Tape) Pin(n *Node) {
	gone := func(q *Node) bool { return q.seq != 0 && (q.Value == nil || q.Value.Data == nil) }
	if !n.view() && gone(n) || slices.ContainsFunc(n.parts, gone) {
		panic("autodiff: Pin of a value the tape already released or wrote over; Pin must be called on every pass")
	}
	t.pin(n)
}

// pin keeps n's value, and a view's parts, from being released early or
// written over, from now on in this pass and from the start of the next.
func (t *Tape) pin(n *Node) {
	if n.seq != 0 {
		t.cur[n.seq-1].last = lastKept
	}
	for _, q := range n.parts {
		if q.seq != 0 {
			t.cur[q.seq-1].last = lastKept
		}
	}
}

// view reports whether n is a view over parts (see Node.parts).
func (n *Node) view() bool { return len(n.parts) > 0 }

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

// dense returns n's value for op, a reader that cannot read a view's parts:
// of a view it panics, before op's kernel runs.
func (n *Node) dense(op string) *tensor.Matrix {
	if n.view() {
		panic("autodiff: " + op + " cannot read a concatenation view; only MatMul's left factor, MatMulAcc's x, SpMM, GatherRows, Head and ConcatCols can")
	}
	return n.Value
}

// Len returns the number of recorded nodes (for tests).
func (t *Tape) Len() int { return len(t.nodes) }

// Param wraps a persistent parameter matrix in a gradient-tracked node.
// The node's Grad buffer is allocated lazily by Backward.
func Param(v *tensor.Matrix) *Node {
	return &Node{Value: v, requiresGrad: true}
}

// Constant wraps a matrix that does not require a gradient.
func Constant(v *tensor.Matrix) *Node {
	return &Node{Value: v}
}

// alloc returns a recorded node shell, reusing one recovered by Release.
func (t *Tape) alloc(v *tensor.Matrix, reqGrad bool) *Node {
	var n *Node
	if k := len(t.free); k > 0 {
		n = t.free[k-1]
		t.free = t.free[:k-1]
		n.Value = v
		n.requiresGrad = reqGrad
	} else {
		n = &Node{Value: v, requiresGrad: reqGrad}
	}
	t.nodes = append(t.nodes, n)
	n.seq = int32(len(t.nodes))
	return n
}

// Owned registers a gradient-free scratch matrix on the tape so Release
// recycles its buffer along with the op outputs. Use only for matrices built
// fresh for this forward pass (loss targets, gathered features, sampled
// batches) that nothing reads after Backward. Returns m for chaining.
func (t *Tape) Owned(m *tensor.Matrix) *tensor.Matrix {
	return t.OwnedConstant(m).Value
}

// OwnedConstant is Owned for a matrix that feeds the tape's ops: it returns
// the gradient-free node to pass to them, so an inference tape sees the reads
// and can recycle the buffer after the last one (gathered recurrent state).
func (t *Tape) OwnedConstant(m *tensor.Matrix) *Node {
	return t.record(opNone, m, false, nil, nil, nil)
}

// newNode1 records a node with one parent (fixed arity avoids a variadic
// argument slice on the hot path).
func (t *Tape) newNode1(op opKind, v *tensor.Matrix, reqGrad bool, p *Node) *Node {
	return t.record(op, v, reqGrad, p, nil, nil)
}

// newNode2 records a node with two parents.
func (t *Tape) newNode2(op opKind, v *tensor.Matrix, reqGrad bool, p1, p2 *Node) *Node {
	return t.record(op, v, reqGrad, p1, p2, nil)
}

// record records a node with up to three parents (nil ones are absent) and
// its plan step, moves the buffer of the input the op wrote into (see reuse)
// to the new node, and pins the values the node's backward rule reads
// (ruleReads). An inference tape records no parents and no gradient, and
// releases the inputs whose last use, by the learned plan, this op was.
func (t *Tape) record(op opKind, v *tensor.Matrix, reqGrad bool, p1, p2, p3 *Node) *Node {
	if p := t.into; p != nil {
		// The output gets a header of its own and the input's goes stale, as
		// Recycle leaves it: a reference to it kept outside the tape fails
		// loudly instead of reading the output. On a recording tape the input
		// keeps its shape, which ensureGrad and the slicing rules read.
		t.into = nil
		if v == p.Value {
			v = tensor.FromSlice(v.Rows, v.Cols, v.Data)
		}
		p.Value.Data = nil
		if t.noGrad {
			p.Value = nil
		}
	}
	ps := [...]*Node{p1, p2, p3}
	n := t.alloc(v, reqGrad && !t.noGrad)
	if !t.noGrad {
		n.op = op
		for _, p := range ps {
			if p != nil {
				n.parents = append(n.parents, p)
			}
		}
	}
	i := n.seq - 1
	st := planStep{op: op, in: inputs(p1, p2, p3), last: lastNone}
	t.cur = append(t.cur, st)
	if t.planOK {
		t.planOK = t.matches(i, op, st.in)
	}
	// A read of a view is a read of each of its parts. An op that makes a
	// view releases none of them: the view's value holds from its creation
	// on, as any op's does.
	release := op != opConcatCols && (op != opHead || !p1.view())
	for _, p := range ps {
		if p == nil {
			continue
		}
		t.read(p.seq, i, release)
		for _, q := range p.parts {
			t.read(q.seq, i, release)
		}
	}
	in, out := t.ruleReads(op, ps)
	for k, p := range ps {
		if in[k] {
			t.pin(p)
		}
	}
	if out {
		t.cur[i].last = lastKept
	}
	return n
}

// ruleReads is the table of values the backward rule of an op of kind op on
// inputs ps reads, on a recording tape: which inputs, and whether its own
// output. Every rule not listed reads shapes alone. A weight rule reads the
// parts of a view left factor, MatMulAcc's sum among them if x holds it.
func (t *Tape) ruleReads(op opKind, ps [3]*Node) (in [3]bool, out bool) {
	if t.noGrad {
		return in, false
	}
	switch op {
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

// inputs is the plan signature of an op's inputs: their seqs, 0 for leaves
// and absent inputs.
func inputs(p1, p2, p3 *Node) (in [3]int32) {
	for k, p := range [...]*Node{p1, p2, p3} {
		if p != nil {
			in[k] = p.seq
		}
	}
	return in
}

// matches reports whether op i of this pass, of kind op on inputs in, is the
// one the plan recorded at i.
func (t *Tape) matches(i int32, op opKind, in [3]int32) bool {
	return int(i) < len(t.plan) && t.plan[i].op == op && t.plan[i].in == in
}

// reuse returns the buffer the op about to be recorded, of kind op on inputs
// p1..p3, may write its result into: that of the first of its leading cands
// inputs which, on a tape whose pass matches the plan up to and including
// this op, the tape owns, nobody pinned — with Pin, or by a backward rule
// that reads it (ruleReads), this op's own included — and the plan says this
// op reads last: an input no later op reads, so no later op can tell whether
// its buffer was written over or released. A read of a view counts as a read
// of its parts, so no part is written over while a view of it is read later.
// The op must take every element of the result from the same element (or,
// for Head, row) of that input, not read others after writing; an input it
// also reads as a non-candidate does not qualify (MatMulAcc's x may hold sum
// as a part: it assembles a row of x before it writes that row). A candidate
// is never a view: no row-local op reads one. record moves the buffer to the
// op's output. nil means the op allocates.
func (t *Tape) reuse(op opKind, cands int, p1, p2, p3 *Node) *tensor.Matrix {
	if !t.planOK {
		return nil
	}
	i := int32(len(t.nodes))
	ps := [...]*Node{p1, p2, p3}
	if !t.matches(i, op, inputs(p1, p2, p3)) {
		return nil
	}
	reads, _ := t.ruleReads(op, ps)
	for k, p := range ps[:cands] {
		if p.seq != 0 && p.Value != nil && t.plan[p.seq-1].last == i && !reads[k] &&
			t.cur[p.seq-1].last != lastKept && !slices.Contains(ps[cands:], p) {
			t.into = p
			return p.Value
		}
	}
	return nil
}

// read notes that op i of this pass read recorded node seq. On an inference
// tape it also recycles the node's buffer, if release is set and the plan
// (still matching) says nothing reads it afterwards; a recording tape keeps
// every value for the backward rules. A later read of a recycled or
// written-over value — possible only if the pass then departs from the plan
// in a way that revisits an old value — fails loudly on the missing data
// rather than computing on recycled storage.
func (t *Tape) read(seq, i int32, release bool) {
	if seq == 0 {
		return
	}
	c := &t.cur[seq-1]
	if c.last == lastKept {
		return // pinned earlier in this pass, whatever the plan learned
	}
	c.last = i
	if n := t.nodes[seq-1]; release && t.noGrad && n.Value != nil && t.planOK && t.plan[seq-1].last == i {
		tensor.Recycle(n.Value)
		n.Value = nil
	}
}

func anyGrad(ps ...*Node) bool {
	for _, p := range ps {
		if p.requiresGrad {
			return true
		}
	}
	return false
}

// ensureGrad returns the buffer a gradient contribution to n is added into:
// n's own Grad, zero-filled on first use, which for interior nodes is private
// to the tape. Callers have already checked n.requiresGrad.
func ensureGrad(n *Node) *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = tensor.New(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (1x1) node produced by this tape. Every reachable parameter's
// gradient is added into its Grad. An interior node's Grad is its gradient,
// unless its rule handed the buffer down to an operand, which leaves it nil
// (see runBack). A tape runs one backward per pass: a second one before
// Release panics.
func (t *Tape) Backward(root *Node) {
	if t.noGrad {
		panic("autodiff: Backward on an inference tape")
	}
	if t.backwardRan {
		panic("autodiff: second Backward on one tape; Release it first")
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
	ensureGrad(root)
	root.Grad.Data[0] = 1
	for i := len(t.order) - 1; i >= 0; i-- {
		if n := t.order[i]; n.hasGrad() {
			n.runBack()
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
func (out *Node) pass(p *Node, g *tensor.Matrix) {
	if fresh(p) {
		p.Grad, out.Grad = g, nil
		return
	}
	tensor.AddInPlace(ensureGrad(p), g)
}

// elementwise returns where an elementwise rule writes its contribution to p,
// and whether it adds: g itself, which the rule overwrites and which is
// handed down, when p is fresh; p's gradient, to add into, otherwise. Call it
// after every other read of g in the rule.
func (out *Node) elementwise(p *Node) (dst *tensor.Matrix, add bool) {
	if !fresh(p) {
		return ensureGrad(p), true
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

// put gives p the contribution m, drawn for this rule: m becomes p's
// gradient when p is fresh; otherwise it is added in and recycled at once —
// a temporary is no tape node, so without this it would drain the buffer
// pool every step.
func put(p *Node, m *tensor.Matrix) {
	if fresh(p) {
		p.Grad = m
		return
	}
	tensor.AddInPlace(ensureGrad(p), m)
	tensor.Recycle(m)
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
func (n *Node) slot(k int) (dst **tensor.Matrix, first bool) {
	if n.view() {
		return &n.grads[k], n.grads[k] == nil
	}
	if fresh(n) {
		return &n.Grad, true
	}
	ensureGrad(n)
	return &n.Grad, false
}

// putBlock gives block k of n the contribution m, as put gives a node.
func (n *Node) putBlock(k int, m *tensor.Matrix) {
	if dst, first := n.slot(k); first {
		*dst = m
	} else {
		tensor.AddInPlace(*dst, m)
		tensor.Recycle(m)
	}
}

// dInput gives p, the left factor of a product p·w, its share g·wᵀ: written
// as p's gradient when p is fresh, added straight in otherwise. A view's
// part takes its block g·W[part's rows]ᵀ, whose dot products are the ones
// g·wᵀ has in those columns; a part that needs no gradient costs nothing.
func dInput(p *Node, g, w *tensor.Matrix) {
	off := 0
	for k, m := range p.blocks() {
		wk := w.RowRange(off, off+m.Cols)
		off += m.Cols
		if !p.needs(k) {
			continue
		}
		if dst, first := p.slot(k); first {
			*dst = tensor.MatMulTransB(g, wk)
		} else {
			tensor.MatMulTransBAddTo(*dst, g, wk)
		}
	}
}

// runBack applies node out's backward rule, giving each parent that requires
// one its share of out's gradient g. One switch instead of per-node closures:
// see opKind.
//
// Every gradient buffer is written once and has one owner: a fresh parent's
// first share is written as its gradient — g itself, handed down, where the
// rule passes g on unchanged or elementwise — and later shares are added in.
// Against adding every share onto zeros only a first share changes, from
// +0 + s to s, so interior gradients differ at most in the sign of a zero and
// every parameter gradient, summed onto +0, is bit-identical for finite
// values (DESIGN.md §8, "Gradients in place").
//
// A view keeps its gradient part by part (Node.grads), which the rules of the
// ops that read views — the products' input rules, SpMM's, GatherRows',
// Head's and ConcatCols' — write block by block.
func (out *Node) runBack() {
	g := out.Grad
	switch out.op {
	case opMatMul:
		a, b := out.parents[0], out.parents[1]
		if a.requiresGrad {
			dInput(a, g, b.Value)
		}
		if b.requiresGrad {
			// Into a parameter the scatter's sums from +0 are what
			// fix the bits, so the product stays a temporary there.
			put(b, tensor.MatMulTransAConcat(a.concat(), g))
		}
		return
	case opMatMulAcc:
		// sum + x·w: Add's rule for sum, then MatMul's for x and w, in the
		// unfused pair's order. x's add form reads rows of g while it writes
		// x's gradient, so a sum that is also x takes a copy of g.
		sum, x, w := out.parents[0], out.parents[1], out.parents[2]
		if sum.requiresGrad {
			if sum == x && fresh(sum) {
				sum.Grad = g.Clone()
			} else {
				out.pass(sum, g)
			}
		}
		if x.requiresGrad {
			dInput(x, g, w.Value)
		}
		if w.requiresGrad {
			put(w, tensor.MatMulTransAConcat(x.concat(), g))
		}
		return
	case opSpMM:
		// A view's part takes SpMMTrans over its columns of g.
		x, off := out.parents[0], 0
		for k, m := range x.blocks() {
			if x.needs(k) {
				x.putBlock(k, tensor.SpMMTransCols(out.auxCSR, g, off, off+m.Cols))
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
			dst, first := a.slot(k)
			if first {
				*dst = tensor.New(a.Value.Rows, s.Cols)
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
					if dst, first := p.slot(j); first {
						*dst, out.grads[k] = s, nil
					} else {
						tensor.AddInPlace(*dst, s)
					}
				}
				k++
			}
		}
		return
	case opAdd, opSub:
		// a takes g first and unchanged; b reads it after, so b gets g (−g
		// for Sub) written into a buffer of its own.
		a, b := out.parents[0], out.parents[1]
		s := 1.0
		if out.op == opSub {
			s = -1
		}
		if a.requiresGrad {
			out.pass(a, g)
		}
		if b.requiresGrad {
			if fresh(b) {
				b.Grad = tensor.ScaleTo(nil, g, s)
			} else {
				tensor.AddScaledInPlace(ensureGrad(b), g, s)
			}
		}
	case opMul:
		// b's share g∘a first, then a's, g∘b, written over g when a is fresh.
		a, b := out.parents[0], out.parents[1]
		if b.requiresGrad {
			if fresh(b) {
				b.Grad = tensor.Mul(g, a.Value)
			} else {
				bg := ensureGrad(b)
				for i, v := range g.Data {
					bg.Data[i] += v * a.Value.Data[i]
				}
			}
		}
		if a.requiresGrad {
			dst, add := out.elementwise(a)
			for i, v := range g.Data {
				dst.Data[i] = plus(add, dst.Data[i], v*b.Value.Data[i])
			}
		}
	case opScale:
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := out.elementwise(a)
			for i, v := range g.Data {
				dst.Data[i] = plus(add, dst.Data[i], out.auxF*v)
			}
		}
	case opAddBias:
		m, b := out.parents[0], out.parents[1]
		if b.requiresGrad {
			bg := ensureGrad(b)
			for r := 0; r < g.Rows; r++ {
				for c, v := range g.Row(r) {
					bg.Data[c] += v
				}
			}
		}
		if m.requiresGrad {
			out.pass(m, g)
		}
	case opSigmoid:
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := out.elementwise(a)
			for i, y := range out.Value.Data {
				dst.Data[i] = plus(add, dst.Data[i], g.Data[i]*y*(1-y))
			}
		}
	case opTanh:
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := out.elementwise(a)
			for i, y := range out.Value.Data {
				dst.Data[i] = plus(add, dst.Data[i], g.Data[i]*(1-y*y))
			}
		}
	case opReLU:
		// Where a is not above 0 the share is +0: written as such into g,
		// left out of a sum, as adding onto zeros leaves it. The output is
		// above 0 exactly where a is (ReLUTo), and a may be written over.
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := out.elementwise(a)
			for i, y := range out.Value.Data {
				switch {
				case y > 0:
					dst.Data[i] = plus(add, dst.Data[i], g.Data[i])
				case !add:
					dst.Data[i] = 0
				}
			}
		}
	case opOneMinus:
		a := out.parents[0]
		if a.requiresGrad {
			dst, add := out.elementwise(a)
			for i, v := range g.Data {
				dst.Data[i] = plus(add, dst.Data[i], -v)
			}
		}
	case opGatherRows:
		// Row i of g goes to row auxInts[i] of a's gradient, block by block.
		a, off := out.parents[0], 0
		for k, m := range a.blocks() {
			if a.needs(k) {
				dst, first := a.slot(k)
				if first {
					*dst = tensor.New(a.Value.Rows, m.Cols)
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
			bg := ensureGrad(base)
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
			sg := ensureGrad(src)
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
			ag := ensureGrad(a)
			d := g.Data[0] / float64(a.Value.Rows*a.Value.Cols)
			for i := range ag.Data {
				ag.Data[i] += d
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
			lg := ensureGrad(logits)
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
			ag := ensureGrad(a)
			d := g.Data[0]
			for i := range ag.Data {
				ag.Data[i] += d
			}
		}
	}
}

// --- operations ---

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	return t.newNode2(opMatMul, tensor.MatMulConcat(a.concat(), b.dense("MatMul's right operand")), anyGrad(a, b), a, b)
}

// MatMulAcc returns sum + x·w as one op: the value and all three gradients
// are bit-identical to Add(sum, MatMul(x, w)), without materializing the
// product (see tensor.MatMulAccTo). On a warm tape it may add the product
// into sum's buffer.
func (t *Tape) MatMulAcc(sum, x, w *Node) *Node {
	dst := t.reuse(opMatMulAcc, 1, sum, x, w)
	return t.record(opMatMulAcc, tensor.MatMulAccConcatTo(dst, sum.dense("MatMulAcc's sum"), x.concat(), w.dense("MatMulAcc's w")), anyGrad(sum, x, w), sum, x, w)
}

// SpMM returns s·x where s is a constant sparse matrix (no gradient flows
// into s; this matches graph adjacency use).
func (t *Tape) SpMM(s *tensor.CSR, x *Node) *Node {
	out := t.newNode1(opSpMM, tensor.SpMMConcat(s, x.concat()), x.requiresGrad, x)
	out.auxCSR = s
	return out
}

// The row-local ops below may, on a warm tape, write into the buffer of an
// operand they read last (see reuse): either operand of Add, Sub and Mul, the
// matrix operand of the rest.

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	dst := t.reuse(opAdd, 2, a, b, nil)
	return t.newNode2(opAdd, tensor.AddTo(dst, a.dense("Add"), b.dense("Add")), anyGrad(a, b), a, b)
}

// Sub returns a−b.
func (t *Tape) Sub(a, b *Node) *Node {
	dst := t.reuse(opSub, 2, a, b, nil)
	return t.newNode2(opSub, tensor.SubTo(dst, a.dense("Sub"), b.dense("Sub")), anyGrad(a, b), a, b)
}

// Mul returns the Hadamard product a∘b.
func (t *Tape) Mul(a, b *Node) *Node {
	dst := t.reuse(opMul, 2, a, b, nil)
	return t.newNode2(opMul, tensor.MulTo(dst, a.dense("Mul"), b.dense("Mul")), anyGrad(a, b), a, b)
}

// Scale returns s·a for scalar constant s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	dst := t.reuse(opScale, 1, a, nil, nil)
	out := t.newNode1(opScale, tensor.ScaleTo(dst, a.dense("Scale"), s), a.requiresGrad, a)
	out.auxF = s
	return out
}

// AddBias returns m with the 1×cols bias row b added to every row.
func (t *Tape) AddBias(m, b *Node) *Node {
	dst := t.reuse(opAddBias, 1, m, b, nil)
	return t.newNode2(opAddBias, tensor.AddRowVectorTo(dst, m.dense("AddBias"), b.dense("AddBias")), anyGrad(m, b), m, b)
}

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	dst := t.reuse(opSigmoid, 1, a, nil, nil)
	return t.newNode1(opSigmoid, tensor.SigmoidTo(dst, a.dense("Sigmoid")), a.requiresGrad, a)
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	dst := t.reuse(opTanh, 1, a, nil, nil)
	return t.newNode1(opTanh, tensor.TanhTo(dst, a.dense("Tanh")), a.requiresGrad, a)
}

// ReLU applies max(0, x) elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	dst := t.reuse(opReLU, 1, a, nil, nil)
	return t.newNode1(opReLU, tensor.ReLUTo(dst, a.dense("ReLU")), a.requiresGrad, a)
}

// OneMinus returns 1−a elementwise (used by GRU gates).
func (t *Tape) OneMinus(a *Node) *Node {
	dst := t.reuse(opOneMinus, 1, a, nil, nil)
	return t.newNode1(opOneMinus, tensor.OneMinusTo(dst, a.dense("OneMinus")), a.requiresGrad, a)
}

// ConcatCols returns [a | b] as a view: no buffer of its own, its parts read
// where they are by the ops that can — MatMul's and MatMulAcc's left factor,
// SpMM's dense operand, GatherRows, Head, ConcatCols — while any other reader
// panics (see Node.parts). A concatenation of a view flattens into one list
// of parts. Its gradient is kept part by part, for the parts that need one.
func (t *Tape) ConcatCols(a, b *Node) *Node {
	if a.Value.Rows != b.Value.Rows {
		panic(fmt.Sprintf("autodiff: ConcatCols row mismatch %d vs %d", a.Value.Rows, b.Value.Rows))
	}
	return t.newView(opConcatCols, a.Value.Rows, a, b)
}

// newView records a view of kind op over the leading rows rows of a's parts
// and, unless nil, b's: an operand's own parts if it is a view, else itself.
func (t *Tape) newView(op opKind, rows int, a, b *Node) *Node {
	out := t.record(op, &tensor.Matrix{Rows: rows}, a.requiresGrad || b != nil && b.requiresGrad, a, b, nil)
	for _, p := range [...]*Node{a, b} {
		if p == nil {
			continue
		}
		out.Value.Cols += p.Value.Cols
		out.mats = append(out.mats, p.blocks()...)
		if p.view() {
			out.parts = append(out.parts, p.parts...)
		} else {
			out.parts = append(out.parts, p)
		}
	}
	if !t.noGrad {
		for range out.parts {
			out.grads = append(out.grads, nil)
		}
	}
	return out
}

// GatherRows selects the given rows of a, of a view's parts where they are.
func (t *Tape) GatherRows(a *Node, rows []int) *Node {
	out := t.newNode1(opGatherRows, tensor.GatherRowsConcat(a.concat(), rows), a.requiresGrad, a)
	if !t.noGrad {
		// Defensive copy into the shell's reusable index scratch: the caller
		// may mutate rows before Backward runs.
		out.auxInts = append(out.auxInts[:0], rows...)
	}
	return out
}

// ScatterRows returns base with row rows[i] replaced by src's row i: the
// inverse of GatherRows(·, rows) over a background. rows must be strictly
// ascending (the backward rule walks them beside base's rows). The result is
// a copy of base, unless a warm tape scatters into base's own buffer, which
// base's last read allows (see reuse).
func (t *Tape) ScatterRows(base, src *Node, rows []int) *Node {
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			panic(fmt.Sprintf("autodiff: ScatterRows rows not strictly ascending at %d", i))
		}
	}
	bv, sv := base.dense("ScatterRows"), src.dense("ScatterRows")
	val := t.reuse(opScatterRows, 1, base, src, nil)
	if val == nil {
		val = bv.Clone()
	}
	tensor.ScatterRows(val, sv, rows)
	out := t.newNode2(opScatterRows, val, anyGrad(base, src), base, src)
	if !t.noGrad {
		out.auxInts = append(out.auxInts[:0], rows...)
	}
	return out
}

// Head returns a's leading rows rows — a itself when that is all of them. Of
// a view it is a view of the parts' leading rows. Otherwise it is a copy,
// unless a is read for the last time here on a warm tape: then the head is
// the leading part of a's buffer, which it takes from a (see reuse). A view
// of a value that lives on would leave its buffer two owners, and Release, or
// the learned plan, could recycle it while one still reads.
func (t *Tape) Head(a *Node, rows int) *Node {
	if rows == a.Value.Rows {
		return a
	}
	if rows < 0 || rows > a.Value.Rows {
		panic(fmt.Sprintf("autodiff: Head %d of %d rows", rows, a.Value.Rows))
	}
	if a.view() {
		return t.newView(opHead, rows, a, nil)
	}
	var val *tensor.Matrix
	if m := t.reuse(opHead, 1, a, nil, nil); m != nil {
		val = tensor.FromSlice(rows, m.Cols, m.Data[:rows*m.Cols])
	} else {
		val = tensor.NewUninit(rows, a.Value.Cols)
		copy(val.Data, a.Value.Data)
	}
	return t.newNode1(opHead, val, a.requiresGrad, a)
}

// Mean returns the scalar mean of all elements of a.
func (t *Tape) Mean(a *Node) *Node {
	val := tensor.FromSlice(1, 1, []float64{a.dense("Mean").Mean()})
	return t.newNode1(opMean, val, a.requiresGrad, a)
}

// Sum returns the scalar sum of all elements of a.
func (t *Tape) Sum(a *Node) *Node {
	return t.newNode1(opSum, tensor.FromSlice(1, 1, []float64{a.dense("Sum").Sum()}), a.requiresGrad, a)
}

// MSE returns mean squared error between pred and the constant target.
func (t *Tape) MSE(pred *Node, target *tensor.Matrix) *Node {
	return t.MSESeg(pred, target, []int{pred.Value.Rows})
}

// MSESeg returns the mean squared error of each row segment of pred against
// the constant target, as a len(ends)×1 column: segment s is the rows from
// ends[s-1] (0 for the first) up to ends[s], ends ascending and ending at
// pred's row count. Each mean is summed over its own rows in order and takes
// its own gradient, exactly as MSE over those rows alone; an empty segment
// reads 0 and passes no gradient on.
func (t *Tape) MSESeg(pred *Node, target *tensor.Matrix, ends []int) *Node {
	diff := t.Owned(tensor.Sub(pred.dense("MSESeg"), target))
	val := tensor.New(len(ends), 1)
	lo := 0
	for s, end := range checkEnds(ends, diff.Rows) {
		hi := end * diff.Cols
		if hi > lo {
			var sum float64
			for _, v := range diff.Data[lo:hi] {
				sum += v * v
			}
			val.Data[s] = sum / float64(hi-lo)
		}
		lo = hi
	}
	return t.segNode(opMSESeg, val, pred, diff, ends)
}

// segNode records a segmented loss's column with the matrix and the segment
// ends its backward rule reads.
func (t *Tape) segNode(op opKind, val *tensor.Matrix, in *Node, aux *tensor.Matrix, ends []int) *Node {
	out := t.newNode1(op, val, in.requiresGrad, in)
	out.aux = aux
	if !t.noGrad {
		out.auxInts = append(out.auxInts[:0], ends...)
	}
	return out
}

// BCEWithLogits returns mean binary cross-entropy of logits against the
// constant 0/1 target matrix, computed in a numerically stable form.
func (t *Tape) BCEWithLogits(logits *Node, target *tensor.Matrix) *Node {
	return t.BCESeg(logits, target, []int{logits.Value.Rows})
}

// BCESeg is BCEWithLogits per row segment, segments and result laid out as
// MSESeg's.
func (t *Tape) BCESeg(logits *Node, target *tensor.Matrix, ends []int) *Node {
	if logits.dense("BCESeg").Rows != target.Rows || logits.Value.Cols != target.Cols {
		panic("autodiff: BCEWithLogits shape mismatch")
	}
	val := tensor.New(len(ends), 1)
	lo := 0
	for s, end := range checkEnds(ends, target.Rows) {
		hi := end * target.Cols
		if hi > lo {
			var sum float64
			for i, z := range logits.Value.Data[lo:hi] {
				y := target.Data[lo+i]
				// log(1+e^z) - y*z, stable for both signs of z.
				if z > 0 {
					sum += z - y*z + math.Log1p(math.Exp(-z))
				} else {
					sum += -y*z + math.Log1p(math.Exp(z))
				}
			}
			val.Data[s] = sum / float64(hi-lo)
		}
		lo = hi
	}
	return t.segNode(opBCESeg, val, logits, target, ends)
}

// checkEnds panics unless ends are ascending row ends closing at rows, and
// returns them.
func checkEnds(ends []int, rows int) []int {
	if n := len(ends); n == 0 || ends[0] < 0 || ends[n-1] != rows || !sort.IntsAreSorted(ends) {
		panic(fmt.Sprintf("autodiff: segment ends %v are not ascending row ends closing at %d", ends, rows))
	}
	return ends
}
