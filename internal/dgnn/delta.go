package dgnn

import (
	"fmt"
	"math"

	"streamgnn/internal/graph"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// This file is the event-driven delta-propagation forward (InkStream-style):
// instead of recomputing the induced subgraph of Ball(Ball(S,L),L) — which
// explodes on high-degree hubs — the model is decomposed into stages (one per
// neighborhood aggregation or recurrent update), each stage keeps a cache of
// its last-accepted per-node outputs, and a step recomputes only candidate
// rows whose inputs could have changed. A recomputed row is accepted (cache
// and downstream frontier updated) only when it differs from the cached row
// by more than DeltaEpsilon in any component; sub-epsilon changes are
// discarded, stopping propagation early. At epsilon 0 every changed row is
// accepted, so the pass is bit-identical to a full forward; at epsilon > 0
// each cached stage row is within epsilon per component of its last accepted
// recomputation — the bounded-error regime, mirroring region splicing's
// bounded staleness for stateful models.
//
// Every row kernel below replicates the exact floating-point accumulation
// order of the full tensor path (tensor.MulRow, MatMul's own row kernel,
// SpMM's per-entry full-column accumulation in norm-row order, AddBias after
// aggregation), which is what makes epsilon-0 equality bitwise rather than
// approximate.

// DeltaForwarder is implemented by models that support event-driven delta
// propagation. The model is decomposed into DeltaStages sequential stages;
// stage outputs are cached per node in a DeltaState owned by the engine. The
// final stage's first Hidden() columns are the embedding.
type DeltaForwarder interface {
	Model
	// DeltaStages returns the number of propagation stages.
	DeltaStages() int
	// DeltaStageCols returns the cached output width of stage s.
	DeltaStageCols(s int) int
	// DeltaFull runs a full forward with plain tensor kernels, bit-identical
	// to Forward over FullView(g): it fills every stage cache in st, commits
	// recurrent state for all nodes, and returns a fresh embedding matrix the
	// caller owns (not aliased to any stage cache).
	DeltaFull(g *graph.Dynamic, st *DeltaState) *tensor.Matrix
	// DeltaRows recomputes stage s for the given global node ids (ascending),
	// reading earlier-stage inputs through p (overlay first, then cache) and
	// recurrent state live. It must not mutate any cache or state.
	DeltaRows(p *DeltaPass, s int, ids []int) *tensor.Matrix
	// DeltaCommit writes the accepted rows of a state-committing stage back
	// into the model's recurrent state, returning whether state was written.
	// rows[k] is the stage output for ids[k].
	DeltaCommit(s int, ids []int, rows *tensor.Matrix) bool
}

// DeltaState is the engine-owned cache behind delta propagation: one
// last-accepted output matrix per stage, plus the node ids whose recurrent
// state the previous pass committed (those nodes' state changed, so they
// seed the next pass's candidate set).
type DeltaState struct {
	stages        []*tensor.Matrix
	lastCommitted []int
}

// Valid reports whether the state holds stage caches to propagate against.
func (st *DeltaState) Valid() bool { return len(st.stages) > 0 }

// Invalidate drops all stage caches, forcing the next delta forward to be
// full. Called whenever model parameters change (training steps).
func (st *DeltaState) Invalidate() {
	st.stages = nil
	st.lastCommitted = nil
}

// LastCommitted returns the ids whose recurrent state the previous pass
// committed (ascending); empty for memoryless models and quiet states.
func (st *DeltaState) LastCommitted() []int { return st.lastCommitted }

// setStages installs full stage caches (DeltaFull's commit).
func (st *DeltaState) setStages(ms ...*tensor.Matrix) { st.stages = ms }

// DeltaDump serializes the delta caches for checkpointing: one StateDump per
// stage plus the committed-id set; both nil when the state is invalid.
func (st *DeltaState) DeltaDump() (stages []StateDump, committed []int) {
	if !st.Valid() {
		return nil, nil
	}
	stages = make([]StateDump, len(st.stages))
	for i, m := range st.stages {
		stages[i] = DumpMatrix(m)
	}
	return stages, append([]int(nil), st.lastCommitted...)
}

// DeltaRestore checks delta caches from a checkpoint against m and returns
// the install that replaces the state's caches with them.
func (st *DeltaState) DeltaRestore(m DeltaForwarder, stages []StateDump, committed []int) (func(), error) {
	if len(stages) != m.DeltaStages() {
		return nil, fmt.Errorf("dgnn: delta checkpoint has %d stage caches, model %s needs %d",
			len(stages), m.Name(), m.DeltaStages())
	}
	ms := make([]*tensor.Matrix, len(stages))
	for i, d := range stages {
		if d.Cols != m.DeltaStageCols(i) {
			return nil, fmt.Errorf("dgnn: delta stage %d cache is %d wide, model %s needs %d",
				i, d.Cols, m.Name(), m.DeltaStageCols(i))
		}
		mat, err := d.Matrix()
		if err != nil {
			return nil, err
		}
		ms[i] = mat
	}
	return func() {
		st.stages = ms
		st.lastCommitted = append([]int(nil), committed...)
	}, nil
}

// DeltaPass is the read context handed to DeltaRows: stage reads go through
// the pass's overlay (rows accepted earlier in this pass, not yet committed)
// before falling back to the last-accepted cache, so an aborted pass commits
// nothing.
type DeltaPass struct {
	g       *graph.Dynamic
	st      *DeltaState
	overlay []map[int][]float64
	row     tensor.CSR // ConvRow's scratch: one row of the normalized adjacency
	zero    []float64
}

func newDeltaPass(g *graph.Dynamic, m DeltaForwarder, st *DeltaState) *DeltaPass {
	n := m.DeltaStages()
	p := &DeltaPass{g: g, st: st, overlay: make([]map[int][]float64, n)}
	maxCols := 0
	for s := 0; s < n; s++ {
		p.overlay[s] = make(map[int][]float64)
		if c := m.DeltaStageCols(s); c > maxCols {
			maxCols = c
		}
	}
	p.zero = make([]float64, maxCols)
	return p
}

// Feat returns node id's live attribute vector.
func (p *DeltaPass) Feat(id int) []float64 { return p.g.Feature(id) }

// StageRow returns node id's stage-s output: this pass's accepted value if
// one exists, else the last-accepted cache row, else zero (a node the stage
// has never produced). Callers must not mutate the returned slice.
func (p *DeltaPass) StageRow(s, id int) []float64 {
	if row, ok := p.overlay[s][id]; ok {
		return row
	}
	c := p.st.stages[s]
	if id < c.Rows {
		return c.Row(id)
	}
	return p.zero[:c.Cols]
}

// ConvRow computes row v of a GCN convolution (AddBias(SpMM(norm, MatMul(x,
// W)), B)) with input rows supplied by input(u), replicating the full path's
// floating-point order: for each normalized-adjacency entry of row v (self
// loop, out-edges, in-edges — the cache construction order), the neighbor's
// x·W row is computed by MatMul's own row kernel and accumulated with SpMM's
// per-entry full-column add; the bias lands after aggregation. out receives
// the row; xw is a Conv.Out()-wide scratch.
func (p *DeltaPass) ConvRow(conv *nn.GCNConv, v int, input func(u int) []float64, out, xw []float64) {
	for j := range out {
		out[j] = 0
	}
	p.g.NormRow(v, &p.row)
	w := conv.Weight().Value
	for k, u := range p.row.ColIdx {
		tensor.MulRow(xw, input(u), w)
		for j, xv := range xw {
			out[j] += p.row.Val[k] * xv
		}
	}
	b := conv.Bias().Value.Data
	for j := range out {
		out[j] += b[j]
	}
}

// linearRow computes one row of a Linear apply: out = xrow·W + b.
func linearRow(xrow []float64, lin *nn.Linear, out []float64) {
	tensor.MulRow(out, xrow, lin.W.Value)
	b := lin.B.Value.Data
	for j := range out {
		out[j] += b[j]
	}
}

func reluInPlace(row []float64) {
	for j, v := range row {
		if v <= 0 {
			row[j] = 0
		}
	}
}

func sigmoidInPlace(row []float64) {
	for j, v := range row {
		row[j] = tensor.Sigmoid(v)
	}
}

func tanhInPlace(row []float64) {
	for j, v := range row {
		row[j] = math.Tanh(v)
	}
}

// exceedsEps reports whether any component of the recomputed row differs
// from the cached row by more than eps (NaNs always count as changed).
func exceedsEps(fresh, cached []float64, eps float64) bool {
	for j := range fresh {
		d := math.Abs(fresh[j] - cached[j])
		if d > eps || math.IsNaN(d) {
			return true
		}
	}
	return false
}

// RunDeltaFull runs the model's full-tensor forward, refreshing every stage
// cache, and records the full id range as committed for stateful models — a
// full forward rewrites every node's recurrent state, so every node must
// seed the next pass's candidate set. The returned matrix is fresh and owned
// by the caller. Bit-identical to Forward over FullView.
func RunDeltaFull(g *graph.Dynamic, m DeltaForwarder, st *DeltaState) *tensor.Matrix {
	out := m.DeltaFull(g, st)
	if m.Memoryless() {
		st.lastCommitted = nil
	} else {
		all := make([]int, g.N())
		for i := range all {
			all[i] = i
		}
		st.lastCommitted = all
	}
	return out
}

// DeltaResult summarizes one delta pass for the engine's telemetry.
type DeltaResult struct {
	// Out is the store's live embedding matrix after the splice; nil when
	// the pass aborted.
	Out *tensor.Matrix
	// Aborted is set when a stage's candidate set exceeded the frontier
	// budget; nothing was committed and the caller must fall back to a full
	// forward.
	Aborted bool
	// Candidates counts candidate-row recomputations summed over stages.
	Candidates int
	// Pruned counts candidate rows whose recomputation stayed within epsilon
	// of the cache and was discarded.
	Pruned int
}

// RunDelta runs one delta-propagation pass: per stage, the candidate set is
// the 1-hop ball around the previous stage's accepted frontier plus this
// step's dirty nodes and the previous pass's state commits (covering
// normalization-row changes, changed neighbor inputs, and recurrent-state
// drift). Candidates are recomputed row-by-row; rows within eps of the cache
// are pruned. All commits — stage caches, recurrent state, the embedding
// splice — are deferred until every stage has run, so an abort (candidate
// set above maxCand) leaves the caches, the model, and the store untouched.
//
// dirty and st.lastCommitted must be ascending. emb must be valid and hold
// rows for every node the previous pass knew.
func RunDelta(g *graph.Dynamic, m DeltaForwarder, st *DeltaState, emb *EmbStore, dirty []int, eps float64, maxCand int) DeltaResult {
	n := g.N()
	nStages := m.DeltaStages()
	sources := MergeSorted(dirty, st.lastCommitted)
	p := newDeltaPass(g, m, st)

	type stageCommit struct {
		ids  []int
		rows *tensor.Matrix
	}
	commits := make([]stageCommit, nStages)
	var res DeltaResult
	var frontier []int
	for s := 0; s < nStages; s++ {
		cand := g.Ball(MergeSorted(frontier, sources), 1)
		if len(cand) > maxCand {
			return DeltaResult{Aborted: true}
		}
		res.Candidates += len(cand)
		rows := m.DeltaRows(p, s, cand)
		cache := st.stages[s]
		accepted := make([]int, 0, len(cand))
		for k, id := range cand {
			if id < cache.Rows && !exceedsEps(rows.Row(k), cache.Row(id), eps) {
				continue
			}
			accepted = append(accepted, k)
		}
		res.Pruned += len(cand) - len(accepted)
		ids := make([]int, len(accepted))
		acc := tensor.New(len(accepted), rows.Cols)
		for a, k := range accepted {
			ids[a] = cand[k]
			copy(acc.Row(a), rows.Row(k))
			p.overlay[s][cand[k]] = acc.Row(a)
		}
		commits[s] = stageCommit{ids: ids, rows: acc}
		frontier = ids
	}

	// Commit phase: grow and update stage caches, write recurrent state,
	// splice the final stage's embedding rows.
	var committed []int
	for s := 0; s < nStages; s++ {
		c := commits[s]
		if cache := st.stages[s]; cache.Rows < n {
			grown := tensor.New(n, cache.Cols)
			copy(grown.Data, cache.Data)
			st.stages[s] = grown
		}
		cache := st.stages[s]
		for a, id := range c.ids {
			copy(cache.Row(id), c.rows.Row(a))
		}
		if m.DeltaCommit(s, c.ids, c.rows) {
			committed = MergeSorted(committed, c.ids)
		}
	}
	st.lastCommitted = committed

	final := commits[nStages-1]
	hd := m.Hidden()
	if len(final.ids) > 0 {
		rows := make([]int, len(final.ids))
		embRows := tensor.New(len(final.ids), hd)
		for a := range final.ids {
			rows[a] = a
			copy(embRows.Row(a), final.rows.Row(a)[:hd])
		}
		emb.Splice(embRows, rows, final.ids)
	}
	res.Out = emb.Matrix()
	return res
}
