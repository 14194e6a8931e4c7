package dgnn

import (
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// DCRNNModel is DCRNN (Li et al.): a GRU whose gate transforms are K-step
// bidirectional diffusion convolutions over the forward and reverse
// random-walk transition matrices. K == 2, so Layers() == 2.
type DCRNNModel struct {
	//streamlint:ckpt-exempt trainable parameters, serialized through Params() by the engine checkpoint
	cell *nn.ConvGRUCell
	//streamlint:ckpt-exempt architecture configuration, validated against the checkpoint header
	hidden int
	//streamlint:ckpt-exempt diffusion order is construction-time configuration
	k     int
	state *nodeState
	//streamlint:ckpt-exempt the state fields above again, which DumpState serializes
	nodeStates
}

// NewDCRNN returns a DCRNN with diffusion order 2.
func NewDCRNN(rng *rand.Rand, featDim, hidden int) *DCRNNModel {
	const k = 2
	m := &DCRNNModel{
		cell: nn.NewConvGRUCell(func() nn.Module {
			return nn.NewDiffusionConv(rng, featDim+hidden, hidden, k)
		}),
		hidden: hidden,
		k:      k,
		state:  newNodeState(hidden),
	}
	m.nodeStates = nodeStates{m.state}
	return m
}

// Name implements Model.
func (m *DCRNNModel) Name() string { return "DCRNN" }

// Layers implements Model.
func (m *DCRNNModel) Layers() int { return m.k }

// Hidden implements Model.
func (m *DCRNNModel) Hidden() int { return m.hidden }

// Params implements Model.
func (m *DCRNNModel) Params() []*autodiff.Node { return m.cell.Params() }

// WrapOptimizer implements Model.
func (m *DCRNNModel) WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer { return opt }

// Forward implements Model. The update and reset gates convolve the same
// input [x|h], a constant of the tape, so its K-step propagation is computed
// once and shared; the candidate gate's input differs and propagates afresh.
//
// A view in demand order is still forwarded whole — K hops over the active
// block do not reduce to leading blocks of one adjacency — and hands back its
// wanted rows. A view that lists its wanted rows (View.Want) gets those alone:
// the update gate, the candidate and the combine run on them, and the
// candidate's input propagates only to the rows they read, hop by hop and
// direction by direction (hopDemand). The reset gate and the propagation of
// [x|h] stay on every row. On the rows the candidate reads two hops out they
// would save that propagation's other rows, but copy x, h and [x|h] on the
// rows they keep, for no net saving (DESIGN.md §18).
func (m *DCRNNModel) Forward(tp *autodiff.Tape, v View) *autodiff.Node {
	h := tp.OwnedConstant(m.state.gather(v))
	rw := v.RWFn()
	var cand [][2][]int
	if v.Want != nil {
		cand = hopDemand(rw, v.Want, m.k)
	}
	var d nn.Diffused
	conv := func(mod nn.Module, in *autodiff.Node, rows nn.Rows) *autodiff.Node {
		if d.X != in {
			// The cell convolves [x|h] for its update and reset gates first,
			// then the candidate's input.
			var demand [][2][]int
			if d.X != nil {
				demand = cand
			}
			d = nn.Diffuse(tp, rw, in, m.k, demand)
		}
		return mod.(*nn.DiffusionConv).ApplyDiffused(tp, d, rows.Want)
	}
	hNew := m.cell.ApplyRows(tp, conv, autodiff.Constant(v.Feat), h, nn.Rows{N: v.N, Want: v.Want}, v.N)
	m.state.commit(tp, v, hNew)
	if v.Want != nil {
		return hNew
	}
	return tp.Head(hNew, v.rows(0))
}

// hopDemand returns, per hop and direction, the rows a k-hop propagation
// computes for convolutions read on the ascending rows out: hop k on out's
// active rows; each hop below on those and on every row the hop above reads
// through that direction's transition rows that can be nonzero there. A row of
// hop h can be nonzero when its transition row names a row that can be
// nonzero at hop h−1 (any row of the input, at h = 1); every other row of hop
// h is +0, so the hop above adds nothing for it and it is left out
// (tensor.CSR.Block). Every list is ascending. A row of out keeps its rows at
// every hop, +0 or not, so a product on out's active rows reads the last hop
// where it is and adds +0 for a row lacking a direction, as over every active
// row.
func hopDemand(p *tensor.Diffusion, out []int, k int) [][2][]int {
	active := []int{}
	for _, r := range out {
		if _, ok := p.Position(r); ok {
			active = append(active, r)
		}
	}
	n := p.Rows()
	mark := make([]bool, n)
	hops := make([][2][]int, k)
	for dir, m := range [2]*tensor.CSR{p.FwdIn, p.RevIn} {
		// live[h-1][r]: row r of hop h can be nonzero.
		live := make([][]bool, k-1)
		for h := range live {
			live[h] = make([]bool, n)
			for i := 0; i < p.ActiveRows(); i++ {
				for _, c := range m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]] {
					if h == 0 || live[h-1][c] {
						live[h][activeRow(p, i)] = true
						break
					}
				}
			}
		}
		hops[k-1][dir] = active
		for hop := k - 2; hop >= 0; hop-- {
			for _, r := range active {
				mark[r] = true
			}
			for _, r := range hops[hop+1][dir] {
				i, _ := p.Position(r)
				for _, c := range m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]] {
					mark[c] = mark[c] || live[hop][c]
				}
			}
			rows := []int{}
			for r, ok := range mark {
				if ok {
					rows, mark[r] = append(rows, r), false
				}
			}
			hops[hop][dir] = rows
		}
	}
	return hops
}

// activeRow returns the row of the n×n matrices that p's active row i is.
func activeRow(p *tensor.Diffusion, i int) int {
	if p.ActiveRows() == p.Rows() {
		return i
	}
	return p.Active[i]
}
