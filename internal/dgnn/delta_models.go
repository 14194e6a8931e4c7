package dgnn

import (
	"math"

	"streamgnn/internal/graph"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// This file holds the per-model stage decompositions behind DeltaForwarder:
// each neighborhood aggregation (or recurrent update that consumes one) is a
// stage with a cached per-node output. Five of the eight kinds implement the
// interface — WinGNN, TGCN, GCLSTM, ROLAND, DyGrEncoder. DCRNN's K-step
// diffusion, EvolveGCN's per-step weight recurrence, and RTGCN's per-relation
// adjacencies do not decompose into per-node cached stages the same way;
// those kinds keep the region-splice ladder even when DeltaForward is
// configured.
//
// The DeltaFull implementations run the same tensor kernels, in the same
// order, as the tape ops inside Forward — the tape's MatMul/SpMM/AddBias/
// ReLU/OneMinus delegate to exactly these functions, in place or not — so
// their outputs are bitwise equal to Forward over FullView, which the delta
// tests assert for every delta-capable kind.

// fullConv computes AddBias(SpMM(norm, MatMul(x, W)), B) — the value path of
// GCNConv.Apply.
func fullConv(conv *nn.GCNConv, norm *tensor.CSR, x *tensor.Matrix) *tensor.Matrix {
	return tensor.AddRowVector(tensor.SpMM(norm, tensor.MatMul(x, conv.Weight().Value)), conv.Bias().Value)
}

// fullLinear computes AddBias(MatMul(x, W), B) — the value path of
// Linear.Apply.
func fullLinear(lin *nn.Linear, x *tensor.Matrix) *tensor.Matrix {
	return tensor.AddRowVector(tensor.MatMul(x, lin.W.Value), lin.B.Value)
}

// fullConvGRU advances a graph-gated GRU over the full graph — the value
// path of ConvGRUCell.Apply with GCNConv gates.
func fullConvGRU(cell *nn.ConvGRUCell, norm *tensor.CSR, x, h *tensor.Matrix) *tensor.Matrix {
	zc, rc, cc := cell.Gates()
	xh := tensor.ConcatCols(x, h)
	z := tensor.SigmoidOf(fullConv(zc.(*nn.GCNConv), norm, xh))
	r := tensor.SigmoidOf(fullConv(rc.(*nn.GCNConv), norm, xh))
	cand := tensor.TanhOf(fullConv(cc.(*nn.GCNConv), norm, tensor.ConcatCols(x, tensor.Mul(r, h))))
	return tensor.Add(tensor.Mul(z, h), tensor.Mul(tensor.OneMinusOf(z), cand))
}

// zrFull computes the full [z|r] gate matrix of a graph-gated GRU — the
// stage-1 cache of TGCN's decomposition.
func zrFull(cell *nn.ConvGRUCell, norm *tensor.CSR, x, h *tensor.Matrix) *tensor.Matrix {
	zc, rc, _ := cell.Gates()
	xh := tensor.ConcatCols(x, h)
	z := tensor.SigmoidOf(fullConv(zc.(*nn.GCNConv), norm, xh))
	r := tensor.SigmoidOf(fullConv(rc.(*nn.GCNConv), norm, xh))
	return tensor.ConcatCols(z, r)
}

// fullConvLSTM advances a graph-gated LSTM over the full graph — the value
// path of ConvLSTMCell.Apply with GCNConv gates.
func fullConvLSTM(cell *nn.ConvLSTMCell, norm *tensor.CSR, x, h, c *tensor.Matrix) (hNew, cNew *tensor.Matrix) {
	ci, cf, co, cg := cell.Gates()
	xh := tensor.ConcatCols(x, h)
	i := tensor.SigmoidOf(fullConv(ci.(*nn.GCNConv), norm, xh))
	f := tensor.SigmoidOf(fullConv(cf.(*nn.GCNConv), norm, xh))
	o := tensor.SigmoidOf(fullConv(co.(*nn.GCNConv), norm, xh))
	g := tensor.TanhOf(fullConv(cg.(*nn.GCNConv), norm, xh))
	cNew = tensor.Add(tensor.Mul(f, c), tensor.Mul(i, g))
	hNew = tensor.Mul(o, tensor.TanhOf(cNew))
	return hNew, cNew
}

// fullGRU advances a dense GRU — the value path of GRUCell.Apply.
func fullGRU(cell *nn.GRUCell, x, h *tensor.Matrix) *tensor.Matrix {
	wz, wr, wc := cell.Gates()
	xh := tensor.ConcatCols(x, h)
	z := tensor.SigmoidOf(fullLinear(wz, xh))
	r := tensor.SigmoidOf(fullLinear(wr, xh))
	cand := tensor.TanhOf(fullLinear(wc, tensor.ConcatCols(x, tensor.Mul(r, h))))
	return tensor.Add(tensor.Mul(z, h), tensor.Mul(tensor.OneMinusOf(z), cand))
}

// fullLSTM advances a dense LSTM — the value path of LSTMCell.Apply.
func fullLSTM(cell *nn.LSTMCell, x, h, c *tensor.Matrix) (hNew, cNew *tensor.Matrix) {
	wi, wf, wo, wg := cell.Gates()
	xh := tensor.ConcatCols(x, h)
	i := tensor.SigmoidOf(fullLinear(wi, xh))
	f := tensor.SigmoidOf(fullLinear(wf, xh))
	o := tensor.SigmoidOf(fullLinear(wo, xh))
	g := tensor.TanhOf(fullLinear(wg, xh))
	cNew = tensor.Add(tensor.Mul(f, c), tensor.Mul(i, g))
	hNew = tensor.Mul(o, tensor.TanhOf(cNew))
	return hNew, cNew
}

// liveMatrix returns the live recurrent state of nodes [0, n) as a matrix
// (zero rows beyond the stored prefix) — the values a committed full
// forward's gather reads.
func (s *nodeState) liveMatrix(n int) *tensor.Matrix {
	out := tensor.New(n, s.dim)
	stored := len(s.data) / s.dim
	if stored > n {
		stored = n
	}
	copy(out.Data[:stored*s.dim], s.data[:stored*s.dim])
	return out
}

// gruRow computes one row of GRUCell.Apply. x is the input row, h the prior
// hidden row; scratch slices xh (len(x)+hd), xr (len(x)+hd), z, r, cand (hd
// each) are caller-owned.
func gruRow(cell *nn.GRUCell, x, h, out, xh, xr, z, r, cand []float64) {
	wz, wr, wc := cell.Gates()
	copy(xh[:len(x)], x)
	copy(xh[len(x):], h)
	linearRow(xh, wz, z)
	sigmoidInPlace(z)
	linearRow(xh, wr, r)
	sigmoidInPlace(r)
	copy(xr[:len(x)], x)
	for j := range h {
		xr[len(x)+j] = r[j] * h[j]
	}
	linearRow(xr, wc, cand)
	tanhInPlace(cand)
	for j := range h {
		out[j] = z[j]*h[j] + (1-z[j])*cand[j]
	}
}

// ---------------------------------------------------------------- WinGNN
// Stage 0: s0 = ReLU(conv1(x));  stage 1 (embedding): tanh(conv2(s0) +
// skip(x)). Memoryless — epsilon 0 keeps delta exactly equal to full.

// DeltaStages implements DeltaForwarder.
func (m *WinGNNModel) DeltaStages() int { return 2 }

// DeltaStageCols implements DeltaForwarder.
func (m *WinGNNModel) DeltaStageCols(s int) int { return m.hidden }

// DeltaFull implements DeltaForwarder.
func (m *WinGNNModel) DeltaFull(g *graph.Dynamic, st *DeltaState) *tensor.Matrix {
	x := g.Features()
	norm := g.NormAdj()
	s0 := tensor.ReLUOf(fullConv(m.conv1, norm, x))
	h := fullConv(m.conv2, norm, s0)
	out := tensor.TanhOf(tensor.Add(h, fullLinear(m.skip, x)))
	st.setStages(s0, out.Clone())
	return out
}

// DeltaRows implements DeltaForwarder.
func (m *WinGNNModel) DeltaRows(p *DeltaPass, s int, ids []int) *tensor.Matrix {
	hd := m.hidden
	out := tensor.New(len(ids), hd)
	xw := make([]float64, hd)
	switch s {
	case 0:
		for k, v := range ids {
			row := out.Row(k)
			p.ConvRow(m.conv1, v, p.Feat, row, xw)
			reluInPlace(row)
		}
	case 1:
		sk := make([]float64, hd)
		prev := func(u int) []float64 { return p.StageRow(0, u) }
		for k, v := range ids {
			row := out.Row(k)
			p.ConvRow(m.conv2, v, prev, row, xw)
			linearRow(p.Feat(v), m.skip, sk)
			for j := range row {
				row[j] = math.Tanh(row[j] + sk[j])
			}
		}
	}
	return out
}

// DeltaCommit implements DeltaForwarder: WinGNN keeps no recurrent state.
func (m *WinGNNModel) DeltaCommit(s int, ids []int, rows *tensor.Matrix) bool { return false }

// ------------------------------------------------------------------ TGCN
// Stage 0: x1 = ReLU(enc(x)); stage 1: the gate matrix [z|r] (each a conv
// over [x1|h]); stage 2 (embedding, commits h): hNew = z∘h + (1−z)∘tanh(
// convC([x1 | r∘h])).

// DeltaStages implements DeltaForwarder.
func (m *TGCNModel) DeltaStages() int { return 3 }

// DeltaStageCols implements DeltaForwarder.
func (m *TGCNModel) DeltaStageCols(s int) int {
	if s == 1 {
		return 2 * m.hidden
	}
	return m.hidden
}

// DeltaFull implements DeltaForwarder.
func (m *TGCNModel) DeltaFull(g *graph.Dynamic, st *DeltaState) *tensor.Matrix {
	n := g.N()
	norm := g.NormAdj()
	x1 := tensor.ReLUOf(fullConv(m.enc, norm, g.Features()))
	h := m.state.liveMatrix(n)
	zr := zrFull(m.cell, norm, x1, h)
	hNew := fullConvGRU(m.cell, norm, x1, h)
	m.state.setAll(hNew)
	st.setStages(x1, zr, hNew.Clone())
	return hNew
}

// DeltaRows implements DeltaForwarder.
func (m *TGCNModel) DeltaRows(p *DeltaPass, s int, ids []int) *tensor.Matrix {
	hd := m.hidden
	xw := make([]float64, hd)
	switch s {
	case 0:
		out := tensor.New(len(ids), hd)
		for k, v := range ids {
			row := out.Row(k)
			p.ConvRow(m.enc, v, p.Feat, row, xw)
			reluInPlace(row)
		}
		return out
	case 1:
		zc, rc, _ := m.cell.Gates()
		out := tensor.New(len(ids), 2*hd)
		xh := make([]float64, 2*hd)
		input := func(u int) []float64 {
			copy(xh[:hd], p.StageRow(0, u))
			m.state.rowInto(u, xh[hd:])
			return xh
		}
		for k, v := range ids {
			row := out.Row(k)
			p.ConvRow(zc.(*nn.GCNConv), v, input, row[:hd], xw)
			sigmoidInPlace(row[:hd])
			p.ConvRow(rc.(*nn.GCNConv), v, input, row[hd:], xw)
			sigmoidInPlace(row[hd:])
		}
		return out
	default:
		_, _, cc := m.cell.Gates()
		out := tensor.New(len(ids), hd)
		in2 := make([]float64, 2*hd)
		hu := make([]float64, hd)
		input := func(u int) []float64 {
			copy(in2[:hd], p.StageRow(0, u))
			zr := p.StageRow(1, u)
			m.state.rowInto(u, hu)
			for j := 0; j < hd; j++ {
				in2[hd+j] = zr[hd+j] * hu[j]
			}
			return in2
		}
		cand := make([]float64, hd)
		hv := make([]float64, hd)
		for k, v := range ids {
			p.ConvRow(cc.(*nn.GCNConv), v, input, cand, xw)
			tanhInPlace(cand)
			zr := p.StageRow(1, v)
			m.state.rowInto(v, hv)
			row := out.Row(k)
			for j := 0; j < hd; j++ {
				row[j] = zr[j]*hv[j] + (1-zr[j])*cand[j]
			}
		}
		return out
	}
}

// DeltaCommit implements DeltaForwarder: stage 2 is the GRU state.
func (m *TGCNModel) DeltaCommit(s int, ids []int, rows *tensor.Matrix) bool {
	if s != 2 {
		return false
	}
	m.state.writeRows(ids, rows, 0)
	return true
}

// ---------------------------------------------------------------- GCLSTM
// Stage 0: x1 = ReLU(enc(x)); stage 1 (embedding = first half, commits h
// and c): [hNew|cNew] from the four conv gates over [x1|h].

// DeltaStages implements DeltaForwarder.
func (m *GCLSTMModel) DeltaStages() int { return 2 }

// DeltaStageCols implements DeltaForwarder.
func (m *GCLSTMModel) DeltaStageCols(s int) int {
	if s == 1 {
		return 2 * m.hidden
	}
	return m.hidden
}

// DeltaFull implements DeltaForwarder.
func (m *GCLSTMModel) DeltaFull(g *graph.Dynamic, st *DeltaState) *tensor.Matrix {
	n := g.N()
	norm := g.NormAdj()
	x1 := tensor.ReLUOf(fullConv(m.enc, norm, g.Features()))
	h := m.hState.liveMatrix(n)
	c := m.cState.liveMatrix(n)
	hNew, cNew := fullConvLSTM(m.cell, norm, x1, h, c)
	m.hState.setAll(hNew)
	m.cState.setAll(cNew)
	st.setStages(x1, tensor.ConcatCols(hNew, cNew))
	return hNew
}

// DeltaRows implements DeltaForwarder.
func (m *GCLSTMModel) DeltaRows(p *DeltaPass, s int, ids []int) *tensor.Matrix {
	hd := m.hidden
	xw := make([]float64, hd)
	if s == 0 {
		out := tensor.New(len(ids), hd)
		for k, v := range ids {
			row := out.Row(k)
			p.ConvRow(m.enc, v, p.Feat, row, xw)
			reluInPlace(row)
		}
		return out
	}
	ci, cf, co, cg := m.cell.Gates()
	out := tensor.New(len(ids), 2*hd)
	xh := make([]float64, 2*hd)
	input := func(u int) []float64 {
		copy(xh[:hd], p.StageRow(0, u))
		m.hState.rowInto(u, xh[hd:])
		return xh
	}
	gi := make([]float64, hd)
	gf := make([]float64, hd)
	go_ := make([]float64, hd)
	gg := make([]float64, hd)
	cv := make([]float64, hd)
	for k, v := range ids {
		p.ConvRow(ci.(*nn.GCNConv), v, input, gi, xw)
		sigmoidInPlace(gi)
		p.ConvRow(cf.(*nn.GCNConv), v, input, gf, xw)
		sigmoidInPlace(gf)
		p.ConvRow(co.(*nn.GCNConv), v, input, go_, xw)
		sigmoidInPlace(go_)
		p.ConvRow(cg.(*nn.GCNConv), v, input, gg, xw)
		tanhInPlace(gg)
		m.cState.rowInto(v, cv)
		row := out.Row(k)
		for j := 0; j < hd; j++ {
			cNew := gf[j]*cv[j] + gi[j]*gg[j]
			row[hd+j] = cNew
			row[j] = go_[j] * math.Tanh(cNew)
		}
	}
	return out
}

// DeltaCommit implements DeltaForwarder: stage 1 carries [h|c].
func (m *GCLSTMModel) DeltaCommit(s int, ids []int, rows *tensor.Matrix) bool {
	if s != 1 {
		return false
	}
	m.hState.writeRows(ids, rows, 0)
	m.cState.writeRows(ids, rows, m.hidden)
	return true
}

// ---------------------------------------------------------------- ROLAND
// Stage 0 (commits h1): new1 = GRU(ReLU(conv1(x)), h1); stage 1 (embedding,
// commits h2): new2 = GRU(ReLU(conv2(new1)), h2). The dense GRUs have no
// neighbor dependencies, so each layer is one stage.

// DeltaStages implements DeltaForwarder.
func (m *ROLANDModel) DeltaStages() int { return 2 }

// DeltaStageCols implements DeltaForwarder.
func (m *ROLANDModel) DeltaStageCols(s int) int { return m.hidden }

// DeltaFull implements DeltaForwarder.
func (m *ROLANDModel) DeltaFull(g *graph.Dynamic, st *DeltaState) *tensor.Matrix {
	n := g.N()
	norm := g.NormAdj()
	c1 := tensor.ReLUOf(fullConv(m.conv1, norm, g.Features()))
	new1 := fullGRU(m.upd1, c1, m.h1.liveMatrix(n))
	c2 := tensor.ReLUOf(fullConv(m.conv2, norm, new1))
	new2 := fullGRU(m.upd2, c2, m.h2.liveMatrix(n))
	m.h1.setAll(new1)
	m.h2.setAll(new2)
	st.setStages(new1, new2.Clone())
	return new2
}

// DeltaRows implements DeltaForwarder.
func (m *ROLANDModel) DeltaRows(p *DeltaPass, s int, ids []int) *tensor.Matrix {
	hd := m.hidden
	out := tensor.New(len(ids), hd)
	xw := make([]float64, hd)
	cx := make([]float64, hd)
	hv := make([]float64, hd)
	xh := make([]float64, 2*hd)
	xr := make([]float64, 2*hd)
	z := make([]float64, hd)
	r := make([]float64, hd)
	cand := make([]float64, hd)
	conv, upd, state := m.conv1, m.upd1, m.h1
	input := p.Feat
	if s == 1 {
		conv, upd, state = m.conv2, m.upd2, m.h2
		input = func(u int) []float64 { return p.StageRow(0, u) }
	}
	for k, v := range ids {
		p.ConvRow(conv, v, input, cx, xw)
		reluInPlace(cx)
		state.rowInto(v, hv)
		gruRow(upd, cx, hv, out.Row(k), xh, xr, z, r, cand)
	}
	return out
}

// DeltaCommit implements DeltaForwarder: each stage is that layer's state.
func (m *ROLANDModel) DeltaCommit(s int, ids []int, rows *tensor.Matrix) bool {
	if s == 0 {
		m.h1.writeRows(ids, rows, 0)
	} else {
		m.h2.writeRows(ids, rows, 0)
	}
	return true
}

// ----------------------------------------------------------- DyGrEncoder
// Stage 0: x1 = ReLU(enc1(x)); stage 1: x2 = ReLU(enc2(x1)); stage 2
// (embedding = first third, commits h and c): [emb|hNew|cNew] with a dense
// per-row LSTM and emb = tanh(dec(hNew)).

// DeltaStages implements DeltaForwarder.
func (m *DyGrEncoderModel) DeltaStages() int { return 3 }

// DeltaStageCols implements DeltaForwarder.
func (m *DyGrEncoderModel) DeltaStageCols(s int) int {
	if s == 2 {
		return 3 * m.hidden
	}
	return m.hidden
}

// DeltaFull implements DeltaForwarder.
func (m *DyGrEncoderModel) DeltaFull(g *graph.Dynamic, st *DeltaState) *tensor.Matrix {
	n := g.N()
	norm := g.NormAdj()
	x1 := tensor.ReLUOf(fullConv(m.enc1, norm, g.Features()))
	x2 := tensor.ReLUOf(fullConv(m.enc2, norm, x1))
	h := m.hState.liveMatrix(n)
	c := m.cState.liveMatrix(n)
	hNew, cNew := fullLSTM(m.lstm, x2, h, c)
	emb := tensor.TanhOf(fullLinear(m.dec, hNew))
	m.hState.setAll(hNew)
	m.cState.setAll(cNew)
	st.setStages(x1, x2, tensor.ConcatCols(tensor.ConcatCols(emb, hNew), cNew))
	return emb
}

// DeltaRows implements DeltaForwarder.
func (m *DyGrEncoderModel) DeltaRows(p *DeltaPass, s int, ids []int) *tensor.Matrix {
	hd := m.hidden
	xw := make([]float64, hd)
	switch s {
	case 0, 1:
		conv := m.enc1
		input := p.Feat
		if s == 1 {
			conv = m.enc2
			input = func(u int) []float64 { return p.StageRow(0, u) }
		}
		out := tensor.New(len(ids), hd)
		for k, v := range ids {
			row := out.Row(k)
			p.ConvRow(conv, v, input, row, xw)
			reluInPlace(row)
		}
		return out
	default:
		wi, wf, wo, wg := m.lstm.Gates()
		out := tensor.New(len(ids), 3*hd)
		xh := make([]float64, 2*hd)
		gi := make([]float64, hd)
		gf := make([]float64, hd)
		go_ := make([]float64, hd)
		gg := make([]float64, hd)
		hv := make([]float64, hd)
		cv := make([]float64, hd)
		for k, v := range ids {
			copy(xh[:hd], p.StageRow(1, v))
			m.hState.rowInto(v, hv)
			copy(xh[hd:], hv)
			linearRow(xh, wi, gi)
			sigmoidInPlace(gi)
			linearRow(xh, wf, gf)
			sigmoidInPlace(gf)
			linearRow(xh, wo, go_)
			sigmoidInPlace(go_)
			linearRow(xh, wg, gg)
			tanhInPlace(gg)
			m.cState.rowInto(v, cv)
			row := out.Row(k)
			for j := 0; j < hd; j++ {
				cNew := gf[j]*cv[j] + gi[j]*gg[j]
				row[2*hd+j] = cNew
				row[hd+j] = go_[j] * math.Tanh(cNew)
			}
			linearRow(row[hd:2*hd], m.dec, row[:hd])
			tanhInPlace(row[:hd])
		}
		return out
	}
}

// DeltaCommit implements DeltaForwarder: stage 2 carries [emb|h|c].
func (m *DyGrEncoderModel) DeltaCommit(s int, ids []int, rows *tensor.Matrix) bool {
	if s != 2 {
		return false
	}
	m.hState.writeRows(ids, rows, m.hidden)
	m.cState.writeRows(ids, rows, 2*m.hidden)
	return true
}
