package dgnn

import (
	"fmt"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/tensor"
	"streamgnn/internal/wire"
)

// StateDump is one serializable matrix: a recurrent-state matrix of a model
// checkpoint, and every matrix the cluster's frames carry. Together with the
// parameter values (reachable via Params()) the state dumps capture
// everything a model needs to resume mid-stream.
type StateDump struct {
	Rows, Cols int
	Data       []float64
}

// Wire codes the dump as Rows, Cols and Data.
func (d *StateDump) Wire(c *wire.Coder) {
	c.Int(&d.Rows)
	c.Int(&d.Cols)
	c.Floats(&d.Data)
}

// WireDumps codes a list of dumps.
func WireDumps(c *wire.Coder, ds *[]StateDump) { wire.List(c, ds, 3, (*StateDump).Wire) }

// DumpParams copies every parameter's value into a dump.
func DumpParams(params []*autodiff.Node) []StateDump {
	out := make([]StateDump, len(params))
	for i, p := range params {
		out[i] = DumpMatrix(p.Value)
	}
	return out
}

// RestoreParams checks one dump per parameter, each of its shape, and
// returns the install that copies them into the parameters' values.
func RestoreParams(params []*autodiff.Node, dumps []StateDump) (func(), error) {
	if len(dumps) != len(params) {
		return nil, fmt.Errorf("dgnn: %d parameter dumps for %d parameters", len(dumps), len(params))
	}
	for i, p := range params {
		if d := dumps[i]; d.Rows != p.Value.Rows || d.Cols != p.Value.Cols || len(d.Data) != len(p.Value.Data) {
			return nil, fmt.Errorf("dgnn: parameter %d shape mismatch (%dx%d vs %dx%d)", i, d.Rows, d.Cols, p.Value.Rows, p.Value.Cols)
		}
	}
	return func() {
		for i, p := range params {
			copy(p.Value.Data, dumps[i].Data)
		}
	}, nil
}

// DumpMatrix copies m into a dump.
func DumpMatrix(m *tensor.Matrix) StateDump {
	d := StateDump{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(d.Data, m.Data)
	return d
}

// Matrix copies the dump into a new matrix, refusing one whose values do not
// fill its shape.
func (d StateDump) Matrix() (*tensor.Matrix, error) {
	if !tensor.Holds(d.Rows, d.Cols, len(d.Data)) {
		return nil, fmt.Errorf("dgnn: state dump %dx%d carries %d values", d.Rows, d.Cols, len(d.Data))
	}
	m := tensor.New(d.Rows, d.Cols)
	copy(m.Data, d.Data)
	return m, nil
}

func (s *nodeState) dump() StateDump {
	d := StateDump{Rows: s.n, Cols: s.dim, Data: make([]float64, s.n*s.dim)}
	copy(d.Data, s.data)
	return d
}

// restore checks d against the state's width and returns its install.
func (s *nodeState) restore(d StateDump) (func(), error) {
	if d.Cols != s.dim {
		return nil, fmt.Errorf("dgnn: state dim %d does not match model dim %d", d.Cols, s.dim)
	}
	if !tensor.Holds(d.Rows, d.Cols, len(d.Data)) {
		return nil, fmt.Errorf("dgnn: state dump %dx%d carries %d values", d.Rows, d.Cols, len(d.Data))
	}
	return func() {
		s.data = append(s.data[:0], d.Data...)
		s.n = d.Rows
		s.prev = nil
	}, nil
}

// restoreStates checks every dump before it returns the install of all.
func restoreStates(dumps []StateDump, states ...*nodeState) (func(), error) {
	if len(dumps) != len(states) {
		return nil, fmt.Errorf("dgnn: checkpoint has %d states, model needs %d", len(dumps), len(states))
	}
	installs := make([]func(), len(states))
	for i, st := range states {
		var err error
		if installs[i], err = st.restore(dumps[i]); err != nil {
			return nil, err
		}
	}
	return func() {
		for _, install := range installs {
			install()
		}
	}, nil
}

// DumpState implements Model.
func (m *TGCNModel) DumpState() []StateDump { return []StateDump{m.state.dump()} }

// RestoreState implements Model.
func (m *TGCNModel) RestoreState(d []StateDump) (func(), error) { return restoreStates(d, m.state) }

// DumpState implements Model.
func (m *DCRNNModel) DumpState() []StateDump { return []StateDump{m.state.dump()} }

// RestoreState implements Model.
func (m *DCRNNModel) RestoreState(d []StateDump) (func(), error) { return restoreStates(d, m.state) }

// DumpState implements Model.
func (m *GCLSTMModel) DumpState() []StateDump {
	return []StateDump{m.hState.dump(), m.cState.dump()}
}

// RestoreState implements Model.
func (m *GCLSTMModel) RestoreState(d []StateDump) (func(), error) {
	return restoreStates(d, m.hState, m.cState)
}

// DumpState implements Model.
func (m *DyGrEncoderModel) DumpState() []StateDump {
	return []StateDump{m.hState.dump(), m.cState.dump()}
}

// RestoreState implements Model.
func (m *DyGrEncoderModel) RestoreState(d []StateDump) (func(), error) {
	return restoreStates(d, m.hState, m.cState)
}

// DumpState implements Model.
func (m *ROLANDModel) DumpState() []StateDump {
	return []StateDump{m.h1.dump(), m.h2.dump()}
}

// RestoreState implements Model.
func (m *ROLANDModel) RestoreState(d []StateDump) (func(), error) {
	return restoreStates(d, m.h1, m.h2)
}

// DumpState implements Model: WinGNN carries no recurrent state.
func (m *WinGNNModel) DumpState() []StateDump { return nil }

// RestoreState implements Model.
func (m *WinGNNModel) RestoreState(d []StateDump) (func(), error) {
	if len(d) != 0 {
		return nil, fmt.Errorf("dgnn: WinGNN checkpoint must carry no state, got %d", len(d))
	}
	return func() {}, nil
}

// DumpState implements Model: EvolveGCN's state is each layer's weight
// matrix as of the end of the current step — the captured evolution when one
// exists (so a restore resumes exactly where the dumped model would have
// continued), else the step's starting weights.
func (m *EvolveGCNModel) DumpState() []StateDump {
	out := make([]StateDump, len(m.weights))
	for i, l := range m.weights {
		w := l.wStart
		if l.wNext != nil {
			w = l.wNext
		}
		out[i] = DumpMatrix(w)
	}
	return out
}

// RestoreState implements Model.
func (m *EvolveGCNModel) RestoreState(d []StateDump) (func(), error) {
	if len(d) != len(m.weights) {
		return nil, fmt.Errorf("dgnn: EvolveGCN checkpoint has %d weight states, need %d", len(d), len(m.weights))
	}
	ws := make([]*tensor.Matrix, len(d))
	for i, l := range m.weights {
		w, err := d[i].Matrix()
		if err != nil {
			return nil, err
		}
		if w.Rows != l.wStart.Rows || w.Cols != l.wStart.Cols {
			return nil, fmt.Errorf("dgnn: EvolveGCN layer %d weight shape %dx%d, need %dx%d",
				i, w.Rows, w.Cols, l.wStart.Rows, l.wStart.Cols)
		}
		ws[i] = w
	}
	return func() {
		for i, l := range m.weights {
			l.wStart = ws[i]
			l.wNext = nil
		}
	}, nil
}
