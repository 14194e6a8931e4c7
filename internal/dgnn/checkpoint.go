package dgnn

import (
	"fmt"

	"streamgnn/internal/tensor"
)

// StateDump is one serializable recurrent-state matrix of a model
// checkpoint. Together with the parameter values (reachable via Params())
// it captures everything a model needs to resume mid-stream.
type StateDump struct {
	Rows, Cols int
	Data       []float64
}

func dumpMatrix(m *tensor.Matrix) StateDump {
	d := StateDump{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(d.Data, m.Data)
	return d
}

func (d StateDump) matrix() (*tensor.Matrix, error) {
	if len(d.Data) != d.Rows*d.Cols {
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

func (s *nodeState) restore(d StateDump) error {
	if d.Cols != s.dim {
		return fmt.Errorf("dgnn: state dim %d does not match model dim %d", d.Cols, s.dim)
	}
	if len(d.Data) != d.Rows*d.Cols {
		return fmt.Errorf("dgnn: state dump %dx%d carries %d values", d.Rows, d.Cols, len(d.Data))
	}
	s.data = append(s.data[:0], d.Data...)
	s.n = d.Rows
	s.prev = nil
	return nil
}

func restoreStates(dumps []StateDump, states ...*nodeState) error {
	if len(dumps) != len(states) {
		return fmt.Errorf("dgnn: checkpoint has %d states, model needs %d", len(dumps), len(states))
	}
	for i, st := range states {
		if err := st.restore(dumps[i]); err != nil {
			return err
		}
	}
	return nil
}

// DumpState implements Model.
func (m *TGCNModel) DumpState() []StateDump { return []StateDump{m.state.dump()} }

// RestoreState implements Model.
func (m *TGCNModel) RestoreState(d []StateDump) error { return restoreStates(d, m.state) }

// DumpState implements Model.
func (m *DCRNNModel) DumpState() []StateDump { return []StateDump{m.state.dump()} }

// RestoreState implements Model.
func (m *DCRNNModel) RestoreState(d []StateDump) error { return restoreStates(d, m.state) }

// DumpState implements Model.
func (m *GCLSTMModel) DumpState() []StateDump {
	return []StateDump{m.hState.dump(), m.cState.dump()}
}

// RestoreState implements Model.
func (m *GCLSTMModel) RestoreState(d []StateDump) error {
	return restoreStates(d, m.hState, m.cState)
}

// DumpState implements Model.
func (m *DyGrEncoderModel) DumpState() []StateDump {
	return []StateDump{m.hState.dump(), m.cState.dump()}
}

// RestoreState implements Model.
func (m *DyGrEncoderModel) RestoreState(d []StateDump) error {
	return restoreStates(d, m.hState, m.cState)
}

// DumpState implements Model.
func (m *ROLANDModel) DumpState() []StateDump {
	return []StateDump{m.h1.dump(), m.h2.dump()}
}

// RestoreState implements Model.
func (m *ROLANDModel) RestoreState(d []StateDump) error {
	return restoreStates(d, m.h1, m.h2)
}

// DumpState implements Model: WinGNN carries no recurrent state.
func (m *WinGNNModel) DumpState() []StateDump { return nil }

// RestoreState implements Model.
func (m *WinGNNModel) RestoreState(d []StateDump) error {
	if len(d) != 0 {
		return fmt.Errorf("dgnn: WinGNN checkpoint must carry no state, got %d", len(d))
	}
	return nil
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
		out[i] = dumpMatrix(w)
	}
	return out
}

// RestoreState implements Model.
func (m *EvolveGCNModel) RestoreState(d []StateDump) error {
	if len(d) != len(m.weights) {
		return fmt.Errorf("dgnn: EvolveGCN checkpoint has %d weight states, need %d", len(d), len(m.weights))
	}
	for i, l := range m.weights {
		w, err := d[i].matrix()
		if err != nil {
			return err
		}
		if w.Rows != l.wStart.Rows || w.Cols != l.wStart.Cols {
			return fmt.Errorf("dgnn: EvolveGCN layer %d weight shape %dx%d, need %dx%d",
				i, w.Rows, w.Cols, l.wStart.Rows, l.wStart.Cols)
		}
		l.wStart = w
		l.wNext = nil
	}
	return nil
}
