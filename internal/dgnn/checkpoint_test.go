package dgnn

import (
	"math/rand"
	"testing"

	"streamgnn/internal/autodiff"
)

// Dump/restore round trip: after restoring state into a freshly built model
// with identical parameters, forwards reproduce the original embeddings.
func TestCheckpointRoundTripAllModels(t *testing.T) {
	g := ring(9, 3)
	for _, k := range Kinds() {
		rng := rand.New(rand.NewSource(9))
		m1 := New(k, rng, 3, 4)
		// Advance a few committed steps to build non-trivial state.
		for step := 0; step < 3; step++ {
			m1.BeginStep(step)
			tp := autodiff.NewTape()
			m1.Forward(tp, FullView(g))
		}
		dumped := m1.DumpState()

		rng2 := rand.New(rand.NewSource(9)) // identical params
		m2 := New(k, rng2, 3, 4)
		install, err := m2.RestoreState(dumped)
		if err != nil {
			t.Fatalf("%s: restore failed: %v", k, err)
		}
		install()
		m1.BeginStep(3)
		m2.BeginStep(3)
		tp := autodiff.NewTape()
		out1 := m1.Forward(tp, FullView(g)).Value
		tp = autodiff.NewTape()
		out2 := m2.Forward(tp, FullView(g)).Value
		if !out1.AllClose(out2, 1e-12) {
			t.Fatalf("%s: restored model diverges", k)
		}
	}
}

func TestCheckpointRestoreValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewGCLSTM(rng, 3, 4)
	if _, err := m.RestoreState(nil); err == nil {
		t.Fatal("wrong state count accepted")
	}
	bad := []StateDump{{Rows: 2, Cols: 99, Data: make([]float64, 2*99)}, {Rows: 0, Cols: 4}}
	if _, err := m.RestoreState(bad); err == nil {
		t.Fatal("wrong state dim accepted")
	}
	short := []StateDump{{Rows: 2, Cols: 4, Data: make([]float64, 3)}, {Rows: 0, Cols: 4}}
	if _, err := m.RestoreState(short); err == nil {
		t.Fatal("short data accepted")
	}
	// A refused second matrix leaves the first as it was, too.
	secondBad := []StateDump{{Rows: 2, Cols: 4, Data: make([]float64, 8)}, {Rows: 0, Cols: 99}}
	if _, err := m.RestoreState(secondBad); err == nil {
		t.Fatal("wrong second state dim accepted")
	}
	if st := m.DumpState(); st[0].Rows != 0 {
		t.Fatalf("refused restore left a %d-row first state", st[0].Rows)
	}
	w := NewWinGNN(rng, 3, 4)
	if _, err := w.RestoreState([]StateDump{{}}); err == nil {
		t.Fatal("WinGNN with state accepted")
	}
	ev := NewEvolveGCN(rng, 3, 4)
	if _, err := ev.RestoreState(nil); err == nil {
		t.Fatal("EvolveGCN wrong count accepted")
	}
	wrongShape := ev.DumpState()
	wrongShape[0].Rows++
	wrongShape[0].Data = append(wrongShape[0].Data, make([]float64, 4)...)
	if _, err := ev.RestoreState(wrongShape); err == nil {
		t.Fatal("EvolveGCN wrong shape accepted")
	}
	corrupt := ev.DumpState()
	corrupt[0].Data = corrupt[0].Data[:1]
	if _, err := ev.RestoreState(corrupt); err == nil {
		t.Fatal("EvolveGCN corrupt data accepted")
	}
}
