package tensor

import "testing"

func TestSizeClass(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, -1}, {-3, -1},
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1 << 26, 26}, {1<<26 + 1, -1},
	}
	for _, c := range cases {
		if got := sizeClass(c.n); got != c.want {
			t.Fatalf("sizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRecycledBuffersComeBackZeroed(t *testing.T) {
	m := New(3, 5)
	m.Fill(7)
	Recycle(m)
	if m.Data != nil {
		t.Fatal("Recycle left the matrix attached to recycled storage")
	}
	// Next allocation of a same-class size may reuse the dirtied buffer; it
	// must still read as all zeros.
	fresh := New(4, 4) // 16 floats, same class as 15
	for i, v := range fresh.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestRecycleSkipsForeignStorage(t *testing.T) {
	backing := make([]float64, 10) // cap 10: not an exact size class
	m := FromSlice(2, 5, backing)
	Recycle(m) // must not pool it, and must not panic
	if m.Data != nil {
		t.Fatal("Recycle left foreign storage attached")
	}
	backing[0] = 1 // still ours: the pool must never hand this slice out
}

// TestMeterIdenticalWithPooling runs an allocation workload whose buffers
// come back from the pool from the second round on; the meter must report the
// logical allocation all the same — pooling never changes metered accounting.
func TestMeterIdenticalWithPooling(t *testing.T) {
	EnableMeter(true)
	defer EnableMeter(false)
	ResetMeter()
	for round := 0; round < 4; round++ {
		a := New(8, 8)
		b := New(8, 8)
		a.Fill(1)
		b.Fill(2)
		c := MatMul(a, b)
		Recycle(a)
		Recycle(b)
		Recycle(c)
	}
	if got, want := TotalFloats(), int64(4*3*64); got != want {
		t.Fatalf("meter recorded %d floats, want the logical %d", got, want)
	}
}
