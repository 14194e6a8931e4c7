package dgnn

import (
	"sync"
	"testing"

	"streamgnn/internal/tensor"
)

func filled(rows, cols int, base float64) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = base + float64(i)
	}
	return m
}

// flat reads every row of v into one slice.
func flat(v *tensor.RowView) []float64 {
	var out []float64
	for i := 0; i < v.Rows(); i++ {
		out = append(out, v.Row(i)...)
	}
	return out
}

// samePage reports whether two rows alias one page.
func samePage(a, b []float64) bool { return &a[0] == &b[0] }

func TestEmbStorePublishCopyOnWrite(t *testing.T) {
	s := NewEmbStore()
	if s.Publish() != nil {
		t.Fatal("invalid store should publish nil")
	}
	s.SetFull(filled(3, 2, 0), 1)

	snap := s.Publish()
	if !samePage(snap.Row(0), s.rows.Row(0)) {
		t.Fatal("publish should hand out the stored pages, not a copy")
	}
	if s.Publish() != snap {
		t.Fatal("an unchanged store should republish the same view")
	}
	want := flat(snap)

	// A splice after publication must clone the page it writes: the snapshot
	// keeps its bits, the store diverges.
	patch := filled(1, 2, 100)
	s.Splice(patch, []int{0}, []int{1})
	if samePage(s.rows.Row(0), snap.Row(0)) {
		t.Fatal("splice did not copy-on-write the published page")
	}
	for i, v := range flat(snap) {
		if v != want[i] {
			t.Fatalf("published snapshot mutated at %d: %v != %v", i, v, want[i])
		}
	}
	if r := s.rows.Row(1); r[0] != 100 || r[1] != 101 {
		t.Fatalf("store row not spliced: %v", r)
	}

	// Only one clone per published page: a second splice stays in place.
	private := s.rows.Row(0)
	s.Splice(filled(1, 2, 200), []int{0}, []int{0})
	if !samePage(s.rows.Row(0), private) {
		t.Fatal("unpublished page was cloned needlessly")
	}

	// Growth leaves the published rows alone.
	snap2 := s.Publish()
	grown := flat(snap2)
	s.Splice(filled(1, 2, 300), []int{0}, []int{5})
	if s.Rows() != 6 || snap2.Rows() != 3 {
		t.Fatalf("grow: store rows %d, published rows %d", s.Rows(), snap2.Rows())
	}
	for i, v := range flat(snap2) {
		if v != grown[i] {
			t.Fatalf("snapshot mutated by grow at %d", i)
		}
	}

	// Invalidate and SetFull drop the pages without touching the snapshot.
	snap3 := s.Publish()
	kept := flat(snap3)
	s.Invalidate()
	if s.Publish() != nil {
		t.Fatal("invalidated store should publish nil")
	}
	s.SetFull(filled(2, 2, 400), 9)
	if samePage(s.rows.Row(0), snap3.Row(0)) {
		t.Fatal("SetFull reused the published pages")
	}
	for i, v := range flat(snap3) {
		if v != kept[i] {
			t.Fatalf("snapshot mutated by SetFull at %d", i)
		}
	}
}

// A published 10 000-row store pays for the pages a write touches: one
// spliced row meters at most one page of floats, growth by one row at most
// two, and the earlier published view still reads the old bits.
func TestEmbStoreWriteCopiesTouchedPagesOnly(t *testing.T) {
	const n, cols = 10000, 16
	page := int64(tensor.PageRows * cols)
	s := NewEmbStore()
	s.SetFull(filled(n, cols, 0), 0)
	snap := s.Publish()
	want := flat(snap)
	metered := func(write func()) int64 {
		tensor.EnableMeter(true)
		tensor.ResetMeter()
		write()
		tensor.EnableMeter(false)
		return tensor.TotalFloats()
	}
	one, two := filled(1, cols, -1), filled(1, cols, -2)
	if got := metered(func() { s.Splice(one, []int{0}, []int{4321}) }); got > page {
		t.Fatalf("one spliced row metered %d floats, want at most one page (%d)", got, page)
	}
	s.Publish()
	if got := metered(func() { s.Splice(two, []int{0}, []int{n}) }); got > 2*page {
		t.Fatalf("growth by one row metered %d floats, want at most two pages (%d)", got, 2*page)
	}
	if s.Rows() != n+1 || s.rows.Row(4321)[0] != -1 || s.rows.Row(n)[0] != -2 {
		t.Fatal("store did not take the writes")
	}
	for i, v := range flat(snap) {
		if v != want[i] {
			t.Fatalf("published view changed at %d: %v != %v", i, v, want[i])
		}
	}
}

// A reader holding a published snapshot must see bit-identical rows no matter
// how the store is spliced, grown, invalidated or refilled concurrently. Run
// with -race: any write to a published page is a data race.
func TestEmbStoreSnapshotConcurrentWriters(t *testing.T) {
	s := NewEmbStore()
	s.SetFull(filled(32, 4, 0), 0)
	snap := s.Publish()
	want := flat(snap)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: continuously verify the held snapshot
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < snap.Rows(); i++ {
				for j, v := range snap.Row(i) {
					if w := want[i*snap.Cols()+j]; v != w {
						t.Errorf("snapshot bits changed at row %d: %v != %v", i, v, w)
						return
					}
				}
			}
		}
	}()

	patch := filled(2, 4, 1000)
	for iter := 0; iter < 2000; iter++ {
		switch iter % 40 {
		case 38:
			s.Invalidate()
		case 39:
			s.SetFull(filled(32, 4, float64(iter)), iter)
		default:
			if s.Valid() {
				s.Publish() // republish every step, like the engine does
				s.Splice(patch, []int{0, 1}, []int{iter % 30, iter%30 + 1})
			}
		}
	}
	close(stop)
	wg.Wait()
}
