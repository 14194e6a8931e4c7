package tensor

import (
	"math/rand"
	"testing"
)

// readAll copies every row of v into one slice.
func readAll(v *RowView) []float64 {
	var out []float64
	for i := 0; i < v.Rows(); i++ {
		out = append(out, v.Row(i)...)
	}
	return out
}

// Random writes, growth and freezes against a dense reference: the live array
// always reads the reference, every frozen view keeps reading the rows it was
// frozen with, an unchanged array refreezes to the same view, and a write
// meters at most the pages it touches.
func TestPagedMatchesDenseReference(t *testing.T) {
	const cols = 3
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := NewRandom(rng, rng.Intn(3*PageRows), cols, 1)
		ref := append([]float64(nil), start.Data...)
		p := PagedFrom(start)
		type frozen struct {
			v    *RowView
			want []float64
		}
		var views []frozen
		for op := 0; op < 150; op++ {
			EnableMeter(true)
			ResetMeter()
			pages := int64(0)
			switch k := rng.Intn(10); {
			case k < 5 && p.Rows() > 0:
				i := rng.Intn(p.Rows())
				row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				p.SetRow(i, row)
				copy(ref[i*cols:], row)
				pages = 1
			case k < 7:
				n := p.Rows() + rng.Intn(PageRows+5)
				p.Grow(n)
				ref = append(ref, make([]float64, n*cols-len(ref))...)
				pages = int64(n/PageRows + 2)
			case k < 9:
				v := p.Freeze()
				if again := p.Freeze(); again != v {
					t.Fatalf("seed %d op %d: an unchanged array refroze to a new view", seed, op)
				}
				views = append(views, frozen{v, append([]float64(nil), ref...)})
			default:
				if p.Rows() > 0 {
					rows := []int{rng.Intn(p.Rows()), rng.Intn(p.Rows())}
					p.Privatize(rows)
					pages = 2
				}
			}
			EnableMeter(false)
			if got := TotalFloats(); got > pages*PageRows*cols {
				t.Fatalf("seed %d op %d: metered %d floats, want at most %d pages", seed, op, got, pages)
			}
			if got := readAll(&p.RowView); !equalFloats(got, ref) {
				t.Fatalf("seed %d op %d: live rows differ from the reference", seed, op)
			}
			for _, f := range views {
				if got := readAll(f.v); !equalFloats(got, f.want) {
					t.Fatalf("seed %d op %d: a frozen view changed", seed, op)
				}
			}
		}
	}
}

// A view of a dense matrix slices its storage, Dense copies its rows in
// order, and Thaw lets an array write the pages its dropped view shared in
// place again.
func TestRowViewReadsAndThaw(t *testing.T) {
	m := NewRandom(rand.New(rand.NewSource(3)), 2*PageRows+7, 2, 1)
	v := ViewOf(m)
	if &v.Row(PageRows + 1)[0] != &m.Row(PageRows + 1)[0] {
		t.Fatal("ViewOf copied the matrix")
	}
	if !v.Dense().Equal(m) {
		t.Fatal("Dense differs from the dense matrix")
	}
	if (*RowView)(nil).Rows() != 0 {
		t.Fatal("a nil view should hold no rows")
	}
	if empty := ViewOf(New(PageRows+1, 0)); len(empty.Row(PageRows)) != 0 {
		t.Fatal("a zero-width view should read empty rows")
	}
	p := PagedFrom(m.Clone())
	p.Freeze()
	p.Thaw()
	before := &p.Row(0)[0]
	p.SetRow(0, []float64{1, 2})
	if &p.Row(0)[0] != before {
		t.Fatal("a thawed page was cloned")
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
