package shard

import "testing"

func TestParseLayout(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Layout
	}{{"", Hash}, {"hash", Hash}, {"range", Range}} {
		got, err := ParseLayout(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseLayout(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseLayout("zebra"); err == nil {
		t.Fatal("ParseLayout accepted an unknown layout")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(0, Hash); err == nil {
		t.Fatal("New accepted P=0")
	}
	if _, err := New(-3, Range); err == nil {
		t.Fatal("New accepted a negative shard count")
	}
	if _, err := New(4, Layout(9)); err == nil {
		t.Fatal("New accepted an invalid layout")
	}
}

// Of must be a pure function of (id, P, layout): stable across calls and
// always in range, for both layouts.
func TestOfDeterministicAndInRange(t *testing.T) {
	for _, l := range []Layout{Hash, Range} {
		for _, p := range []int{1, 2, 4, 7} {
			s, err := New(p, l)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 5000; v++ {
				si := s.Of(v)
				if si < 0 || si >= p {
					t.Fatalf("%v/P=%d: Of(%d) = %d out of range", l, p, v, si)
				}
				if si != s.Of(v) {
					t.Fatalf("%v/P=%d: Of(%d) unstable", l, p, v)
				}
			}
		}
	}
}

// Range keeps RangeBlock consecutive ids together; Hash spreads load so no
// shard owns a grossly unfair share of a dense id space.
func TestLayoutShapes(t *testing.T) {
	r, _ := New(4, Range)
	for v := 0; v < RangeBlock; v++ {
		if r.Of(v) != 0 {
			t.Fatalf("range: Of(%d) = %d, want 0 inside the first block", v, r.Of(v))
		}
	}
	if r.Of(RangeBlock) != 1 || r.Of(4*RangeBlock) != 0 {
		t.Fatal("range: blocks are not assigned round-robin")
	}

	h, _ := New(4, Hash)
	counts := make([]int, 4)
	const n = 8000
	for v := 0; v < n; v++ {
		counts[h.Of(v)]++
	}
	for si, c := range counts {
		if c < n/8 || c > n/2 {
			t.Fatalf("hash: shard %d owns %d of %d ids — badly unbalanced", si, c, n)
		}
	}
}
