package drift

import (
	"math/rand"
	"testing"
)

// stepSignal emits noisy values at level lo for n steps, then at hi.
func stepSignal(rng *rand.Rand, lo, hi float64, n, m int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, lo+0.05*rng.NormFloat64())
	}
	for i := 0; i < m; i++ {
		out = append(out, hi+0.05*rng.NormFloat64())
	}
	return out
}

func detectAt(d *PageHinkley, xs []float64) int {
	for i, x := range xs {
		if d.Add(x) {
			return i
		}
	}
	return -1
}

func TestPageHinkleyDetectsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := stepSignal(rng, 1, 5, 30, 20)
	at := detectAt(NewPageHinkley(0.1, 2), xs)
	if at < 30 {
		t.Fatalf("false positive at %d", at)
	}
	if at < 0 || at > 36 {
		t.Fatalf("shift at step 30 detected at %d", at)
	}
}

func TestPageHinkleyQuietOnStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewPageHinkley(0.1, 5)
	for i := 0; i < 500; i++ {
		if d.Add(1 + 0.05*rng.NormFloat64()) {
			t.Fatalf("false positive on stationary signal at %d", i)
		}
	}
}

func TestPageHinkleyResetsAfterDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewPageHinkley(0.1, 2)
	xs := stepSignal(rng, 1, 5, 20, 10)
	if detectAt(d, xs) < 0 {
		t.Fatal("first shift missed")
	}
	// After reset, a fresh shift is detected again.
	xs2 := stepSignal(rng, 5, 15, 20, 10)
	if detectAt(d, xs2) < 0 {
		t.Fatal("second shift missed after reset")
	}
}

func TestPageHinkleyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPageHinkley(-1, 1)
}
