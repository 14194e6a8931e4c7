package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSE(t *testing.T) {
	if got := MSE([]float64{1, 2}, []float64{1, 4}); got != 2 {
		t.Fatalf("MSE = %v", got)
	}
	if MSE(nil, nil) != 0 {
		t.Fatal("empty MSE should be 0")
	}
}

func TestMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestAccuracy(t *testing.T) {
	scores := []float64{0.9, 0.2, 0.7, 0.1}
	labels := []bool{true, false, false, true}
	if got := Accuracy(scores, labels, 0.5); got != 0.5 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil, 0) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestAUCPerfectAndInverted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []bool{false, false, true, true}
	if got := AUC(scores, labels); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	inverted := []bool{true, true, false, false}
	if got := AUC(scores, inverted); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Float64() < 0.5
	}
	if got := AUC(scores, labels); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("random AUC = %v", got)
	}
}

func TestAUCTiesGiveHalfCredit(t *testing.T) {
	// All scores identical: AUC should be exactly 0.5.
	scores := []float64{1, 1, 1, 1}
	labels := []bool{true, false, true, false}
	if got := AUC(scores, labels); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %v", got)
	}
}

func TestAUCDegenerate(t *testing.T) {
	if !math.IsNaN(AUC([]float64{1, 2}, []bool{true, true})) {
		t.Fatal("single-class AUC should be NaN")
	}
}

// Property: AUC is invariant under strictly monotone score transforms.
func TestAUCMonotoneInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		scores := make([]float64, n)
		labels := make([]bool, n)
		pos, neg := false, false
		for i := range scores {
			scores[i] = rng.NormFloat64()
			labels[i] = rng.Float64() < 0.5
			if labels[i] {
				pos = true
			} else {
				neg = true
			}
		}
		if !pos || !neg {
			return true
		}
		a := AUC(scores, labels)
		warped := make([]float64, n)
		for i, s := range scores {
			warped[i] = math.Exp(s) + 3
		}
		return math.Abs(a-AUC(warped, labels)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMRR(t *testing.T) {
	if got := MRR([]int{1, 2, 4}); math.Abs(got-(1+0.5+0.25)/3) > 1e-12 {
		t.Fatalf("MRR = %v", got)
	}
	if MRR(nil) != 0 {
		t.Fatal("empty MRR should be 0")
	}
}

func TestMRRRejectsBadRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MRR([]int{0})
}

func TestRankOf(t *testing.T) {
	if got := RankOf(0.9, []float64{0.1, 0.2, 0.3}); got != 1 {
		t.Fatalf("best rank = %d", got)
	}
	if got := RankOf(0.1, []float64{0.5, 0.9}); got != 3 {
		t.Fatalf("worst rank = %d", got)
	}
	if got := RankOf(0.5, []float64{0.5, 0.5}); got != 2 {
		t.Fatalf("tied rank = %d", got)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	wantStd := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std()-wantStd) > 1e-12 {
		t.Fatalf("Std = %v, want %v", s.Std(), wantStd)
	}
}

func TestSummarySingleValue(t *testing.T) {
	var s Summary
	s.Add(3)
	if s.Std() != 0 || s.Mean() != 3 {
		t.Fatal("single-value summary wrong")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(3)
	if s.String() != "2.00 ± 1.41" {
		t.Fatalf("String = %q", s.String())
	}
}
