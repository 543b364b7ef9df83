package stats

import (
	"math"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if got := Pearson(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", got)
	}
	c := []float64{5, 4, 3, 2, 1}
	if got := Pearson(a, c); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	constant := []float64{7, 7, 7, 7, 7}
	if got := Pearson(a, constant); got != 0 {
		t.Fatalf("constant input correlation = %v", got)
	}
}

func TestPearsonMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatch did not panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestSpearmanMonotone(t *testing.T) {
	// Any monotone transform gives ρ = 1.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{1, 8, 27, 64, 125} // cubed: nonlinear but monotone
	if got := Spearman(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman of monotone transform = %v", got)
	}
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{30, 10, 20})
	want := []float64{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v", got)
		}
	}
}

func TestMedianQuantile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if got := Median(v); got != 3 {
		t.Fatalf("Median = %v", got)
	}
	if got := Quantile(v, 0); got != 1 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := Quantile(v, 0.99); got != 5 {
		t.Fatalf("Quantile(0.99) = %v", got)
	}
	if Median(nil) != 0 {
		t.Fatal("empty median not zero")
	}
	// Input unchanged.
	if v[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestTrustworthiness(t *testing.T) {
	// Worked by hand: five points on a line, the embedding swaps the two
	// ends. Rows 0, 1 and 4 get an intruder as nearest neighbour, of
	// high-space rank 3, 4 and 3: penalty (3−1)+(4−1)+(3−1) = 7, and
	// T(1) = 1 − 2·7/(5·1·(10−3−1)).
	high := mat.FromRows([][]float64{{0}, {1}, {2.1}, {3.3}, {4.6}})
	low := mat.FromRows([][]float64{{4.6}, {1}, {2.1}, {3.3}, {0}})
	if got, want := Trustworthiness(high, low, 1), 1-14.0/30; math.Abs(got-want) > 1e-15 {
		t.Fatalf("hand-worked case: T = %v, want %v", got, want)
	}

	g := rng.New(7)
	x := mat.RandGaussian(300, 6, g)
	if got := Trustworthiness(x, x.Clone(), 10); got != 1 {
		t.Fatalf("identity map: T = %v, want 1", got)
	}
	// The same rows dealt out in shuffled order: every shown neighbour
	// is an intruder of uniformly random rank, so
	// T = 1 − (n−k)/(2n−3k−1) ≈ ½.
	shuffled := mat.New(x.RowsN, x.ColsN)
	for i, p := range g.Perm(x.RowsN) {
		copy(shuffled.Row(i), x.Row(p))
	}
	if got := Trustworthiness(x, shuffled, 10); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("shuffled map: T = %v, want ≈ 0.5", got)
	}
	// Duplicate rows tie at distance zero; ties rank by index, as the kNN
	// graph orders them, so an identity map still scores exactly 1.
	dup := mat.FromRows([][]float64{{0, 0}, {0, 0}, {0, 0}, {1, 0}, {1, 0}, {5, 5}, {5, 6}})
	if got := Trustworthiness(dup, dup.Clone(), 2); got != 1 {
		t.Fatalf("identity map with duplicate rows: T = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("k ≥ n/2 did not panic")
		}
	}()
	Trustworthiness(high, low, 3)
}
