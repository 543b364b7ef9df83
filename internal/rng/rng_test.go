package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children and parent should all produce distinct streams.
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		for _, g := range []*RNG{parent, c1, c2} {
			v := g.Uint64()
			if seen[v] {
				t.Fatalf("collision across split streams at step %d", i)
			}
			seen[v] = true
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64OpenNonzero(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		if v := r.Float64Open(); v <= 0 || v >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", v)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(5)
	f := func(n uint16) bool {
		m := uint64(n) + 1
		v := r.Uint64n(m)
		return v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp mean = %v, want ~1", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(10)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		tol := 4 * math.Sqrt(mean/n) * 3
		if math.Abs(got-mean) > tol+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPoissonEdge(t *testing.T) {
	r := New(11)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-5); got != 0 {
		t.Errorf("Poisson(-5) = %d, want 0", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var s uint64
	for i := 0; i < b.N; i++ {
		s += r.Uint64()
	}
	_ = s
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.Norm()
	}
	_ = s
}
