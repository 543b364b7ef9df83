package umap

import (
	"math"
	"testing"

	"arams/internal/rng"
)

// TestCurvePowAccuracy: across the table's whole range, 2⁻²⁰⁰ to 2²⁰¹,
// the interpolated power is within 1e-8 of math.Pow for every b a
// MinDist/Spread pair can fit (0.79 at MinDist → 0, 0.895 at the
// default, 1.3 at MinDist 0.5), b = 1 where the chord is exact and
// b = 0.5 below the fitted range.
func TestCurvePowAccuracy(t *testing.T) {
	lo, hi := math.Ldexp(1, -powExpMax), math.Ldexp(1, powExpMax+1)
	for _, b := range []float64{0.5, 0.79, 0.895, 1, 1.3} {
		c := newCurve(1.577, b)
		g := rng.New(uint64(1000 * b))
		var worst float64
		for i := 0; i < 1_000_000; i++ {
			x := math.Exp(math.Log(lo) + g.Float64()*(math.Log(hi)-math.Log(lo)))
			if x < lo || x >= hi {
				continue
			}
			want := math.Pow(x, b)
			worst = math.Max(worst, math.Abs(c.pow(x)-want)/want)
		}
		if worst > 1e-8 {
			t.Errorf("b=%v: worst relative error %.3g over the table range, want ≤ 1e-8", b, worst)
		}
		if bound := math.Abs(b*(b-1))*math.Ldexp(1, -26) + 1e-15; worst > 1.01*bound {
			t.Errorf("b=%v: worst relative error %.3g exceeds the stated |b(b−1)|·2⁻²⁶ = %.3g", b, worst, bound)
		}
	}
}

// TestCurvePowFallback: what the table does not cover goes to math.Pow
// and comes back bit for bit — zero, subnormals, negatives, the first
// value above the table and the last below it, infinities and NaN — and
// the table's own first and last arguments are answered from the table
// within its error.
func TestCurvePowFallback(t *testing.T) {
	lo, hi := math.Ldexp(1, -powExpMax), math.Ldexp(1, powExpMax+1)
	for _, b := range []float64{0.79, 0.895, 1.3} {
		c := newCurve(1.577, b)
		for _, x := range []float64{
			0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-310, math.Ldexp(1, -1023),
			math.Nextafter(lo, 0), hi, math.Ldexp(1, 1023), math.MaxFloat64,
			math.Inf(1), math.Inf(-1), math.NaN(), -1, -0.25, -math.MaxFloat64,
		} {
			got, want := c.pow(x), math.Pow(x, b)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("b=%v: pow(%g) = %g, want math.Pow's %g exactly", b, x, got, want)
			}
		}
		for _, x := range []float64{lo, math.Nextafter(lo, 1), math.Nextafter(hi, 0), 1, math.Nextafter(1, 0), math.Nextafter(2, 0)} {
			got, want := c.pow(x), math.Pow(x, b)
			if math.Abs(got-want) > 1e-8*want {
				t.Errorf("b=%v: pow(%g) = %g, want %g within 1e-8", b, x, got, want)
			}
		}
	}
}

// TestCurveCoefficients: the two methods are the reference gradient
// coefficients, to the table's error.
func TestCurveCoefficients(t *testing.T) {
	c := newCurve(FitAB(1, 0.1))
	for _, d2 := range []float64{1e-12, 1e-4, 0.03, 1, 7.5, 400, 1e9} {
		attract := -2 * c.a * c.b * math.Pow(d2, c.b-1) / (1 + c.a*math.Pow(d2, c.b))
		repel := 2 * c.b / ((0.001 + d2) * (1 + c.a*math.Pow(d2, c.b)))
		if got := c.attract(d2); math.Abs(got-attract) > 1e-8*math.Abs(attract) {
			t.Errorf("attract(%g) = %g, want %g", d2, got, attract)
		}
		if got := c.repel(d2); math.Abs(got-repel) > 1e-8*repel {
			t.Errorf("repel(%g) = %g, want %g", d2, got, repel)
		}
	}
}

var powSink float64

// BenchmarkPow is the kernel table in EXPERIMENTS.md: the curve's power
// against math.Pow on squared distances as the SGD sees them.
func BenchmarkPow(b *testing.B) {
	c := newCurve(FitAB(1, 0.1))
	g := rng.New(1)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = math.Exp(-8 + 14*g.Float64())
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			powSink += c.pow(xs[i&4095])
		}
	})
	b.Run("math", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			powSink += math.Pow(xs[i&4095], c.b)
		}
	})
}
