package umap

import "math"

const (
	powMantBits = 11  // mantissa table resolves the top 11 fraction bits
	powExpMax   = 200 // table covers 2^-200 ≤ x < 2^201
	powFracBits = 52 - powMantBits
)

// curve is the layout's membership curve 1/(1 + a·d^{2b}) and the
// gradient coefficients the SGD takes from it. Both need d²ᵇ for the
// model's one fixed b, so instead of math.Pow the curve carries a table:
// with x = f·2ᵉ, f ∈ [1, 2), xᵇ = fᵇ · 2^{be}, the first factor by linear
// interpolation between 2¹¹ nodes and the second looked up by e.
type curve struct {
	a, b float64
	mant [1<<powMantBits + 1]float64
	exp  [2*powExpMax + 1]float64
}

// newCurve builds the curve for one (a, b) pair, as FitAB returns it.
func newCurve(a, b float64) *curve {
	c := &curve{a: a, b: b}
	// A chord of fᵇ errs to one side by up to h²·|(fᵇ)″|/8 at its middle.
	// Moving every node by half of that makes the error two-sided and
	// half as large: relative error ≤ |b(b−1)|·2⁻²⁶ (1.4e-9 at b = 0.895).
	const h = 1.0 / (1 << powMantBits)
	for i := range c.mant {
		f := 1 + float64(i)*h
		c.mant[i] = math.Pow(f, c.b) * (1 - c.b*(c.b-1)*h*h/(16*f*f))
	}
	for i := range c.exp {
		c.exp[i] = math.Pow(2, c.b*float64(i-powExpMax))
	}
	return c
}

// pow returns xᵇ: from the table for positive normal x inside its
// exponent range, from math.Pow for everything else (zero, subnormal,
// negative, huge, ±Inf, NaN).
func (c *curve) pow(x float64) float64 {
	bits := math.Float64bits(x)
	// Sign and exponent fields together, rebased so the table's lowest
	// exponent is 0; every input the table does not cover wraps or lands
	// above its top.
	e := uint(bits>>52) - (1023 - powExpMax)
	if e > 2*powExpMax {
		return math.Pow(x, c.b)
	}
	i := bits >> powFracBits & (1<<powMantBits - 1)
	t := float64(bits&(1<<powFracBits-1)) * (1.0 / (1 << powFracBits))
	m := c.mant[i]
	return (m + t*(c.mant[i+1]-m)) * c.exp[e]
}

// attract is the attractive gradient coefficient −2ab·d^{2(b−1)}/(1+a·d^{2b})
// at squared distance d2 > 0.
func (c *curve) attract(d2 float64) float64 {
	p := c.pow(d2)
	return -2 * c.a * c.b * p / (d2 * (1 + c.a*p))
}

// repel is the repulsive gradient coefficient 2b/((0.001+d²)(1+a·d^{2b})).
func (c *curve) repel(d2 float64) float64 {
	return 2 * c.b / ((0.001 + d2) * (1 + c.a*c.pow(d2)))
}

// clip bounds one gradient component to the reference's ±4.
func clip(v float64) float64 {
	if v > 4 {
		return 4
	}
	if v < -4 {
		return -4
	}
	return v
}
