// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the repository.
//
// Every stochastic component in the library (synthetic data generation,
// priority sampling, Gaussian probes for reconstruction-error estimation,
// UMAP negative sampling, detector noise) takes an explicit *rng.RNG so
// that experiments and tests are exactly reproducible. Parallel code
// derives independent per-worker streams with Split, which produces a
// statistically independent generator from a parent stream without
// sharing state, so results do not depend on goroutine scheduling.
//
// The core generator is PCG64 (permuted congruential generator,
// O'Neill 2014) with a 128-bit LCG state and an XSL-RR output function.
package rng

import "math"

// RNG is a PCG64 pseudo-random generator. It is not safe for concurrent
// use; derive one generator per goroutine with Split.
type RNG struct {
	hi, lo uint64 // 128-bit state
	incHi  uint64 // stream selector (must be odd in low word)
	incLo  uint64

	haveGauss bool
	gauss     float64
}

// Default multiplier for the 128-bit LCG step (PCG reference constants).
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
)

// New returns a generator seeded from seed on the default stream.
func New(seed uint64) *RNG {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a generator with an explicit stream identifier,
// allowing many independent sequences from the same seed.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{}
	r.incHi = stream
	r.incLo = stream<<1 | 1 // increment must be odd
	// Standard PCG seeding: advance once, add seed, advance again.
	r.step()
	r.lo += seed
	r.hi += SplitMix64(seed)
	r.step()
	return r
}

// Split derives a new, statistically independent generator from r.
// The parent is advanced, so successive Splits yield distinct children.
func (r *RNG) Split() *RNG {
	seed := r.Uint64()
	stream := r.Uint64() | 1
	return NewStream(seed, stream)
}

// SplitMix64 is one step of the SplitMix64 generator (Steele, Lea and
// Flood): the golden-gamma increment, then its finalizer. It decorrelates
// nearby seeds; engine shard seeds and obs trace IDs are made with it.
func SplitMix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// step advances the 128-bit LCG state.
func (r *RNG) step() {
	// (hi,lo) = (hi,lo)*mul + inc, all mod 2^128.
	lo, carry := mul64Lo(r.lo, mulLo)
	hi := r.hi*mulLo + r.lo*mulHi + carry
	lo += r.incLo
	if lo < r.incLo {
		hi++
	}
	hi += r.incHi
	r.hi, r.lo = hi, lo
}

// mul64Lo returns the low 64 bits of a*b and the high 64 bits (carry).
func mul64Lo(a, b uint64) (lo, hi uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	w0 := t & mask
	carry := t >> 32
	t = a1*b0 + carry
	w1 := t & mask
	w2 := t >> 32
	t = a0*b1 + w1
	lo = t<<32 | w0
	hi = a1*b1 + w2 + t>>32
	return lo, hi
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.step()
	// XSL-RR output: xor-shift-low, random rotate.
	x := r.hi ^ r.lo
	rot := uint(r.hi >> 58)
	return x>>rot | x<<((64-rot)&63)
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless method with rejection.
	for {
		v := r.Uint64()
		lo, hi := mul64Lo(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform value in (0, 1), never exactly zero,
// suitable for use as a denominator (e.g. priority sampling) or inside
// logarithms.
func (r *RNG) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Norm returns a standard normal variate using the Marsaglia polar
// method, caching the spare deviate.
func (r *RNG) Norm() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.haveGauss = true
		return u * f
	}
}

// Exp returns an exponentially distributed variate with rate 1.
func (r *RNG) Exp() float64 {
	return -math.Log(r.Float64Open())
}

// Poisson returns a Poisson-distributed variate with the given mean.
// For small means it uses Knuth's product method; for large means a
// Gaussian approximation with continuity correction, which is adequate
// for simulated detector noise.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := mean + math.Sqrt(mean)*r.Norm() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
