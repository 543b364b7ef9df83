package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics (the "linear" / type-7 rule:
// position q·(n−1)). One sample is its own quantile; no samples is NaN.
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// p25 is the statistic every wall-clock metric reports: interference on
// a shared host only ever adds time, and the lower quartile of ≥30
// samples still has a quarter of the samples beyond it.
func p25(xs []float64) float64 { return quantile(xs, 0.25) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples collects per-call or per-cycle timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
