package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64. Add/Inc are lock-free
// (CAS on the float bits) so they are safe on hot paths.
type Counter struct {
	md   meta
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v. Negative deltas are ignored —
// counters only go up.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous float64 value that can go up and down.
type Gauge struct {
	md   meta
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// defaultBuckets are duration-oriented upper bounds in seconds on a
// 1–2.5–5 ladder from 5µs to 5 minutes — wide enough for both a
// per-frame ingest (µs–ms) and a full UMAP fit (seconds–minutes).
var defaultBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60, 120, 300,
}

// Histogram accumulates observations into fixed buckets and supports
// streaming quantile estimates by interpolating within the bucket that
// contains the requested rank. Bounds are upper bucket edges; one
// implicit +Inf bucket catches overflow.
type Histogram struct {
	md     meta
	bounds []float64

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1, last is +Inf
	count  uint64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(md meta, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defaultBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		md:     md,
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.mu.Lock()
	h.counts[lo]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
}

// Snapshot copies the histogram state under its lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.Snapshot().Count }

// Mean of the snapshot (NaN when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile by locating the bucket holding the
// q·count-th observation and interpolating linearly inside it; the
// estimate is clamped to the observed [min, max], which makes it exact
// for constant streams. Returns NaN when empty or when q is NaN.
// Interpolation edges are the observed min/max where they are tighter
// than the bucket bounds, so a bucket that extends below the smallest
// observation (including the first bucket, whose lower edge is
// otherwise unbounded) never drags the estimate outside the data.
// Infinite observations follow Prometheus's histogram_quantile
// convention: a rank landing in a bucket with an infinite edge returns
// the bucket's finite edge instead of interpolating (0·∞ = NaN is the
// failure mode this avoids).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		lo := s.Min
		if i > 0 && s.Bounds[i-1] > lo {
			lo = s.Bounds[i-1]
		}
		hi := s.Max
		if i < len(s.Bounds) && s.Bounds[i] < hi {
			hi = s.Bounds[i]
		}
		switch {
		case math.IsInf(hi, 1):
			// Overflow bucket holding a +Inf observation: report the
			// last finite edge rather than fabricating a value.
			return lo
		case math.IsInf(lo, -1):
			return hi
		case hi <= lo:
			// Degenerate bucket (constant stream, or min == max).
			return lo
		}
		frac := (rank - float64(prev)) / float64(c)
		v := lo + frac*(hi-lo)
		return math.Min(math.Max(v, s.Min), s.Max)
	}
	return s.Max
}
