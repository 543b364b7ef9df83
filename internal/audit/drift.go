package audit

import (
	"fmt"
	"math"
)

// DetectorState is the checkpointable snapshot of a Page-Hinkley
// detector: enough plain floats to resume it exactly where it left off
// across a crash/restore cycle. Kind is always "page_hinkley" — the
// name stays in the checkpoint layout, and the decoders refuse any
// other.
type DetectorState struct {
	Kind   string  // "page_hinkley"
	Thresh float64 // λ
	Slack  float64 // δ
	Warmup int     // MinSamples
	N      int     // observations consumed
	Mean   float64 // running mean
	Pos    float64 // upward statistic m_T
	PosExt float64 // min m_T
	Neg    float64 // downward statistic m̃_T
	NegExt float64 // max m̃_T
}

// NewDetectorFromState reconstructs a detector from a checkpointed
// snapshot; a kind other than "page_hinkley" is an error.
func NewDetectorFromState(st DetectorState) (*PageHinkley, error) {
	if st.Kind != "page_hinkley" {
		return nil, fmt.Errorf("audit: unknown detector kind %q", st.Kind)
	}
	return pageHinkleyFromState(st), nil
}

// pageHinkleyFromState adopts a snapshot's parameters and statistics.
func pageHinkleyFromState(st DetectorState) *PageHinkley {
	d := &PageHinkley{Delta: st.Slack, Lambda: st.Thresh, MinSamples: st.Warmup}
	d.n, d.mean = st.N, st.Mean
	d.mPos, d.minPos = st.Pos, st.PosExt
	d.mNeg, d.maxNeg = st.Neg, st.NegExt
	return d
}

// PageHinkley is the two-sided Page-Hinkley test: it tracks the
// cumulative deviation of the stream from its running mean (minus a
// slack δ that absorbs benign wander) and alarms when the gap between
// the cumulative statistic and its historical extremum exceeds λ.
// Classic choice for drift over per-batch residuals: O(1) state, no
// window, and λ directly trades detection delay for false alarms.
type PageHinkley struct {
	// Delta is the per-sample slack δ: drifts smaller than δ per batch
	// are absorbed rather than accumulated.
	Delta float64
	// Lambda is the alarm threshold λ on the accumulated deviation.
	Lambda float64
	// MinSamples suppresses alarms until this many observations have
	// been consumed (the running mean is meaningless before that).
	MinSamples int

	n            int
	mean         float64
	mPos, minPos float64 // upward-shift statistic and its running min
	mNeg, maxNeg float64 // downward-shift statistic and its running max
}

// NewPageHinkley builds a two-sided Page-Hinkley detector with slack
// delta, threshold lambda, and a 30-observation warmup.
func NewPageHinkley(delta, lambda float64) *PageHinkley {
	return &PageHinkley{Delta: delta, Lambda: lambda, MinSamples: 30}
}

// Update consumes one observation and reports alarm state.
func (d *PageHinkley) Update(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false // never let a degenerate batch poison the statistic
	}
	d.n++
	d.mean += (v - d.mean) / float64(d.n)
	d.mPos += v - d.mean - d.Delta
	if d.mPos < d.minPos {
		d.minPos = d.mPos
	}
	d.mNeg += v - d.mean + d.Delta
	if d.mNeg > d.maxNeg {
		d.maxNeg = d.mNeg
	}
	if d.n < d.MinSamples {
		return false
	}
	return d.mPos-d.minPos > d.Lambda || d.maxNeg-d.mNeg > d.Lambda
}

// Reset clears the statistics (parameters are kept).
func (d *PageHinkley) Reset() {
	d.n, d.mean = 0, 0
	d.mPos, d.minPos, d.mNeg, d.maxNeg = 0, 0, 0, 0
}

// State snapshots the detector for checkpointing.
func (d *PageHinkley) State() DetectorState {
	return DetectorState{
		Kind: "page_hinkley", Thresh: d.Lambda, Slack: d.Delta, Warmup: d.MinSamples,
		N: d.n, Mean: d.mean,
		Pos: d.mPos, PosExt: d.minPos,
		Neg: d.mNeg, NegExt: d.maxNeg,
	}
}
