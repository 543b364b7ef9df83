package obs

import "math"

// Add increments the gauge by v (v may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Reset drops every metric, time series, retained trace, and cached
// stage-histogram handle. Extra HTTP handlers are kept — they are
// process wiring, not recorded state. An armed flight recorder also
// stays armed (its next samples simply start from the
// cleared state). Intended for tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.metrics = make(map[string]interface{})
	r.kinds = make(map[string]string)
	r.series = nil
	r.mu.Unlock()
	r.traces.reset()
	r.stageHists.Range(func(k, _ interface{}) bool {
		r.stageHists.Delete(k)
		return true
	})
}
