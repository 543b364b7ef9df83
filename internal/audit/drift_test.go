package audit_test

import (
	"math"
	"testing"

	"arams/internal/audit"
	"arams/internal/rng"
)

// stationary emits n draws from a fixed N(mean, sd²) stream.
func stationary(g *rng.RNG, n int, mean, sd float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + sd*g.Norm()
	}
	return out
}

// detectors under test, built fresh per case so cases don't share
// state. The parameters are deliberately tight (small slack, small
// threshold) so shifts of ±0.2 are found quickly while sd=0.01 noise
// never fires.
func testDetectors() map[string]func() *audit.PageHinkley {
	return map[string]func() *audit.PageHinkley{
		"page_hinkley": func() *audit.PageHinkley { return audit.NewPageHinkley(0.02, 0.3) },
	}
}

// TestDetectorStationaryNoAlarm: 2000 samples of a stationary stream
// must never alarm.
func TestDetectorStationaryNoAlarm(t *testing.T) {
	for name, mk := range testDetectors() {
		d := mk()
		g := rng.New(101)
		for i, v := range stationary(g, 2000, 0.5, 0.01) {
			if d.Update(v) {
				t.Fatalf("%s: false alarm at stationary sample %d (value %v)", name, i, v)
			}
		}
	}
}

// TestDetectorDetectsShift: a mean shift of ±0.2 after a stationary
// prefix must alarm within a bounded number of post-shift samples.
func TestDetectorDetectsShift(t *testing.T) {
	for name, mk := range testDetectors() {
		for _, shift := range []float64{0.2, -0.2} {
			d := mk()
			g := rng.New(77)
			for i, v := range stationary(g, 200, 0.5, 0.01) {
				if d.Update(v) {
					t.Fatalf("%s: false alarm during prefix at %d", name, i)
				}
			}
			fired := -1
			for i, v := range stationary(g, 50, 0.5+shift, 0.01) {
				if d.Update(v) {
					fired = i
					break
				}
			}
			if fired < 0 {
				t.Fatalf("%s: shift %+v not detected within 50 samples", name, shift)
			}
			if fired > 10 {
				t.Fatalf("%s: shift %+v detected only after %d samples", name, shift, fired)
			}
		}
	}
}

// TestDetectorWarmupSuppression: even an enormous jump must not alarm
// before MinSamples observations, however extreme the statistic.
func TestDetectorWarmupSuppression(t *testing.T) {
	for name, mk := range testDetectors() {
		d := mk()
		warm := d.State().Warmup
		if warm < 2 {
			t.Fatalf("%s: default warmup %d too small to test", name, warm)
		}
		for i := 0; i < warm-1; i++ {
			v := 0.0
			if i > 0 {
				v = 1000 // violent jump right after the first sample
			}
			if d.Update(v) {
				t.Fatalf("%s: alarm at sample %d, before warmup %d", name, i+1, warm)
			}
		}
	}
}

// TestDetectorIgnoresNonFinite: NaN and ±Inf observations are dropped
// — no alarm, no state advance — and the detector keeps working on the
// finite samples that follow.
func TestDetectorIgnoresNonFinite(t *testing.T) {
	for name, mk := range testDetectors() {
		d := mk()
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if d.Update(v) {
				t.Fatalf("%s: alarm on non-finite observation %v", name, v)
			}
		}
		if n := d.State().N; n != 0 {
			t.Fatalf("%s: non-finite observations advanced N to %d", name, n)
		}
		d.Update(0.5)
		if n := d.State().N; n != 1 {
			t.Fatalf("%s: N = %d after one finite observation, want 1", name, n)
		}
	}
}

// TestDetectorStateRoundTrip: snapshotting a detector mid-stream and
// rebuilding it via NewDetectorFromState must continue identically —
// same alarm sequence, same final state — against the original.
func TestDetectorStateRoundTrip(t *testing.T) {
	for name, mk := range testDetectors() {
		d := mk()
		g := rng.New(5)
		for _, v := range stationary(g, 120, 0.3, 0.02) {
			d.Update(v)
		}
		clone, err := audit.NewDetectorFromState(d.State())
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if clone.State() != d.State() {
			t.Fatalf("%s: restored state %+v != original %+v", name, clone.State(), d.State())
		}
		// Drifting suffix: both must fire at exactly the same sample.
		suffix := stationary(g, 80, 0.55, 0.02)
		for i, v := range suffix {
			a, b := d.Update(v), clone.Update(v)
			if a != b {
				t.Fatalf("%s: alarm divergence at suffix sample %d: original %v, restored %v", name, i, a, b)
			}
		}
		if clone.State() != d.State() {
			t.Fatalf("%s: final states diverged: %+v vs %+v", name, clone.State(), d.State())
		}
	}
}

// TestDetectorResetRearms: after an alarm, Reset clears the statistics
// so the detector re-arms instead of staying latched.
func TestDetectorResetRearms(t *testing.T) {
	for name, mk := range testDetectors() {
		d := mk()
		g := rng.New(9)
		for _, v := range stationary(g, 100, 0.2, 0.01) {
			d.Update(v)
		}
		fired := false
		for _, v := range stationary(g, 50, 0.6, 0.01) {
			if d.Update(v) {
				fired = true
				break
			}
		}
		if !fired {
			t.Fatalf("%s: setup shift did not fire", name)
		}
		d.Reset()
		st := d.State()
		if st.N != 0 || st.Mean != 0 || st.Pos != 0 || st.Neg != 0 {
			t.Fatalf("%s: Reset left state %+v", name, st)
		}
		// A fresh stationary stream at the new level must not re-fire.
		for i, v := range stationary(g, 200, 0.6, 0.01) {
			if d.Update(v) {
				t.Fatalf("%s: re-fired at %d after Reset on a stationary stream", name, i)
			}
		}
	}
}

// TestNewDetectorFromStateUnknownKind: every kind but Page-Hinkley is
// an error, not a silent fallback — the retired CUSUM kind included.
func TestNewDetectorFromStateUnknownKind(t *testing.T) {
	for _, kind := range []string{"ewma", "cusum"} {
		if _, err := audit.NewDetectorFromState(audit.DetectorState{Kind: kind}); err == nil {
			t.Fatalf("detector kind %q must error", kind)
		}
	}
	if _, err := audit.NewDetectorFromState(audit.DetectorState{}); err == nil {
		t.Fatal("zero-value detector state must error")
	}
}
