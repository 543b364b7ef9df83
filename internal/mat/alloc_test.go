//go:build !race

package mat

import (
	"testing"

	"arams/internal/rng"
)

// TestSVDGramToAllocatesNothingOnThePool: the rotation's "zero heap
// allocations" must hold on the pooled branches too, not only on the
// serial one a 1-wide host runs. (Under -race sync.Pool drops a quarter
// of what it is given, so the count means nothing there.)
func TestSVDGramToAllocatesNothingOnThePool(t *testing.T) {
	a := RandGaussian(50, 4096, rng.New(520))
	vt, sigma := New(25, 4096), make([]float64, 50)
	withPoolWidth(2, func() {
		SVDGramTo(a, sigma, vt) // the workers start, the scratch is sized
		if n := testing.AllocsPerRun(20, func() { SVDGramTo(a, sigma, vt) }); n != 0 {
			t.Errorf("SVDGramTo on a 2-wide pool allocates %v times per call", n)
		}
	})
}
