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

// TestInPlaceBackMultiplyAllocatesNothing: the rotation's back-multiply
// copies its panels into a stack slot, serially and on 2- and 4-wide
// pools (a 50×4096 rotation takes the pooled branch from width 2), and
// the decomposition around it — the split Gram's widened panels
// included — draws from the pools. A fresh pool's workers each lock an
// OS thread once they first run, and the runtime allocates for a thread
// it starts; that lands in whichever call is being counted, so the
// count is over a hundred calls, and AllocsPerRun's whole-number average
// leaves out what happens fewer times than once a call.
func TestInPlaceBackMultiplyAllocatesNothing(t *testing.T) {
	a := RandGaussian(50, 4096, rng.New(521))
	top, low := splitOf(a, 25)
	coef := RandOrthonormalCols(50, 25, rng.New(522)).T() // keeps top bounded
	dst := top.Rows(0, 25)
	sigma := make([]float64, 50)
	for _, width := range []int{1, 2, 4} {
		withPoolWidth(width, func() {
			if n := testing.AllocsPerRun(100, func() { mulSplitTo(dst, coef, split{top, low}) }); n != 0 {
				t.Errorf("mulSplitTo on a %d-wide pool allocates %v times per call", width, n)
			}
			if n := testing.AllocsPerRun(100, func() { SVDGramInPlace(top, low, sigma, 25) }); n != 0 {
				t.Errorf("SVDGramInPlace on a %d-wide pool allocates %v times per call", width, n)
			}
		})
	}
}
