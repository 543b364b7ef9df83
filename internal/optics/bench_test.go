package optics

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkOpticsRun is the monitor's clustering call: a 2-D embedding
// of one window, unbounded generating radius.
func BenchmarkOpticsRun(b *testing.B) {
	for _, n := range []int{512, 2048} {
		x, _ := blobs(4, n/4, 20, 0.5, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Run(x, 5, math.Inf(1))
			}
		})
	}
}

func BenchmarkExtractXi(b *testing.B) {
	x, _ := blobs(4, 100, 20, 0.5, 2)
	res := Run(x, 5, math.Inf(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.ExtractXi(0.15, 5, 20)
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	x, _ := blobs(4, 100, 20, 0.5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DBSCAN(x, 2.0, 5)
	}
}
