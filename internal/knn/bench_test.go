package knn

import "testing"

// BenchmarkBruteForce is the kNN graph UMAP and ABOD build per snapshot.
func BenchmarkBruteForce(b *testing.B) {
	x := points(512, 12, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = BruteForce(x, 10)
	}
}
