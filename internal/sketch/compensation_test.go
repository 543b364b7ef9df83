package sketch

import (
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

func TestDeltaAccumulates(t *testing.T) {
	g := rng.New(90)
	a := mat.RandGaussian(200, 30, g)
	fd := NewFrequentDirections(8, 30, Options{})
	if fd.Delta() != 0 {
		t.Fatal("fresh sketch has nonzero delta")
	}
	fd.AppendMatrix(a)
	fd.Compact()
	if fd.Delta() <= 0 {
		t.Fatal("delta did not accumulate over rotations")
	}
}

func TestCompensationMergePropagates(t *testing.T) {
	g := rng.New(92)
	a1 := mat.RandGaussian(150, 20, g)
	a2 := mat.RandGaussian(150, 20, g)
	fd1 := NewFrequentDirections(6, 20, Options{})
	fd2 := NewFrequentDirections(6, 20, Options{})
	fd1.AppendMatrix(a1)
	fd2.AppendMatrix(a2)
	fd1.Compact()
	fd2.Compact()
	d1, d2 := fd1.Delta(), fd2.Delta()
	fd1.Merge(fd2)
	if fd1.Delta() < d1+d2 {
		t.Fatalf("merge lost shrinkage accounting: %v < %v + %v", fd1.Delta(), d1, d2)
	}
}
