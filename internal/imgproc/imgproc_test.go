package imgproc

import (
	"math"
	"testing"
)

// gaussian builds a test image with a Gaussian spot at (cx, cy).
func gaussian(w, h int, cx, cy, sigma, amp float64) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx := float64(x) - cx
			dy := float64(y) - cy
			im.Set(x, y, amp*math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma)))
		}
	}
	return im
}

func TestAtSet(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(2, 1, 7)
	if im.At(2, 1) != 7 || im.Pix[1*4+2] != 7 {
		t.Fatal("At/Set broken")
	}
}

func TestThreshold(t *testing.T) {
	im := NewImage(2, 2)
	im.Pix = []float64{0.1, 0.5, 0.9, 0.3}
	im.Threshold(0.4)
	want := []float64{0, 0.5, 0.9, 0}
	for i := range want {
		if im.Pix[i] != want[i] {
			t.Fatalf("Threshold: %v", im.Pix)
		}
	}
}

func TestThresholdRelative(t *testing.T) {
	im := NewImage(2, 2)
	im.Pix = []float64{1, 4, 10, 2}
	im.ThresholdRelative(0.3) // cut below 3
	if im.Pix[0] != 0 || im.Pix[1] != 4 || im.Pix[3] != 0 {
		t.Fatalf("ThresholdRelative: %v", im.Pix)
	}
}

func TestNormalize(t *testing.T) {
	im := gaussian(16, 16, 8, 8, 2, 5)
	im.Normalize()
	if math.Abs(im.Sum()-1) > 1e-12 {
		t.Fatalf("Sum after Normalize = %v", im.Sum())
	}
	zero := NewImage(4, 4)
	zero.Normalize() // must not divide by zero
	if zero.Sum() != 0 {
		t.Fatal("zero image changed by Normalize")
	}
}

func TestCenterOfMass(t *testing.T) {
	im := gaussian(32, 32, 10, 20, 2, 1)
	cx, cy := im.CenterOfMass()
	if math.Abs(cx-10) > 0.1 || math.Abs(cy-20) > 0.1 {
		t.Fatalf("CenterOfMass = (%v, %v), want (10, 20)", cx, cy)
	}
	// Zero image: geometric center.
	z := NewImage(5, 7)
	cx, cy = z.CenterOfMass()
	if cx != 2 || cy != 3 {
		t.Fatalf("zero-image COM = (%v, %v)", cx, cy)
	}
}

func TestCrop(t *testing.T) {
	im := NewImage(6, 4)
	for i := range im.Pix {
		im.Pix[i] = float64(i)
	}
	c := im.Crop(2, 1, 3, 2)
	if c.W != 3 || c.H != 2 {
		t.Fatalf("crop shape %d×%d", c.W, c.H)
	}
	if c.At(0, 0) != im.At(2, 1) || c.At(2, 1) != im.At(4, 2) {
		t.Fatal("crop contents wrong")
	}
}

func TestCropCenter(t *testing.T) {
	im := gaussian(32, 32, 16, 16, 3, 1)
	c := im.CropCenter(16, 16)
	if c.W != 16 || c.H != 16 {
		t.Fatalf("CropCenter shape %d×%d", c.W, c.H)
	}
	cx, cy := c.CenterOfMass()
	if math.Abs(cx-7.5) > 0.5 || math.Abs(cy-7.5) > 0.5 {
		t.Fatalf("CropCenter lost the spot: COM (%v, %v)", cx, cy)
	}
}

func TestCropPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds crop did not panic")
		}
	}()
	NewImage(4, 4).Crop(2, 2, 4, 4)
}

func TestBinConservesIntensity(t *testing.T) {
	im := gaussian(16, 16, 8, 8, 2, 1)
	b := im.Bin(4)
	if b.W != 4 || b.H != 4 {
		t.Fatalf("bin shape %d×%d", b.W, b.H)
	}
	if math.Abs(b.Sum()-im.Sum()) > 1e-12 {
		t.Fatalf("Bin changed total intensity: %v vs %v", b.Sum(), im.Sum())
	}
}

func TestBinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad bin factor did not panic")
		}
	}()
	NewImage(10, 10).Bin(3)
}

func TestStatsCircularity(t *testing.T) {
	round := gaussian(48, 48, 24, 24, 4, 1)
	st := ComputeStats(round)
	if st.Circularity < 0.95 {
		t.Fatalf("round spot circularity %v", st.Circularity)
	}
	// Elongated spot: scale x width by 4.
	elong := NewImage(48, 48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			dx := (float64(x) - 24) / 4
			dy := float64(y) - 24
			elong.Set(x, y, math.Exp(-(dx*dx+dy*dy)/(2*4)))
		}
	}
	est := ComputeStats(elong)
	if est.Circularity > 0.5 {
		t.Fatalf("elongated spot circularity %v", est.Circularity)
	}
}

func TestStatsOffset(t *testing.T) {
	im := gaussian(33, 33, 20, 16, 2, 1)
	st := ComputeStats(im)
	if math.Abs(st.OffsetX-4) > 0.2 || math.Abs(st.OffsetY) > 0.2 {
		t.Fatalf("offsets (%v, %v), want (4, 0)", st.OffsetX, st.OffsetY)
	}
}

func TestPreprocessorChain(t *testing.T) {
	im := gaussian(32, 32, 10, 10, 2, 7)
	p := Preprocessor{ThresholdFrac: 0.01, Normalize: true, BinFactor: 2}
	out := p.Apply(im)
	if out.W != 16 || out.H != 16 {
		t.Fatalf("preprocessed shape %d×%d", out.W, out.H)
	}
	if math.Abs(out.Sum()-1) > 1e-9 {
		t.Fatalf("preprocessed sum %v", out.Sum())
	}
	// Original untouched.
	if im.Max() != 7 {
		t.Fatal("Apply mutated its input")
	}
}

// ring renders a thin ring of the given radius with per-quadrant
// weights (NE, NW, SW, SE).
func ring(size int, radius, width float64, q [4]float64) *Image {
	im := NewImage(size, size)
	c := float64(size-1) / 2
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx := float64(x) - c
			dy := float64(y) - c
			r := math.Hypot(dx, dy)
			radial := math.Exp(-(r - radius) * (r - radius) / (2 * width * width))
			var w float64
			switch {
			case dx >= 0 && dy < 0:
				w = q[0]
			case dx < 0 && dy < 0:
				w = q[1]
			case dx < 0 && dy >= 0:
				w = q[2]
			default:
				w = q[3]
			}
			im.Set(x, y, radial*w)
		}
	}
	return im
}

func TestQuadrantSums(t *testing.T) {
	im := ring(96, 30, 2, [4]float64{1, 0.2, 0.2, 0.2})
	q := QuadrantSums(im)
	if !(q[0] > 3*q[1] && q[0] > 3*q[2] && q[0] > 3*q[3]) {
		t.Fatalf("NE quadrant not dominant: %v", q)
	}
	total := q[0] + q[1] + q[2] + q[3]
	if math.Abs(total-im.Sum()) > 1e-9*total {
		t.Fatalf("quadrant sums %v != total %v", total, im.Sum())
	}
}
