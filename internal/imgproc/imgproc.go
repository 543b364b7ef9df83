// Package imgproc provides the detector-image preprocessing used by the
// monitoring pipeline (§VI of the paper): intensity thresholding,
// intensity normalization, cropping and binning — the steps that make
// "the primary shape of the beam profile and its distribution of
// intensity the focus of the analysis".
package imgproc

import (
	"fmt"
	"math"

	"arams/internal/mat"
)

// Image is a single-channel detector frame in row-major float64.
type Image struct {
	W, H int
	Pix  []float64 // len W*H, index y*W+x
}

// NewImage returns a zeroed W×H image.
func NewImage(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: invalid size %d×%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) float64 { return im.Pix[y*im.W+x] }

// Set assigns the pixel at (x, y).
func (im *Image) Set(x, y int, v float64) { im.Pix[y*im.W+x] = v }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Sum returns the total intensity.
func (im *Image) Sum() float64 {
	var s float64
	for _, v := range im.Pix {
		s += v
	}
	return s
}

// Max returns the maximum pixel value (0 for an empty image).
func (im *Image) Max() float64 {
	var mx float64
	for i, v := range im.Pix {
		if i == 0 || v > mx {
			mx = v
		}
	}
	return mx
}

// Threshold zeroes every pixel below the given absolute intensity, in
// place, and returns the image for chaining.
func (im *Image) Threshold(level float64) *Image {
	for i, v := range im.Pix {
		if v < level {
			im.Pix[i] = 0
		}
	}
	return im
}

// ThresholdRelative zeroes pixels below frac·max, in place. frac in
// [0, 1].
func (im *Image) ThresholdRelative(frac float64) *Image {
	return im.Threshold(frac * im.Max())
}

// Normalize scales the image in place to unit total intensity; an
// all-zero image is left unchanged. Returns the image for chaining.
func (im *Image) Normalize() *Image {
	s := im.Sum()
	if s == 0 {
		return im
	}
	inv := 1 / s
	for i := range im.Pix {
		im.Pix[i] *= inv
	}
	return im
}

// CenterOfMass returns the intensity-weighted centroid (x, y). For an
// all-zero image it returns the geometric center.
func (im *Image) CenterOfMass() (cx, cy float64) {
	var sx, sy, s float64
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := im.Pix[y*im.W+x]
			sx += v * float64(x)
			sy += v * float64(y)
			s += v
		}
	}
	if s == 0 {
		return float64(im.W-1) / 2, float64(im.H-1) / 2
	}
	return sx / s, sy / s
}

// Crop extracts the rectangle [x0, x0+w) × [y0, y0+h) as a new image.
func (im *Image) Crop(x0, y0, w, h int) *Image {
	if x0 < 0 || y0 < 0 || x0+w > im.W || y0+h > im.H {
		panic(fmt.Sprintf("imgproc: crop [%d,%d,%d,%d] outside %d×%d", x0, y0, w, h, im.W, im.H))
	}
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		copy(out.Pix[y*w:(y+1)*w], im.Pix[(y0+y)*im.W+x0:(y0+y)*im.W+x0+w])
	}
	return out
}

// CropCenter extracts a centered w×h rectangle.
func (im *Image) CropCenter(w, h int) *Image {
	return im.Crop((im.W-w)/2, (im.H-h)/2, w, h)
}

// Bin downsamples by summing factor×factor blocks (detector pixel
// binning). W and H must be divisible by factor.
func (im *Image) Bin(factor int) *Image {
	if factor <= 0 || im.W%factor != 0 || im.H%factor != 0 {
		panic(fmt.Sprintf("imgproc: bin factor %d incompatible with %d×%d", factor, im.W, im.H))
	}
	out := NewImage(im.W/factor, im.H/factor)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			out.Pix[(y/factor)*out.W+x/factor] += im.Pix[y*im.W+x]
		}
	}
	return out
}

// Flatten returns the pixel buffer as a feature vector (shared storage).
func (im *Image) Flatten() []float64 { return im.Pix }

// Stats summarizes shape factors of an image used to validate the
// latent embeddings: lateral center-of-mass offset and circularity.
type Stats struct {
	// OffsetX and OffsetY are the center-of-mass displacement from the
	// geometric center, in pixels.
	OffsetX, OffsetY float64
	// Circularity is σ_minor/σ_major of the intensity second moments:
	// 1 for a circular profile, → 0 for elongated or multi-lobed.
	Circularity float64
}

// ComputeStats measures the shape factors of an image.
func ComputeStats(im *Image) Stats {
	cx, cy := im.CenterOfMass()
	var sxx, syy, sxy, s float64
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := im.Pix[y*im.W+x]
			if v == 0 {
				continue
			}
			dx := float64(x) - cx
			dy := float64(y) - cy
			sxx += v * dx * dx
			syy += v * dy * dy
			sxy += v * dx * dy
			s += v
		}
	}
	st := Stats{
		OffsetX: cx - float64(im.W-1)/2,
		OffsetY: cy - float64(im.H-1)/2,
	}
	if s == 0 {
		return st
	}
	sxx /= s
	syy /= s
	sxy /= s
	// Eigenvalues of the 2×2 covariance give the principal widths.
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	lMaj := tr/2 + disc
	lMin := tr/2 - disc
	if lMaj > 0 && lMin > 0 {
		st.Circularity = math.Sqrt(lMin / lMaj)
	}
	return st
}

// Preprocessor is a configurable preprocessing chain applied to each
// frame before sketching, mirroring the paper's pipeline.
type Preprocessor struct {
	ThresholdFrac float64 // relative threshold; 0 disables
	Normalize     bool    // unit total intensity
	BinFactor     int     // pixel binning; <= 1 disables
}

// Apply runs the chain on a copy of the frame.
func (p Preprocessor) Apply(im *Image) *Image {
	return p.applySteps(im.Clone())
}

// applySteps runs the chain on out, which it owns: in-place steps
// mutate it, the reshaping step (Bin) replaces it.
func (p Preprocessor) applySteps(out *Image) *Image {
	if p.ThresholdFrac > 0 {
		out.ThresholdRelative(p.ThresholdFrac)
	}
	if p.BinFactor > 1 {
		out = out.Bin(p.BinFactor)
	}
	if p.Normalize {
		out.Normalize()
	}
	return out
}

// ApplyVec runs the chain and returns the preprocessed frame as a
// feature vector ready for the sketch to adopt — the zero-copy form of
// Apply(im).Flatten() for the streaming ingest hot path. The working
// copy of the frame is made in buf when its capacity allows (the engine
// feeds it from mat.GetVec, recycling the working vectors of the batches
// it has absorbed), so a chain with only in-place steps returns buf
// itself and the hot path allocates nothing. ApplyVec takes ownership
// of buf: when the reshaping step (Bin) replaces the working image, the
// superseded buffer is recycled to the vector pool internally and the
// returned vector is the reshaped frame's storage. The result is always
// the caller's to keep, never aliased by the pool.
func (p Preprocessor) ApplyVec(im *Image, buf []float64) []float64 {
	n := im.W * im.H
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	copy(buf, im.Pix)
	out := p.applySteps(&Image{W: im.W, H: im.H, Pix: buf})
	if len(out.Pix) > 0 && len(buf) > 0 && &out.Pix[0] != &buf[0] {
		mat.PutVec(buf)
	}
	return out.Pix
}

// QuadrantSums returns total intensity per detector quadrant in the
// order (NE, NW, SW, SE) — "north" being negative y, matching the
// diffraction generator's convention.
func QuadrantSums(im *Image) [4]float64 {
	cx := float64(im.W-1) / 2
	cy := float64(im.H-1) / 2
	var q [4]float64
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			dx := float64(x) - cx
			dy := float64(y) - cy
			v := im.Pix[y*im.W+x]
			switch {
			case dx >= 0 && dy < 0:
				q[0] += v
			case dx < 0 && dy < 0:
				q[1] += v
			case dx < 0 && dy >= 0:
				q[2] += v
			default:
				q[3] += v
			}
		}
	}
	return q
}
