package lcls

import (
	"math"

	"arams/internal/imgproc"
	"arams/internal/rng"
)

// DiffractionParams are the generative factors of one diffraction shot:
// a scattering ring whose azimuthal intensity is weighted per quadrant
// — the factor the clusters of Fig. 6 differ by ("the clusters differ
// from one another based on the weight in each quadrant of the ring").
type DiffractionParams struct {
	Class     int        // index of the quadrant-weight class
	Quadrants [4]float64 // relative intensity per quadrant (NE, NW, SW, SE)
	Radius    float64    // ring radius, pixels
	RingWidth float64    // radial Gaussian width, pixels
}

// DiffractionFrame is one simulated area-detector shot.
type DiffractionFrame struct {
	Image  *imgproc.Image
	Params DiffractionParams
}

// DiffractionConfig controls the diffraction generator.
type DiffractionConfig struct {
	Size       int          // square image side (default 128)
	Classes    [][4]float64 // quadrant-weight classes; default: 4 distinct patterns
	Radius     float64      // mean ring radius (default Size/3)
	RadiusJit  float64      // std of shot-to-shot radius jitter (default 1.5 px)
	RingWidth  float64      // radial width (default 3 px)
	NoiseLevel float64      // read noise relative to peak (default 0.02)
	PhotonPeak float64      // photons at peak; 0 disables shot noise
	Seed       uint64
}

func (c DiffractionConfig) withDefaults() DiffractionConfig {
	if c.Size <= 0 {
		c.Size = 128
	}
	if len(c.Classes) == 0 {
		c.Classes = [][4]float64{
			{1.0, 1.0, 1.0, 1.0}, // isotropic ring
			{1.0, 0.2, 1.0, 0.2}, // horizontal lobes
			{0.2, 1.0, 0.2, 1.0}, // vertical lobes
			{1.0, 1.0, 0.2, 0.2}, // top-heavy
		}
	}
	if c.Radius <= 0 {
		c.Radius = float64(c.Size) / 3
	}
	if c.RadiusJit < 0 {
		c.RadiusJit = 0
	} else if c.RadiusJit == 0 {
		c.RadiusJit = 1.5
	}
	if c.RingWidth <= 0 {
		c.RingWidth = 3
	}
	if c.NoiseLevel < 0 {
		c.NoiseLevel = 0
	} else if c.NoiseLevel == 0 {
		c.NoiseLevel = 0.02
	}
	return c
}

// DiffractionGenerator produces a deterministic stream of diffraction
// frames with known class labels.
type DiffractionGenerator struct {
	cfg DiffractionConfig
	g   *rng.RNG
}

// NewDiffractionGenerator creates a generator (zero config fields get
// defaults).
func NewDiffractionGenerator(cfg DiffractionConfig) *DiffractionGenerator {
	c := cfg.withDefaults()
	return &DiffractionGenerator{cfg: c, g: rng.New(c.Seed)}
}

// NumClasses returns the number of quadrant-weight classes.
func (dg *DiffractionGenerator) NumClasses() int { return len(dg.cfg.Classes) }

// Next generates one frame with a uniformly random class.
func (dg *DiffractionGenerator) Next() DiffractionFrame {
	return dg.NextClass(dg.g.Intn(len(dg.cfg.Classes)))
}

// NextClass generates one frame of the given class.
func (dg *DiffractionGenerator) NextClass(class int) DiffractionFrame {
	c := dg.cfg
	g := dg.g
	p := DiffractionParams{
		Class:     class,
		Quadrants: c.Classes[class],
		Radius:    c.Radius + c.RadiusJit*g.Norm(),
		RingWidth: c.RingWidth,
	}
	// Small multiplicative jitter on the weights so shots within a
	// class are similar but not identical.
	for q := range p.Quadrants {
		p.Quadrants[q] *= math.Exp(0.08 * g.Norm())
	}
	img := renderRing(c.Size, p)
	addNoise(img, c.NoiseLevel, c.PhotonPeak, g)
	return DiffractionFrame{Image: img, Params: p}
}

// Generate produces n frames with random classes, returning frames and
// their ground-truth labels.
func (dg *DiffractionGenerator) Generate(n int) ([]DiffractionFrame, []int) {
	frames := make([]DiffractionFrame, n)
	labels := make([]int, n)
	for i := range frames {
		frames[i] = dg.Next()
		labels[i] = frames[i].Params.Class
	}
	return frames, labels
}

// renderRing rasterizes a quadrant-weighted scattering ring, peak
// normalized to 1, with a beamstop shadow at the center.
func renderRing(size int, p DiffractionParams) *imgproc.Image {
	im := imgproc.NewImage(size, size)
	c := float64(size-1) / 2
	var peak float64
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx := float64(x) - c
			dy := float64(y) - c
			r := math.Hypot(dx, dy)
			radial := math.Exp(-(r - p.Radius) * (r - p.Radius) / (2 * p.RingWidth * p.RingWidth))
			w := p.Quadrants[quadrant(dx, dy)]
			// Smooth azimuthal blending near the quadrant boundaries
			// avoids unphysical hard edges.
			v := radial * w
			im.Set(x, y, v)
			if v > peak {
				peak = v
			}
		}
	}
	if peak > 0 {
		inv := 1 / peak
		for i := range im.Pix {
			im.Pix[i] *= inv
		}
	}
	return im
}

// quadrant maps detector-frame displacement to quadrant index:
// 0=NE (+x,−y up), 1=NW, 2=SW, 3=SE. Image y grows downward, so "north"
// is negative dy.
func quadrant(dx, dy float64) int {
	switch {
	case dx >= 0 && dy < 0:
		return 0
	case dx < 0 && dy < 0:
		return 1
	case dx < 0 && dy >= 0:
		return 2
	default:
		return 3
	}
}
