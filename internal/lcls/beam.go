// Package lcls simulates the parts of the Linac Coherent Light Source
// data system that the paper's experiments depend on but that are not
// publicly available: shot-to-shot X-ray beam-profile images from an
// upstream diagnostic camera, diffraction-ring images from a large area
// detector, detector noise, and the pulse-ID timing system that pools
// per-detector readouts into events at the machine repetition rate.
//
// The generators expose their latent ground-truth factors (beam
// center-of-mass offset, circularity, lobe structure, diffraction
// quadrant weights) so the reproduction can verify quantitatively what
// the paper shows visually in Figs. 5 and 6: that the unsupervised
// pipeline organizes images by exactly these factors.
package lcls

import (
	"math"

	"arams/internal/imgproc"
	"arams/internal/rng"
)

// BeamParams are the generative factors of one simulated beam profile.
type BeamParams struct {
	CenterX, CenterY float64 // beam jitter, pixels from image center
	WidthX, WidthY   float64 // 1/e² half-widths, pixels
	Theta            float64 // rotation of the principal axes, radians
	ModeM, ModeN     int     // Hermite–Gaussian transverse mode indices
	Exotic           bool    // heavily distorted outlier shot
}

// Circularity returns min(w)/max(w), the factor the paper's Fig. 5
// Y-axis organizes (1 = round, → 0 elongated).
func (p BeamParams) Circularity() float64 {
	a, b := p.WidthX, p.WidthY
	if a > b {
		a, b = b, a
	}
	if b == 0 {
		return 0
	}
	return a / b
}

// BeamFrame is one simulated diagnostic-camera shot.
type BeamFrame struct {
	Image  *imgproc.Image
	Params BeamParams
}

// BeamConfig controls the beam-profile generator.
type BeamConfig struct {
	Size       int     // square image side, pixels (default 64)
	BaseWidth  float64 // nominal beam half-width, pixels (default Size/8)
	Jitter     float64 // std of center jitter, pixels (default Size/12)
	ElongSigma float64 // lognormal σ of the x/y width ratio (default 0.3)
	ModeProb   float64 // probability of a higher-order mode (default 0.25)
	ExoticFrac float64 // fraction of exotic outlier shots (default 0.02)
	NoiseLevel float64 // Gaussian read noise std relative to peak (default 0.01)
	PhotonPeak float64 // expected photons at peak for shot noise; 0 disables
	Seed       uint64
}

func (c BeamConfig) withDefaults() BeamConfig {
	if c.Size <= 0 {
		c.Size = 64
	}
	if c.BaseWidth <= 0 {
		c.BaseWidth = float64(c.Size) / 8
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	} else if c.Jitter == 0 {
		c.Jitter = float64(c.Size) / 12
	}
	if c.ElongSigma <= 0 {
		c.ElongSigma = 0.3
	}
	if c.ModeProb < 0 {
		c.ModeProb = 0
	} else if c.ModeProb == 0 {
		c.ModeProb = 0.25
	}
	if c.ExoticFrac < 0 {
		c.ExoticFrac = 0
	}
	if c.NoiseLevel < 0 {
		c.NoiseLevel = 0
	} else if c.NoiseLevel == 0 {
		c.NoiseLevel = 0.01
	}
	return c
}

// BeamGenerator produces a deterministic stream of beam profiles.
type BeamGenerator struct {
	cfg BeamConfig
	g   *rng.RNG
}

// NewBeamGenerator creates a generator from the config (zero fields get
// defaults).
func NewBeamGenerator(cfg BeamConfig) *BeamGenerator {
	c := cfg.withDefaults()
	return &BeamGenerator{cfg: c, g: rng.New(c.Seed)}
}

// Next generates one shot.
func (bg *BeamGenerator) Next() BeamFrame {
	c := bg.cfg
	g := bg.g
	p := BeamParams{
		CenterX: c.Jitter * g.Norm(),
		CenterY: c.Jitter * g.Norm(),
		Theta:   (g.Float64() - 0.5) * math.Pi / 4,
	}
	ratio := math.Exp(c.ElongSigma * g.Norm())
	p.WidthX = c.BaseWidth * ratio
	p.WidthY = c.BaseWidth / ratio
	if g.Float64() < c.ModeProb {
		// Low-order multi-lobe content: TEM01/TEM10/TEM11/TEM20/TEM02.
		switch g.Intn(5) {
		case 0:
			p.ModeM = 1
		case 1:
			p.ModeN = 1
		case 2:
			p.ModeM, p.ModeN = 1, 1
		case 3:
			p.ModeM = 2
		case 4:
			p.ModeN = 2
		}
	}
	if g.Float64() < c.ExoticFrac {
		p.Exotic = true
		// Exotic shots: extreme elongation plus high-order modes and a
		// large displacement — "deviate heavily from zero-order mode".
		p.WidthX *= 3
		p.WidthY *= 0.5
		p.ModeM = 2 + g.Intn(2)
		p.ModeN = 2 + g.Intn(2)
		p.CenterX *= 2
		p.CenterY *= 2
	}
	img := renderBeam(c.Size, p)
	addNoise(img, c.NoiseLevel, c.PhotonPeak, g)
	return BeamFrame{Image: img, Params: p}
}

// Generate produces n frames.
func (bg *BeamGenerator) Generate(n int) []BeamFrame {
	out := make([]BeamFrame, n)
	for i := range out {
		out[i] = bg.Next()
	}
	return out
}

// renderBeam rasterizes a Hermite–Gaussian mode with the given
// parameters; peak amplitude is normalized to 1 before noise.
func renderBeam(size int, p BeamParams) *imgproc.Image {
	im := imgproc.NewImage(size, size)
	c := float64(size-1) / 2
	cosT, sinT := math.Cos(p.Theta), math.Sin(p.Theta)
	var peak float64
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx := float64(x) - c - p.CenterX
			dy := float64(y) - c - p.CenterY
			// Rotate into the beam frame.
			u := (dx*cosT + dy*sinT) / p.WidthX
			v := (-dx*sinT + dy*cosT) / p.WidthY
			amp := hermite(p.ModeM, math.Sqrt2*u) * hermite(p.ModeN, math.Sqrt2*v) *
				math.Exp(-(u*u + v*v))
			val := amp * amp // detector sees intensity
			im.Set(x, y, val)
			if val > peak {
				peak = val
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

// hermite evaluates the physicists' Hermite polynomial H_n(x) by the
// three-term recurrence.
func hermite(n int, x float64) float64 {
	switch n {
	case 0:
		return 1
	case 1:
		return 2 * x
	}
	hPrev, h := 1.0, 2*x
	for k := 1; k < n; k++ {
		hPrev, h = h, 2*x*h-2*float64(k)*hPrev
	}
	return h
}

// addNoise applies Poisson shot noise (if photonPeak > 0) followed by
// additive Gaussian read noise, clamping at zero as a real detector's
// zero-suppression would.
func addNoise(im *imgproc.Image, readNoise, photonPeak float64, g *rng.RNG) {
	for i, v := range im.Pix {
		if photonPeak > 0 {
			v = float64(g.Poisson(v*photonPeak)) / photonPeak
		}
		v += readNoise * g.Norm()
		if v < 0 {
			v = 0
		}
		im.Pix[i] = v
	}
}
