// Beam-profile monitoring: the Fig. 5 scenario. A simulated run of
// X-ray beam-profile images goes through the full pipeline —
// preprocess → sharded ARAMS sketch → PCA → UMAP → OPTICS/ABOD — and
// the resulting embedding is checked against the generator's hidden
// factors (center-of-mass offset and circularity), plus the exotic
// outlier shots.
//
// Run with: go run ./examples/beamprofile
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/optics"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/umap"
	"arams/internal/viz"
)

func main() {
	// Simulate a run: 500 shots of a 48×48 diagnostic camera with 3%
	// exotic (heavily distorted) shots.
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{
		Size: 48, ExoticFrac: 0.03, Seed: 2024,
	})
	frames := bg.Generate(500)
	imgs := make([]*imgproc.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	fmt.Printf("simulated run: %d beam profiles (%d×%d)\n", len(imgs), 48, 48)

	start := time.Now()
	res := pipeline.Process(imgs, pipeline.Config{
		Pre:       imgproc.Preprocessor{ThresholdFrac: 0.02, Normalize: true},
		Sketch:    sketch.Config{Ell0: 25, Beta: 0.9, Seed: 1},
		Shards:    4,
		LatentDim: 12,
		UMAP:      umap.Config{NNeighbors: 15, NEpochs: 200, Seed: 3},
	})
	elapsed := time.Since(start)
	fmt.Printf("pipeline: %.0f frames/s end to end, total %v\n",
		float64(len(imgs))/elapsed.Seconds(), elapsed.Round(1e6))

	// How well do the embedding axes track the physical factors?
	n := len(frames)
	offX := make([]float64, n)
	circ := make([]float64, n)
	for i, f := range frames {
		offX[i] = f.Params.CenterX
		circ[i] = f.Params.Circularity()
	}
	for axis := 0; axis < 2; axis++ {
		ax := make([]float64, n)
		for i := 0; i < n; i++ {
			ax[i] = res.Embedding.At(i, axis)
		}
		fmt.Printf("axis %d: |corr| with COM offset = %.2f, with circularity = %.2f\n",
			axis, math.Abs(corr(ax, offX)), math.Abs(corr(ax, circ)))
	}

	// Cluster structure of the embedding.
	fmt.Printf("OPTICS found %d clusters (%d points labeled noise)\n",
		optics.NumClusters(res.Labels), count(res.Labels, optics.Noise))

	// Do the exotic shots top the anomaly ranking?
	var exotic []int
	for i, f := range frames {
		if f.Params.Exotic {
			exotic = append(exotic, i)
		}
	}
	flagged := map[int]bool{}
	for _, i := range res.ResidualOutliers {
		flagged[i] = true
	}
	hits := 0
	for _, i := range exotic {
		if flagged[i] {
			hits++
		}
	}
	fmt.Printf("exotic shots: %d injected, %d among the top-%d residual outliers\n",
		len(exotic), hits, len(res.ResidualOutliers))

	// Show the five most anomalous shots with their true parameters.
	type scored struct {
		idx int
		r   float64
	}
	var all []scored
	for i, r := range res.Residuals {
		all = append(all, scored{i, r})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].r > all[b].r })
	fmt.Println("\ntop-5 anomalies (residual, exotic?, widths, mode):")
	for _, s := range all[:5] {
		p := frames[s.idx].Params
		fmt.Printf("  shot %3d: residual %.3f exotic=%v w=(%.1f,%.1f) TEM%d%d\n",
			s.idx, s.r, p.Exotic, p.WidthX, p.WidthY, p.ModeM, p.ModeN)
	}

	// Interactive HTML view with per-shot hover tooltips — the analog
	// of the paper artifact's Bokeh output.
	tips := make([]string, n)
	for i, f := range frames {
		tips[i] = fmt.Sprintf("shot %d\ncircularity %.2f  offset (%.1f, %.1f)\nexotic: %v",
			i, f.Params.Circularity(), f.Params.CenterX, f.Params.CenterY, f.Params.Exotic)
	}
	plot := viz.FromEmbedding("Beam-profile latent embedding (Fig. 5 analogue)",
		res.Embedding, res.Labels, tips)
	plot.Subtitle = "simulated diagnostic camera, ARAMS sketch + UMAP + OPTICS"
	path := filepath.Join(os.TempDir(), "beam_embedding.html")
	out, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := plot.WriteHTML(out); err != nil {
		log.Fatal(err)
	}
	out.Close()
	fmt.Printf("\ninteractive embedding written to %s\n", path)
}

func corr(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func count(labels []int, v int) int {
	c := 0
	for _, l := range labels {
		if l == v {
			c++
		}
	}
	return c
}
