// Diffraction-run clustering: the Fig. 6 scenario. A simulated run of
// quadrant-weighted diffraction rings is written to an offline run
// file, read back (exercising the run store the way the paper's code
// reads psana runs), and pushed through the pipeline; the discovered
// clusters are scored against the generator's hidden class labels.
//
// Run with: go run ./examples/diffraction
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
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
	// 1. Simulate and store a run, as a DAQ writer would.
	dg := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{Size: 64, Seed: 99})
	run := &lcls.Run{Experiment: "xpplx9221", RunNumber: 244, Detector: lcls.AreaDetector}
	frames, labels := dg.Generate(400)
	for i, f := range frames {
		run.Append(f.Image, labels[i])
	}
	path := filepath.Join(os.TempDir(), "xpplx9221_r244.lcls")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := run.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(path)
	fmt.Printf("wrote run %s:%d (%d frames) to %s (%.1f MB)\n",
		run.Experiment, run.RunNumber, run.Len(), path, float64(info.Size())/1e6)

	// 2. Read it back, as the analysis job would.
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	stored, err := lcls.ReadRun(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back %d frames of %d×%d from detector %q\n",
		stored.Len(), stored.Width, stored.Height, stored.Detector)

	// 3. Run the analysis pipeline.
	start := time.Now()
	res := pipeline.Process(stored.Frames, pipeline.Config{
		Pre:       imgproc.Preprocessor{Normalize: true},
		Sketch:    sketch.Config{Ell0: 25, Beta: 0.9, Seed: 5},
		Shards:    4,
		LatentDim: 12,
		UMAP:      umap.Config{NNeighbors: 20, NEpochs: 200, Seed: 6},
	})
	fmt.Printf("pipeline: %d frames in %v\n", stored.Len(), time.Since(start).Round(1e6))

	// 4. Score the clustering against the stored ground truth.
	nc := optics.NumClusters(res.Labels)
	ari := optics.ARI(res.Labels, stored.Labels)
	fmt.Printf("\nclusters found: %d (true classes: %d), ARI vs truth: %.3f\n",
		nc, dg.NumClasses(), ari)

	// Per-cluster composition.
	comp := map[int]map[int]int{}
	for i, l := range res.Labels {
		if l == optics.Noise {
			continue
		}
		if comp[l] == nil {
			comp[l] = map[int]int{}
		}
		comp[l][stored.Labels[i]]++
	}
	fmt.Println("cluster composition (cluster: class→count):")
	for c := 0; c < nc; c++ {
		fmt.Printf("  cluster %d: %v\n", c, comp[c])
	}

	// Write the interactive views: embedding scatter plus the OPTICS
	// reachability plot whose valleys are the clusters.
	tips := make([]string, stored.Len())
	for i := range tips {
		q := imgproc.QuadrantSums(stored.Frames[i])
		tips[i] = fmt.Sprintf("frame %d\ntrue class %d\nquadrants %.2f %.2f %.2f %.2f",
			i, stored.Labels[i], q[0], q[1], q[2], q[3])
	}
	plot := viz.FromEmbedding("Diffraction latent embedding (Fig. 6 analogue)",
		res.Embedding, res.Labels, tips)
	plot.Subtitle = fmt.Sprintf("run %s:%d", stored.Experiment, stored.RunNumber)
	embPath := filepath.Join(os.TempDir(), "diffraction_embedding.html")
	ef, err := os.Create(embPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := plot.WriteHTML(ef); err != nil {
		log.Fatal(err)
	}
	ef.Close()

	opt := optics.Run(res.Embedding, 5, math.Inf(1))
	ordLabels := make([]int, len(opt.Order))
	for pos, p := range opt.Order {
		ordLabels[pos] = res.Labels[p]
	}
	rp := &viz.ReachabilityPlot{
		Title:  "Diffraction run — OPTICS reachability plot",
		Values: opt.ReachabilityInOrder(),
		Labels: ordLabels,
	}
	reachPath := filepath.Join(os.TempDir(), "diffraction_reachability.html")
	rpf, err := os.Create(reachPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := rp.WriteHTML(rpf); err != nil {
		log.Fatal(err)
	}
	rpf.Close()
	fmt.Printf("\ninteractive views written to %s and %s\n", embPath, reachPath)
	os.Remove(path)
}
