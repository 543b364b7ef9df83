package fabric_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"arams/internal/fabric"
	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/obs"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/umap"
)

// TestObservabilityIsWallTimeOnly drives every path that once carried a
// per-thread CPU measurement — a traced two-shard IngestBatch
// (preprocess, shard_sketch), a Snapshot's stages, and a traced
// loopback fabric request served in this process — and checks that the
// endpoints expose wall time only: no CPU-time series on /metrics, no
// cpu_ms on any /metrics.json span, and the stage histogram still
// carrying the stages those paths time.
func TestObservabilityIsWallTimeOnly(t *testing.T) {
	frames := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 16, Seed: 3}).Generate(48)
	ims := make([]*imgproc.Image, len(frames))
	for i, f := range frames {
		ims[i] = f.Image
	}
	pipeline.Process(ims, pipeline.Config{
		Pre:    imgproc.Preprocessor{Normalize: true},
		Sketch: sketch.Config{Ell0: 6, Seed: 4},
		UMAP:   umap.Config{NEpochs: 10, Seed: 5},
		Shards: 2,
	})

	// The worker records into obs.Default(), as a worker sharing the
	// coordinator's process does.
	w, err := fabric.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r := fabric.DialRemote("w0", w.Addr(), 0, sketch.Config{Ell0: 4, Beta: 1, Seed: 6}, quietRemote())
	defer r.Close()
	root := obs.StartTrace("ingest_batch")
	if _, err := r.Absorb(root.Context(), testVecs(16, 8, 7), nil); err != nil {
		t.Fatal(err)
	}
	root.End()

	get := func(path string) string {
		rec := httptest.NewRecorder()
		obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	prom := get("/metrics")
	for _, gone := range []string{
		"arams_stage_cpu_seconds",
		"arams_engine_shard_cpu_seconds_total",
		"arams_mat_pool_cpu_seconds_total",
	} {
		if strings.Contains(prom, gone) {
			t.Errorf("/metrics exposes %s", gone)
		}
	}
	for _, stage := range []string{"preprocess", "shard_sketch", "snapshot", "worker_absorb"} {
		if !strings.Contains(prom, obs.StageHistogramName+`_count{stage="`+stage+`"}`) {
			t.Errorf("/metrics has no %s series for stage %q", obs.StageHistogramName, stage)
		}
	}

	var dump struct {
		Spans []map[string]interface{} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(get("/metrics.json")), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) == 0 {
		t.Fatal("/metrics.json holds no spans")
	}
	for _, sp := range dump.Spans {
		if _, ok := sp["cpu_ms"]; ok {
			t.Errorf("span %v carries cpu_ms", sp["name"])
		}
	}
}
