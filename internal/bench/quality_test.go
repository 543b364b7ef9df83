package bench

// The quality file: ROADMAP's "quality held", as a checked number.
// testdata/quality.json holds, for every statistic the Fig. 5–6 harness
// reports, its median and quartiles over thirty seeds and which
// direction is better. The runs are seeded and their bits do not depend
// on the core count or the kernel set, so a change that moves no output
// bit reproduces the file exactly (TestQualityFileReproduces). A change
// that moves output must keep every median inside the committed
// quartiles, or better, or re-record the file with
//
//	go test ./internal/bench/ -run TestQualityFileReproduces -record-quality
//
// as a reviewed diff whose reason it states.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"arams/internal/stats"
)

var recordQuality = flag.Bool("record-quality", false, "rewrite testdata/quality.json from this build")

const qualityPath = "testdata/quality.json"

// qualitySeeds is how many seeds the file covers: aramsbench -seed 1…30,
// each run at DefaultEmbed with Seed = seed + 2, as
// `aramsbench -exp fig5|fig6 -seed s` runs it.
const qualitySeeds = 30

// qualityStat is one statistic's distribution over the seeds.
type qualityStat struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// qualityFile is the layout of testdata/quality.json.
type qualityFile struct {
	Seeds   int           `json:"seeds"`
	Frames  int           `json:"frames"`
	ImgSize int           `json:"img_size"`
	Shards  int           `json:"shards"`
	Stats   []qualityStat `json:"stats"`
}

// qualityValue is one statistic of one seed's runs.
type qualityValue struct {
	name, better string
	v            float64
}

// qualitySample runs Fig. 5 and Fig. 6 at p and lists their statistics
// in the file's order.
func qualitySample(p EmbedParams) []qualityValue {
	f5, f6 := fig5(p), fig6(p)
	out := []qualityValue{}
	add := func(name, better string, v float64) { out = append(out, qualityValue{name, better, v}) }
	for f, factor := range fig5Factors {
		for axis, c := range f5.corr[f] {
			// UMAP's axes are an arbitrary rotation: the figure's claim is
			// that one axis per factor aligns, so the best axis is the
			// statistic with a direction, and each axis is recorded.
			add(fmt.Sprintf("fig5.%s.abs_corr_axis%d", factor, axis), "none", c)
		}
		add("fig5."+factor+".abs_corr_best_axis", "higher", max(f5.corr[f][0], f5.corr[f][1]))
	}
	add("fig5.pairwise_spearman", "higher", f5.spearman)
	add("fig5.trustworthiness", "higher", f5.trust)
	recall := 0.0
	if f5.exotics > 0 {
		recall = float64(f5.inTop) / float64(f5.exotics)
	}
	add("fig5.exotic_recall", "higher", recall)
	add("fig5.exotic_residual_ratio", "higher", f5.ratio)
	add("fig5.cov_err_rel", "lower", f5.covErrRel)
	for _, c := range f6.clusterers {
		add("fig6."+c.name+".clustered_frac", "higher", c.clusteredFrac)
		add("fig6."+c.name+".purity", "higher", c.purity)
		add("fig6."+c.name+".ari", "higher", c.ari)
	}
	add("fig6.trustworthiness", "higher", f6.trust)
	add("fig6.cov_err_rel", "lower", f6.covErrRel)
	return out
}

// computeQuality runs every seed and summarizes each statistic.
func computeQuality() qualityFile {
	p := DefaultEmbed()
	q := qualityFile{Seeds: qualitySeeds, Frames: p.Frames, ImgSize: p.ImgSize, Shards: p.Shards}
	var samples [][]qualityValue
	for seed := uint64(1); seed <= qualitySeeds; seed++ {
		p.Seed = seed + 2
		samples = append(samples, qualitySample(p))
	}
	for j, first := range samples[0] {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s[j].v
		}
		q.Stats = append(q.Stats, qualityStat{
			Name: first.name, Better: first.better,
			Q1: stats.Quantile(vals, 0.25), Median: stats.Median(vals), Q3: stats.Quantile(vals, 0.75),
		})
	}
	return q
}

// loadQuality reads the committed quality file.
func loadQuality(t *testing.T) qualityFile {
	t.Helper()
	b, err := os.ReadFile(qualityPath)
	if err != nil {
		t.Fatal(err)
	}
	var q qualityFile
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatalf("%s: %v", qualityPath, err)
	}
	return q
}

// stat returns the named statistic of the file.
func (q qualityFile) stat(t *testing.T, name string) qualityStat {
	t.Helper()
	for _, s := range q.Stats {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s has no statistic %q", qualityPath, name)
	return qualityStat{}
}

// TestQualityFileReproduces recomputes the quality file — thirty seeds
// of Fig. 5 and Fig. 6, about fifteen seconds — and requires the
// committed one exactly. It is skipped under -short and under the race
// detector, which runs it ten times slower to the same bits; CI runs it
// in a step of its own.
func TestQualityFileReproduces(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("thirty seeds of Fig. 5–6; run without -short and -race")
	}
	got, err := json.MarshalIndent(computeQuality(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *recordQuality {
		if err := os.MkdirAll(filepath.Dir(qualityPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qualityPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(qualityPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var gq qualityFile
	if err := json.Unmarshal(got, &gq); err != nil {
		t.Fatal(err)
	}
	wq := loadQuality(t)
	for i, g := range gq.Stats {
		if i >= len(wq.Stats) || wq.Stats[i] != g {
			var w qualityStat
			if i < len(wq.Stats) {
				w = wq.Stats[i]
			}
			t.Errorf("%s: recomputed %+v, committed %+v", g.Name, g, w)
		}
	}
	if len(gq.Stats) != len(wq.Stats) || gq.Seeds != wq.Seeds || gq.Frames != wq.Frames ||
		gq.ImgSize != wq.ImgSize || gq.Shards != wq.Shards {
		t.Errorf("recomputed file's layout differs from %s", qualityPath)
	}
	t.Error("quality over thirty seeds moved; a change that moves output must keep every median inside the committed quartiles or re-record the file (-record-quality) and say why")
}
