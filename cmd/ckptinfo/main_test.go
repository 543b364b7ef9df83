package main

import (
	"path/filepath"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// TestJSONAndDirReportOneCertificate: for a two-shard monitor
// checkpoint, -json and -dir print the same certificate — the shards'
// ledgers composed once, by MonitorState.Certificate.
func TestJSONAndDirReportOneCertificate(t *testing.T) {
	const n, d = 64, 12
	m := pipeline.NewMonitor(pipeline.Config{
		Sketch: sketch.Config{Ell0: 4, Beta: 1, Seed: 7},
		Shards: 2,
	}, 8)
	defer m.Engine().Close()
	g := rng.New(3)
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, d)
		for j := range vecs[i] {
			vecs[i][j] = g.Norm()
		}
	}
	m.Engine().IngestVecs(vecs, nil)
	path := filepath.Join(t.TempDir(), "tenant-a.ckpt")
	if err := ckpt.Save(path, m.State()); err != nil {
		t.Fatal(err)
	}

	state, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var info jsonInfo
	fillJSON(&info, state)
	var row tenantRow
	if err := fillTenantRow(&row, path); err != nil {
		t.Fatal(err)
	}
	if row.Shards != 2 || info.MonitorShards == nil || *info.MonitorShards != 2 {
		t.Fatalf("want a two-shard checkpoint: -dir reports %d shards, -json %v", row.Shards, info.MonitorShards)
	}
	if info.Certificate == nil || row.Certificate == nil {
		t.Fatalf("missing certificate: -json %v, -dir %v", info.Certificate, row.Certificate)
	}
	if *info.Certificate != *row.Certificate {
		t.Fatalf("-json certificate %+v, -dir %+v", *info.Certificate, *row.Certificate)
	}
	if got := info.Certificate.RowsSeen; got != n {
		t.Fatalf("certificate covers %d rows, want both shards' %d", got, n)
	}
	if info.RankGrows != nil {
		t.Errorf("-json reports rank_grows %d for two shards; grow counts do not aggregate", *info.RankGrows)
	}
}
