package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/mat"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// TestDirectoryRows: a directory expands to one row per checkpoint. A
// two-shard tenant-a.ckpt and a plain lclsmon.ckpt each report the
// certificate MonitorState.Certificate composes across their shards; a
// file holding a bare ARAMS sketch is an error row and fails the exit.
func TestDirectoryRows(t *testing.T) {
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
	state := m.State()

	dir := t.TempDir()
	for _, name := range []string{"tenant-a.ckpt", "lclsmon.ckpt"} {
		if err := ckpt.Save(filepath.Join(dir, name), state); err != nil {
			t.Fatal(err)
		}
	}
	a := sketch.NewARAMS(sketch.Config{Ell0: 4, Beta: 1, Seed: 7}, d, 0)
	a.ProcessBatch(mat.FromRows(vecs))
	if err := ckpt.Save(filepath.Join(dir, "sketch.ckpt"), a.State()); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", dir}, &stdout, &stderr); code == 0 {
		t.Errorf("exit status 0 with an ARAMS checkpoint in the directory; stderr %q", stderr.String())
	}
	var rows []row
	if err := json.Unmarshal(stdout.Bytes(), &rows); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout.String())
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3:\n%s", len(rows), stdout.String())
	}
	want := certOf(state.Certificate())
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, name := range []string{"a", filepath.Join(dir, "lclsmon.ckpt")} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("no row named %q in %+v", name, rows)
		}
		if r.Err != "" {
			t.Fatalf("row %q: %s", name, r.Err)
		}
		if r.Shards != 2 || r.Ingests != n || r.Version != ckpt.Version {
			t.Errorf("row %q: shards %d ingests %d version %d, want 2, %d, %d",
				name, r.Shards, r.Ingests, r.Version, n, ckpt.Version)
		}
		if r.Certificate == nil || *r.Certificate != *want {
			t.Errorf("row %q: certificate %+v, want %+v", name, r.Certificate, *want)
		} else if r.Certificate.RowsSeen != n {
			t.Errorf("row %q: certificate covers %d rows, want both shards' %d", name, r.Certificate.RowsSeen, n)
		}
	}
	if r := byName[filepath.Join(dir, "sketch.ckpt")]; r.Err == "" {
		t.Errorf("ARAMS checkpoint gave no error row: %+v", r)
	}
}
