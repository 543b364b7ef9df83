package pipeline

import (
	"testing"

	"arams/internal/lcls"
	"arams/internal/obs"
	"arams/internal/sketch"
	"arams/internal/umap"
)

func TestQuickSnapshotAfterFullSnapshot(t *testing.T) {
	cfg := Config{
		Sketch: sketch.Config{Ell0: 10, Seed: 50},
		UMAP:   umap.Config{NNeighbors: 8, NEpochs: 60, Seed: 51},
	}
	m := NewMonitor(cfg, 64)
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 24, Seed: 52})
	for i := 0; i < 80; i++ {
		m.Ingest(bg.Next().Image, i)
	}
	full := m.Snapshot()
	if full == nil {
		t.Fatal("no full snapshot")
	}
	// Ingest a few more frames, then take the quick path.
	for i := 80; i < 90; i++ {
		m.Ingest(bg.Next().Image, i)
	}
	quick := m.QuickSnapshot()
	if quick == nil {
		t.Fatal("no quick snapshot")
	}
	if quick.Embedding.HasNaN() {
		t.Fatal("quick snapshot has NaN")
	}
	if len(quick.Tags) != 64 || quick.Tags[63] != 89 {
		t.Fatalf("quick snapshot window wrong: last tag %d", quick.Tags[len(quick.Tags)-1])
	}
	if len(quick.Labels) != 64 || len(quick.OutlierScores) != 64 {
		t.Fatal("quick snapshot stages incomplete")
	}
}

func TestQuickSnapshotFallsBackWhenStale(t *testing.T) {
	// Without a prior full snapshot, QuickSnapshot must behave like
	// Snapshot (and cache a model for next time) — on the window it has
	// already read: it counts as a call and as a refit, and it stays one
	// trace, with no second read under a "snapshot" root of its own.
	cfg := Config{
		Sketch: sketch.Config{Ell0: 6, Seed: 53},
		UMAP:   umap.Config{NNeighbors: 6, NEpochs: 30, Seed: 54},
	}
	m := NewMonitor(cfg, 32)
	if m.QuickSnapshot() != nil {
		t.Fatal("empty monitor produced a snapshot")
	}
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 16, Seed: 55})
	for i := 0; i < 40; i++ {
		m.Ingest(bg.Next().Image, i)
	}
	full, quick := obsSnapFull.Value(), obsSnapQuick.Value()
	snap := m.QuickSnapshot() // no cached model yet → full path
	if snap == nil || snap.Embedding.HasNaN() {
		t.Fatal("fallback quick snapshot broken")
	}
	if m.cachedModel == nil {
		t.Fatal("fallback did not cache a model")
	}
	if df, dq := obsSnapFull.Value()-full, obsSnapQuick.Value()-quick; df != 1 || dq != 1 {
		t.Errorf("fallback counted %v full and %v quick snapshots, want 1 and 1", df, dq)
	}
	// The trace that started last is the call's own, and the refit's
	// stages are in it.
	names := map[string]bool{}
	for _, sp := range obs.Default().Traces()[0].Spans {
		names[sp.Name] = true
	}
	if !names["quicksnapshot"] || !names["umap"] || names["snapshot"] {
		t.Errorf("newest trace has spans %v; want the quicksnapshot root with the refit's stages under it", names)
	}
}

func TestQuickSnapshotInvalidatedByRankGrowth(t *testing.T) {
	// A rank-adaptive monitor whose ℓ grows must refit rather than
	// transform into a stale latent space.
	cfg := Config{
		Sketch: sketch.Config{Ell0: 4, Nu: 4, Eps: 0.01, RankAdaptive: true, Seed: 56},
		UMAP:   umap.Config{NNeighbors: 6, NEpochs: 30, Seed: 57},
	}
	m := NewMonitor(cfg, 32)
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 16, Seed: 58})
	for i := 0; i < 20; i++ {
		m.Ingest(bg.Next().Image, i)
	}
	m.Snapshot()
	ellBefore := m.cachedEll
	for i := 20; i < 120; i++ {
		m.Ingest(bg.Next().Image, i)
	}
	if m.Ell() == ellBefore {
		t.Skip("rank did not grow with this data; invalidation untestable here")
	}
	snap := m.QuickSnapshot()
	if snap == nil {
		t.Fatal("no snapshot")
	}
	// After the fallback refit, the cache must reflect the new rank.
	if m.cachedEll != m.Ell() {
		t.Fatalf("cache not refreshed: cachedEll %d vs Ell %d", m.cachedEll, m.Ell())
	}
}

// TestSnapshotReconcileJoinsSnapshotTrace: reading is what merges the
// shards, so the merge belongs to the reader's trace — a sharded
// monitor's snapshot and quicksnapshot traces each carry the reconcile
// their ReadWindow forced, with its merge_sketches legs beneath it.
func TestSnapshotReconcileJoinsSnapshotTrace(t *testing.T) {
	cfg := Config{
		Shards: 3, // no other test runs three shards: marks this test's reconcile spans
		Sketch: sketch.Config{Ell0: 6, Seed: 61},
		UMAP:   umap.Config{NNeighbors: 6, NEpochs: 30, Seed: 62},
	}
	m := NewMonitor(cfg, 32)
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 16, Seed: 63})
	for i := 0; i < 48; i++ {
		m.Ingest(bg.Next().Image, i)
	}
	if m.Snapshot() == nil {
		t.Fatal("no snapshot")
	}
	m.Ingest(bg.Next().Image, 48)
	if m.QuickSnapshot() == nil {
		t.Fatal("no quick snapshot")
	}
	if got := m.Engine().Reconciles(); got != 2 {
		t.Fatalf("%d reconciles over two snapshots, want 2", got)
	}

	found := map[string]bool{}
	for _, tr := range obs.Default().Traces() {
		byID := make(map[obs.ID]obs.SpanRecord, len(tr.Spans))
		for _, sp := range tr.Spans {
			byID[sp.Span] = sp
		}
		for _, sp := range tr.Spans {
			if sp.Name != "merge_sketches" {
				continue
			}
			// merge_sketches → merge_remote → reconcile → the snapshot root.
			remote := byID[sp.Parent]
			rec := byID[remote.Parent]
			if rec.Name == "reconcile" && rec.Attrs["shards"] == "3" && byID[rec.Parent].Parent == 0 {
				found[byID[rec.Parent].Name] = true
			}
		}
	}
	for _, root := range []string{"snapshot", "quicksnapshot"} {
		if !found[root] {
			t.Errorf("no %s trace carries its reconcile and merge_sketches spans (roots with them: %v)", root, found)
		}
	}
}
