package pipeline_test

// Tests for the window-vector ownership rule (see engine.State and
// engine.Window): a state handle shares the window's vectors with the
// live monitor and with every monitor rebuilt from it, and a quick
// snapshot projects them where they lie, so they must stay byte-stable
// whatever any of them goes on to do. Meant to run under -race, where a
// recycled or rewritten shared vector is a reported race and not only a
// changed byte.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/imgproc"
	"arams/internal/pipeline"
	"arams/internal/umap"
)

func mustMarshal(t *testing.T, s *pipeline.MonitorState) []byte {
	t.Helper()
	b, err := ckpt.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStateStableWhileStreamRunsOn holds one State while two producers
// push three more windows through the monitor — evicting every vector
// the state shares — and a third goroutine keeps encoding the state:
// every encoding equals the first.
func TestStateStableWhileStreamRunsOn(t *testing.T) {
	const window, w, h, batch = 32, 8, 8, 8
	frames := chaosFrames(4*window, w, h, 91)
	cfg := chaosConfig()
	cfg.Shards = 2
	m := pipeline.NewMonitor(cfg, window)
	defer m.Engine().Close()
	m.IngestBatch(frames[:window], nil)

	st := m.State()
	want := mustMarshal(t, st)

	var producers sync.WaitGroup
	rest := frames[window:]
	for p := 0; p < 2; p++ {
		producers.Add(1)
		go func(mine []*imgproc.Image) {
			defer producers.Done()
			for lo := 0; lo < len(mine); lo += batch {
				m.IngestBatch(mine[lo:lo+batch], nil)
			}
		}(rest[p*len(rest)/2 : (p+1)*len(rest)/2])
	}
	done := make(chan struct{})
	go func() {
		producers.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false // one more encoding, after the last eviction
		default:
		}
		got, err := ckpt.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("a held State changed while the stream ran on")
		}
	}
	if got := m.Ingested(); got != len(frames) {
		t.Fatalf("ingested %d frames, want %d", got, len(frames))
	}
}

// TestRestoreTwiceFromOneState rebuilds two monitors from one State —
// both adopt the same vectors — runs the same two windows through each
// and through the monitor the state came from, and requires all three
// to end byte-equal, with the state itself untouched.
func TestRestoreTwiceFromOneState(t *testing.T) {
	const window, w, h, batch = 32, 8, 8, 8
	frames := chaosFrames(3*window, w, h, 92)
	cfg := chaosConfig()
	origin := pipeline.NewMonitor(cfg, window)
	defer origin.Engine().Close()
	origin.IngestBatch(frames[:window], nil)

	st := origin.State()
	want := mustMarshal(t, st)
	ms := []*pipeline.Monitor{origin}
	for i := 0; i < 2; i++ {
		m, err := pipeline.NewMonitorFromState(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Engine().Close()
		ms = append(ms, m)
	}
	var ends [][]byte
	for _, m := range ms {
		for lo := window; lo < len(frames); lo += batch {
			m.IngestBatch(frames[lo:lo+batch], nil)
		}
		ends = append(ends, mustMarshal(t, m.State()))
	}
	if !bytes.Equal(ends[1], ends[2]) {
		t.Error("two monitors restored from one State diverged")
	}
	if !bytes.Equal(ends[0], ends[1]) {
		t.Error("a restored monitor diverged from the one its State came from")
	}
	if !bytes.Equal(mustMarshal(t, st), want) {
		t.Error("restoring from a State and streaming on changed the State")
	}
}

// TestDecodedStateHandsOverUntilClose is the ownership rule for a
// state a checkpoint decoder built, through either form (Load, whose
// storage comes from the vector pool and whose rotated sketch buffers a
// restore adopts, and Unmarshal): it owns its window vectors and shard
// buffers, and the one monitor restored from it takes them over. So a
// second restore from it is refused; until that monitor ingests, the
// state re-marshals to the bytes it was decoded from; and the monitor
// streams on — evicting and recycling the adopted vectors, rotating in
// the adopted buffers — bit-exact against one restored from the State
// cut the checkpoint was written from.
func TestDecodedStateHandsOverUntilClose(t *testing.T) {
	const window, w, h, batch = 32, 8, 8, 8
	dir := t.TempDir()
	decoders := map[string]func(b []byte) (any, error){
		"Unmarshal": ckpt.Unmarshal,
		"Load": func(b []byte) (any, error) {
			path := filepath.Join(dir, "state.ckpt")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return nil, err
			}
			return ckpt.Load(path)
		},
	}
	for name, decode := range decoders {
		for _, shards := range []int{1, 2} {
			frames := chaosFrames(4*window, w, h, 93)
			cfg := chaosConfig()
			cfg.Shards = shards
			origin := pipeline.NewMonitor(cfg, window)
			origin.IngestBatch(frames[:window], nil)
			st := origin.State()
			b := mustMarshal(t, st)
			origin.Engine().Close()
			v, err := decode(b)
			if err != nil {
				t.Fatal(err)
			}
			dec := v.(*pipeline.MonitorState)

			shared, err := pipeline.NewMonitorFromState(cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			defer shared.Engine().Close()
			owned, err := pipeline.NewMonitorFromState(cfg, dec)
			if err != nil {
				t.Fatal(err)
			}
			defer owned.Engine().Close()
			if m, err := pipeline.NewMonitorFromState(cfg, dec); err == nil {
				m.Engine().Close()
				t.Fatalf("%s, %d shards: a second restore from a decoded state succeeded", name, shards)
			}
			if !bytes.Equal(mustMarshal(t, dec), b) {
				t.Fatalf("%s, %d shards: the decoded state changed when a monitor was restored from it", name, shards)
			}
			for lo := window; lo < len(frames); lo += batch {
				shared.IngestBatch(frames[lo:lo+batch], nil)
				owned.IngestBatch(frames[lo:lo+batch], nil)
			}
			if !bytes.Equal(mustMarshal(t, owned.State()), mustMarshal(t, shared.State())) {
				t.Fatalf("%s, %d shards: the monitor restored from the decoded state diverged from the one restored from its State", name, shards)
			}
		}
	}
}

// TestMonitorSnapshotShareHammer is the -race hammer for the snapshot
// readers: one producer batches four windows through a 16-frame ring —
// alone in flight, so its evictions read every mark and recycle whatever
// nobody marked — while Snapshot and QuickSnapshot mark the ring's
// frames under the engine lock and read their vectors (to copy, to
// project) outside every lock, and State marks the same frames from
// under the gate. The two writers of the mark race each other, and the
// eviction's read, unless all three hold the engine lock. (That a marked
// vector keeps its bytes is engine.TestWindowRowsOutliveTheirFrames.)
func TestMonitorSnapshotShareHammer(t *testing.T) {
	const window, w, h, batch = 16, 8, 8, 4
	frames := chaosFrames(4*window, w, h, 93)
	cfg := chaosConfig()
	cfg.UMAP = umap.Config{NNeighbors: 4, NEpochs: 5, Seed: 94}
	cfg.MinPts = 3
	m := pipeline.NewMonitor(cfg, window)
	defer m.Engine().Close()
	m.IngestBatch(frames[:window], nil)

	done := make(chan struct{})
	var readers sync.WaitGroup
	read := func(f func() int) {
		defer readers.Done()
		for running := true; running; {
			select {
			case <-done:
				running = false // one more read, after the last eviction
			default:
			}
			if n := f(); n != window {
				t.Errorf("read %d frames of a full %d-frame window", n, window)
				return
			}
		}
	}
	readers.Add(3)
	go read(func() int { return len(m.Snapshot().Tags) })
	go read(func() int { return m.QuickSnapshot().Latent.RowsN })
	go read(func() int { return len(m.State().Frames) })
	for lo := window; lo < len(frames); lo += batch {
		m.IngestBatch(frames[lo:lo+batch], nil)
	}
	close(done)
	readers.Wait()
	if got := m.Ingested(); got != len(frames) {
		t.Fatalf("ingested %d frames, want %d", got, len(frames))
	}
}

// TestQuickSnapshotLeavesWindowUncopied is the snapshot's share of the
// allocation rule TestStateSharesWindowAndEvictionFreesIt (engine) pins
// for State: a QuickSnapshot of a 512 × 4096 window allocates its latent,
// embedding and neighbour graphs — under a quarter of the 8.4 MB the
// window holds, where copying it first cost more than all of it.
//
// The projection widens the float32 window rows into packed-row scratch
// from the vector pool, one block per chunk of the mat worker pool: at
// most 64 rows × 1 024 columns of float64 per chunk, so at most half the
// window's bytes over all chunks. The blocks (256–512 KiB) pool on mat's
// shared free list, which every P sees, but the first QuickSnapshot after
// a Snapshot finds none there (a Snapshot projects its float64 copy,
// which takes no scratch) and allocates one per chunk in flight: 0.79 MB
// at GOMAXPROCS 1 and 1.32 MB at 2 without -race. Under -race the list,
// which lives in a sync.Pool, is dropped with a quarter of that pool's
// puts, so a chunk may find no block and allocate it: 1.32–2.51 MB over
// 24 -race runs at GOMAXPROCS 2 and 4 (1.33–3.41 MB while the blocks
// pooled in a sync.Pool of their own). A dropped list can still lose
// every block, so the -race bar adds that half to the quarter, and a copy
// of the window still fails it.
func TestQuickSnapshotLeavesWindowUncopied(t *testing.T) {
	const window, side, batch = 512, 64, 32
	frames := chaosFrames(batch, side, side, 95)
	cfg := chaosConfig()
	cfg.UMAP = umap.Config{NNeighbors: 8, NEpochs: 10, Seed: 96}
	m := pipeline.NewMonitor(cfg, window)
	defer m.Engine().Close()
	for n := 0; n < window; n += batch {
		m.IngestBatch(frames, nil)
	}
	if m.Snapshot() == nil { // fits the model the quick path transforms into
		t.Fatal("no snapshot")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := m.QuickSnapshot()
	runtime.ReadMemStats(&after)
	if snap == nil || snap.Latent.RowsN != window {
		t.Fatal("no quick snapshot of the full window")
	}
	const windowBytes = window * side * side * 4
	limit, share := uint64(windowBytes/4), "a quarter"
	if raceEnabled {
		limit, share = windowBytes*3/4, "three quarters (-race)"
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("QuickSnapshot allocates %d B beside a %d-byte window; want under %s of it", got, windowBytes, share)
	}
}

// snapshotDigests is the SHA-256 of every slice a Snapshot returns.
func snapshotDigests(s *pipeline.Snapshot) [][sha256.Size]byte {
	var out [][sha256.Size]byte
	sum := func(v any) {
		h := sha256.New()
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
		out = append(out, [sha256.Size]byte(h.Sum(nil)))
	}
	ints := func(v []int) {
		w := make([]int64, len(v))
		for i, x := range v {
			w[i] = int64(x)
		}
		sum(w)
	}
	ints(s.Tags)
	sum(s.Latent.Data)
	sum(s.Embedding.Data)
	ints(s.Labels)
	sum(s.OutlierScores)
	ints(s.Outliers)
	sum(s.Residuals)
	ints(s.ResidualOutliers)
	return out
}

// TestSnapshotOutlivesReleasedCopy: a Snapshot hands its float64 window
// copy back to the vector pool, and the next Snapshot copies a moved
// window into the same array (128 × 4096 is a big pool class, shared by
// every P). So no field of a returned Snapshot may be a view of that
// copy: one snapshot's every slice keeps its SHA-256 through 20 rounds of
// ingest, Snapshot and a concurrent QuickSnapshot.
func TestSnapshotOutlivesReleasedCopy(t *testing.T) {
	const window, side, batch, rounds = 128, 64, 16, 20
	frames := chaosFrames(window+rounds*batch, side, side, 100)
	cfg := chaosConfig()
	cfg.UMAP = umap.Config{NNeighbors: 4, NEpochs: 5, Seed: 101}
	cfg.MinPts = 3
	m := pipeline.NewMonitor(cfg, window)
	defer m.Engine().Close()
	m.IngestBatch(frames[:window], nil)
	held := m.Snapshot()
	if held == nil || len(held.Residuals) != window {
		t.Fatal("no snapshot of the full window")
	}
	want := snapshotDigests(held)
	for r := 0; r < rounds; r++ {
		lo := window + r*batch
		m.IngestBatch(frames[lo:lo+batch], nil)
		quick := make(chan *pipeline.Snapshot, 1)
		go func() { quick <- m.QuickSnapshot() }()
		if s := m.Snapshot(); s == nil || len(s.Residuals) != window {
			t.Fatalf("round %d: no snapshot of the full window", r)
		}
		if q := <-quick; q == nil || q.Latent.RowsN != window {
			t.Fatalf("round %d: no quick snapshot of the full window", r)
		}
		if got := snapshotDigests(held); !slices.Equal(got, want) {
			t.Fatalf("round %d: a held Snapshot changed after later snapshots reused its window copy", r)
		}
	}
}

// TestReleasedStateRefused: once a suspended state has been saved and
// released, its window vectors belong to the vector pool again and the
// state is empty — ckpt.Marshal and NewMonitorFromState must refuse it
// rather than write or restore a stream of nothing. The bytes saved
// before the release still restore the whole stream.
func TestReleasedStateRefused(t *testing.T) {
	const window = 16
	cfg := chaosConfig()
	m := pipeline.NewMonitor(cfg, window)
	m.IngestBatch(chaosFrames(2*window, 8, 8, 97), nil)
	s, err := m.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	saved := mustMarshal(t, s)
	s.Release()
	if s.Window != 0 || s.Frames != nil || s.Shards != nil {
		t.Fatalf("released state keeps window %d, %d frames, %d shards", s.Window, len(s.Frames), len(s.Shards))
	}
	if b, err := ckpt.Marshal(s); err == nil {
		t.Fatalf("ckpt.Marshal wrote %d bytes for a released state", len(b))
	}
	if _, err := pipeline.NewMonitorFromState(cfg, s); err == nil {
		t.Fatal("NewMonitorFromState accepted a released state")
	}
	back, err := ckpt.Unmarshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := pipeline.NewMonitorFromState(cfg, back.(*pipeline.MonitorState))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Engine().Close()
	if !bytes.Equal(mustMarshal(t, restored.State()), saved) {
		t.Fatal("the state saved before Release does not restore to the same bytes")
	}
}
