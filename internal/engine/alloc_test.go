package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/parallel"
	"arams/internal/sketch"
)

// allocPerRun reports the mean allocation count and bytes of f over
// runs calls, after one warm-up call.
func allocPerRun(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	allocs = testing.AllocsPerRun(runs, func() {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
	})
	// AllocsPerRun makes one extra warm-up call.
	return allocs, bytes / float64(runs+1)
}

// TestIngestAndAuditAllocNoRows pins the two per-frame costs the
// streaming path must not pay: absorbing one row through the live
// sampler (β < 1) and reading the one-shard certificate both leave the
// d-wide row and the 2ℓ×d buffer uncopied. Rotations reuse pooled
// storage, so they are inside the bound too.
func TestIngestAndAuditAllocNoRows(t *testing.T) {
	const d, ell = 4096, 8
	const rowBytes = 8 * d
	scfg := sketch.Config{Ell0: ell, Beta: 0.9, Seed: 3}
	vecs := testVecs(4*ell, d, 41)

	b := engine.NewLocalBackend(scfg)
	defer b.Close()
	if _, err := b.Absorb(obs.SpanContext{}, vecs, nil); err != nil { // past the first rotations
		t.Fatal(err)
	}
	next := 0
	allocs, bytes := allocPerRun(6*ell, func() {
		if _, err := b.Absorb(obs.SpanContext{}, vecs[next%len(vecs):next%len(vecs)+1], nil); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if bytes >= rowBytes/4 {
		t.Errorf("one-row Absorb allocates %.0f B (%.1f allocs) per call; a row is %d B", bytes, allocs, rowBytes)
	}

	e := engine.New(engine.Config{Sketch: scfg, Window: 4})
	defer e.Close()
	e.IngestVecs(cloneVecs(vecs), nil)
	allocs, bytes = allocPerRun(50, func() {
		if c := e.Certificate(); c.Rows != len(vecs) {
			t.Fatalf("certificate covers %d rows, want %d", c.Rows, len(vecs))
		}
	})
	if bytes >= rowBytes/4 {
		t.Errorf("Certificate allocates %.0f B (%.1f allocs) per call; a row is %d B", bytes, allocs, rowBytes)
	}
}

// TestCachedReadAllocatesNoBasis: a sharded engine's second ReadWindow
// with no ingest in between is served from the read the first one cut —
// a view of its basis rows, not a decomposition — so beyond the window's
// headers (a []float32 header and a tag per frame) it allocates under
// 4 KiB, where a fresh k×d basis would be 352 KiB.
func TestCachedReadAllocatesNoBasis(t *testing.T) {
	const window, d, k = 64, 4096, 11
	e := engine.New(engine.Config{Shards: 2, Sketch: sketch.Config{Ell0: 16, Beta: 1, Seed: 5}, Window: window})
	defer e.Close()
	e.IngestVecs(testVecs(2*window, d, 97), nil)
	if w := e.ReadWindow(k, obs.SpanContext{}); w.Basis.RowsN != k {
		t.Fatalf("basis has %d rows, want %d", w.Basis.RowsN, k)
	}
	merges := e.Reconciles()
	allocs, bytes := allocPerRun(10, func() {
		if w := e.ReadWindow(k, obs.SpanContext{}); w.Basis.RowsN != k {
			t.Fatalf("basis has %d rows, want %d", w.Basis.RowsN, k)
		}
	})
	if got := e.Reconciles(); got != merges {
		t.Fatalf("reads with no ingest in between merged %d times", got-merges)
	}
	headers := window * (24 + 8)
	if limit := float64(headers + 4<<10); bytes >= limit {
		t.Errorf("a cached ReadWindow allocates %.0f B (%.1f allocs); want under headers + 4 KiB = %.0f", bytes, allocs, limit)
	}
}

// liveHeap is the heap still reachable after collection. Two cycles:
// mat's vector pool is a sync.Pool, whose victim cache survives one.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStateSharesWindowAndEvictionFreesIt pins both halves of the
// ownership rule. State hands the window's vectors out instead of
// copying them: on a 512 × 4096 window it allocates the frame list and
// the shard states, not the 8.4 MB the window holds. And the vectors a
// State shared are dropped, not pooled, when they leave the ring — so
// the slots they slid out of must be cleared, or the ring's backing
// array pins up to a window of dead vectors until append next moves it:
// with the handle released and the stream run on for four windows, the
// live heap never exceeds the window plus one batch.
func TestStateSharesWindowAndEvictionFreesIt(t *testing.T) {
	const window, side, batch = 512, 64, 32
	const d = side * side
	ims := testImages(batch, side, 43)
	base := liveHeap()

	e := engine.New(engine.Config{Sketch: sketch.Config{Ell0: 4, Beta: 0.9, Seed: 3}, Window: window})
	defer e.Close()
	feed := func(frames int) {
		for ; frames > 0; frames -= batch {
			e.IngestBatch(ims, nil)
		}
	}
	feed(window)

	var st *engine.State
	_, bytes := allocPerRun(3, func() { st = e.State() })
	shardBytes := 0
	for _, ss := range st.Shards {
		shardBytes += 8*len(ss.FD.Kept) + 4*len(ss.FD.Incoming)
	}
	if limit := float64(64<<10 + shardBytes); bytes >= limit {
		t.Errorf("State allocates %.0f B on a %d-byte window; want under %.0f (64 KiB + shard states)",
			bytes, window*d*4, limit)
	}
	if &st.Frames[0].Vec[0] != &e.State().Frames[0].Vec[0] {
		t.Error("two States of one window hold different vectors; State copied")
	}
	st = nil

	limit := uint64((window + batch) * d * 4)
	for i := 0; i < 4*window/batch; i++ {
		feed(batch)
		if live := liveHeap() - base; live > limit {
			t.Fatalf("after %d frames past the State, %d B live; want at most window + one batch = %d",
				(i+1)*batch, live, limit)
		}
	}
}

// TestWindowRowsOutliveTheirFrames is the snapshot reader's half of the
// ownership rule: ReadWindow hands out the ring's own vectors, so they
// must stay byte-for-byte what they were however far the stream runs on
// behind the reader. The producer turns the window over four times, so
// every frame is evicted — and every one no reader holds recycled — and
// its images are fresh, so a vector that did go back to the pool is
// overwritten by a later narrowing. The window it leaves behind holds,
// under each frame's tag, the float32 copy of that frame; and the
// copying wrapper reads the same window, widened.
func TestWindowRowsOutliveTheirFrames(t *testing.T) {
	const window, side, batch = 16, 8, 4
	ims := testImages(5*window, side, 47)
	e := engine.New(engine.Config{Shards: 2, Sketch: sketch.Config{Ell0: 4, Beta: 0.9, Seed: 3}, Window: window})
	defer e.Close()
	feed := func(lo, hi int) {
		for ; lo < hi; lo += batch {
			tags := []int{lo, lo + 1, lo + 2, lo + 3}
			e.IngestBatch(ims[lo:lo+batch], tags)
		}
	}
	feed(0, window)

	w := e.ReadWindow(4, obs.SpanContext{})
	if len(w.Rows) != window || len(w.Tags) != window || w.Basis == nil {
		t.Fatalf("read %d rows, %d tags, basis %v; want a full window", len(w.Rows), len(w.Tags), w.Basis)
	}
	x, _, _, _ := e.WindowState(4)
	want := make([][]float32, len(w.Rows))
	for i, row := range w.Rows {
		want[i] = slices.Clone(row)
		for j, v := range row {
			if x.At(i, j) != float64(v) {
				t.Fatalf("WindowState row %d is not ReadWindow's widened", i)
			}
		}
	}
	if &e.ReadWindow(4, obs.SpanContext{}).Rows[0][0] != &w.Rows[0][0] {
		t.Error("two reads of one window hold different vectors; ReadWindow copied")
	}

	feed(window, 5*window)
	for i, row := range want {
		if !slices.Equal(w.Rows[i], row) {
			t.Fatalf("held row %d changed after its frame left the window: the vector was recycled", i)
		}
	}
	last := e.ReadWindow(4, obs.SpanContext{})
	for i, row := range last.Rows {
		for j, v := range ims[last.Tags[i]].Pix {
			if row[j] != float32(v) {
				t.Fatalf("window frame %d (tag %d) is not its image's float32 copy at %d", i, last.Tags[i], j)
			}
		}
	}
}

// TestSuspendReleaseKeepsHandedOutVectors is the release rule's safety
// half: Suspend's state owns only the window vectors nobody else was
// handed, so releasing it leaves a Window read earlier and a State taken
// earlier byte-for-byte intact while another engine draws ten windows'
// worth of vectors from the pool — some of them the ones released. The
// released state is empty, so it cannot be saved or restored.
func TestSuspendReleaseKeepsHandedOutVectors(t *testing.T) {
	const window, side, batch = 16, 8, 4
	ims := testImages(window+window/2+batch, side, 53)
	cfg := engine.Config{Sketch: sketch.Config{Ell0: 4, Beta: 0.9, Seed: 3}, Window: window}
	e := engine.New(cfg)
	feed := func(e *engine.Engine, ims []*imgproc.Image) {
		for lo := 0; lo < len(ims); lo += batch {
			e.IngestBatch(ims[lo:lo+batch], nil)
		}
	}
	feed(e, ims[:window])
	w := e.ReadWindow(4, obs.SpanContext{})
	var wantRows [][]float32
	for _, row := range w.Rows {
		wantRows = append(wantRows, slices.Clone(row))
	}
	feed(e, ims[window:window+window/2])
	st := e.State()
	var wantFrames [][]float32
	for _, f := range st.Frames {
		wantFrames = append(wantFrames, slices.Clone(f.Vec))
	}
	// The ring now holds frames handed out by ReadWindow, by State, and
	// one batch handed to nobody: Suspend's state owns that batch only.
	feed(e, ims[window+window/2:])
	s, err := e.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	if s.Window != 0 || s.Frames != nil || s.Shards != nil {
		t.Fatalf("released state keeps window %d, %d frames, %d shards", s.Window, len(s.Frames), len(s.Shards))
	}
	if _, err := engine.NewFromState(cfg, s); err == nil {
		t.Fatal("NewFromState accepted a released state")
	}

	other := engine.New(cfg)
	defer other.Close()
	feed(other, testImages(10*window, side, 59))
	for i, row := range wantRows {
		if !slices.Equal(w.Rows[i], row) {
			t.Fatalf("Window row %d changed after Suspend → Release: the vector was released", i)
		}
	}
	for i, vec := range wantFrames {
		if !slices.Equal(st.Frames[i].Vec, vec) {
			t.Fatalf("State frame %d changed after Suspend → Release: the vector was released", i)
		}
	}
}

// TestSuspendLeavesHeldRowsToTheirRead: a frame an open read holds is
// the read's as much as the state's, so Suspend's state does not own it.
// Neither releasing that state nor restoring from it and running the
// stream on for two windows recycles the rows a read took before the
// Suspend and releases only after: another engine drawing ten windows of
// vectors from the pool leaves them byte-for-byte intact.
func TestSuspendLeavesHeldRowsToTheirRead(t *testing.T) {
	const window, side, batch = 16, 8, 4
	cfg := engine.Config{Sketch: sketch.Config{Ell0: 4, Beta: 0.9, Seed: 3}, Window: window}
	feed := func(e *engine.Engine, ims []*imgproc.Image) {
		for lo := 0; lo < len(ims); lo += batch {
			e.IngestBatch(ims[lo:lo+batch], nil)
		}
	}
	for _, restore := range []bool{false, true} {
		e := engine.New(cfg)
		feed(e, testImages(window, side, 71))
		w := e.ReadWindow(4, obs.SpanContext{})
		var want [][]float32
		for _, row := range w.Rows {
			want = append(want, slices.Clone(row))
		}
		s, err := e.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		if restore {
			next, err := engine.NewFromState(cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			feed(next, testImages(2*window, side, 73))
			defer next.Close()
		} else {
			s.Release()
		}
		other := engine.New(cfg)
		feed(other, testImages(10*window, side, 79))
		other.Close()
		for i, row := range want {
			if !slices.Equal(w.Rows[i], row) {
				t.Fatalf("restore=%v: Window row %d changed before its Release: Suspend's state took it as its own", restore, i)
			}
		}
		w.Release()
	}
}

// TestClosedShardReturnsItsSketch is the release rule for the sketch:
// a closed local shard hands its 2ℓ×d buffer back to the vector pool,
// and the next sketch of the same shape (a restored tenant's shard)
// draws it from there, so an open → absorb → close cycle allocates well
// under one buffer. The race detector drops a quarter of pooled puts at
// random, so the bound is half a buffer, not zero.
func TestClosedShardReturnsItsSketch(t *testing.T) {
	const d, ell = 4096, 8
	const bufBytes = 8 * 2 * ell * d
	scfg := sketch.Config{Ell0: ell, Beta: 1, Seed: 3}
	vecs := testVecs(1, d, 43)
	_, bytes := allocPerRun(40, func() {
		b := engine.NewLocalBackend(scfg)
		if _, err := b.Absorb(obs.SpanContext{}, vecs, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if bytes >= bufBytes/2 {
		t.Errorf("open → absorb → close allocates %.0f B per cycle; the sketch buffer is %d B", bytes, bufBytes)
	}
}

// TestMergedReadReleasesItsLegs is the release rule for a reconcile: a
// merged read clones each shard's sketch into a buffer borrowed from the
// vector pool, folds the clones, cuts the basis and hands every buffer
// back, so the next read's clones find them there. With collection off —
// a collection empties the pool — each read after an ingest allocates
// the ℓ×d basis it cuts and little else: under the basis plus 64 KiB,
// which is below one 2ℓ×d buffer, where cloning into fresh buffers costs
// two. The loop runs on one P: at this width the buffers pool in a
// sync.Pool, which files a put on the putting P, and a get on another P
// does not always find it. Under -race sync.Pool drops a quarter of its
// puts, so there the least of the reads is held to the bound.
func TestMergedReadReleasesItsLegs(t *testing.T) {
	const d, ell, reads = 4096, 16, 40
	const limit = 8*ell*d + 64<<10
	e := engine.New(engine.Config{Shards: 2, Sketch: sketch.Config{Ell0: ell, Beta: 1, Seed: 5}, Window: 8})
	defer e.Close()
	vecs := testVecs(4*ell+2*reads, d, 61)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e.IngestVecs(vecs[:4*ell], nil) // past the first rotations
	if b, _ := e.Basis(ell); b.RowsN != ell {
		t.Fatalf("basis has %d rows, want %d", b.RowsN, ell)
	}
	merges := e.Reconciles()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < reads; i++ {
		lo := 4*ell + 2*i
		e.IngestVecs(vecs[lo:lo+2], nil) // one row per shard
		runtime.ReadMemStats(&before)
		b, _ := e.Basis(ell)
		runtime.ReadMemStats(&after)
		if b.RowsN != ell {
			t.Fatalf("read %d: basis has %d rows, want %d", i, b.RowsN, ell)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		least = min(least, bytes)
		if !raceEnabled && bytes >= limit {
			t.Errorf("merged read %d allocates %d B; want under the ℓ×d basis + 64 KiB = %d", i, bytes, limit)
		}
	}
	if least >= limit {
		t.Errorf("every merged read allocates %d B or more; want one under the ℓ×d basis + 64 KiB = %d", least, limit)
	}
	if got := e.Reconciles() - merges; got != reads {
		t.Fatalf("%d reads after an ingest merged %d times", reads, got)
	}
}

// TestReleasedLegsDoNotAliasHeldSketches is the safety half of the
// reconcile's release rule: a merge releases only buffers it owns. A
// GlobalSketch result, a MergeSketches result and the sketches it
// merged, and a Window.Basis held from an earlier read — all of the
// shards' shape, so of the pool class a reconcile borrows from — keep
// every bit while twenty more reconciles each borrow and return their
// legs' buffers. Two shapes: one whose buffers pool in a sync.Pool, and
// one past mat's threshold for its shared free list.
func TestReleasedLegsDoNotAliasHeldSketches(t *testing.T) {
	for _, shape := range []struct{ d, ell int }{{512, 8}, {8192, 32}} {
		t.Run(fmt.Sprintf("d=%d", shape.d), func(t *testing.T) {
			releasedLegsKeepHeldSketches(t, shape.d, shape.ell)
		})
	}
}

func releasedLegsKeepHeldSketches(t *testing.T, d, ell int) {
	const k, batch, rounds = 6, 4, 20
	e := engine.New(engine.Config{Shards: 2, Sketch: sketch.Config{Ell0: ell, Beta: 1, Seed: 7}, Window: 16})
	defer e.Close()
	vecs := testVecs(4*ell+rounds*batch, d, 67)
	e.IngestVecs(vecs[:4*ell], nil)

	held := map[string]*sketch.FrequentDirections{"GlobalSketch": e.GlobalSketch()}
	var inputs []*sketch.FrequentDirections
	for i := 0; i < 2; i++ {
		fd := sketch.NewFrequentDirections(ell, d, sketch.Options{})
		for _, v := range testVecs(3*ell, d, uint64(71+i)) {
			fd.Append(v)
		}
		inputs = append(inputs, fd)
		held[fmt.Sprintf("MergeSketches input %d", i)] = fd
	}
	held["MergeSketches result"], _ = parallel.MergeSketches(inputs, parallel.TreeMerge)
	w := e.ReadWindow(k, obs.SpanContext{})
	if w.Basis == nil || w.Basis.RowsN != k {
		t.Fatalf("window basis %v, want %d rows", w.Basis, k)
	}

	sketchDigest := func(fd *sketch.FrequentDirections) [32]byte {
		frame, err := ckpt.Marshal(fd.State())
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(frame)
	}
	basisDigest := func(b *mat.Matrix) [32]byte {
		h := sha256.New()
		for i := 0; i < b.RowsN; i++ {
			for _, v := range b.Row(i) {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		return [32]byte(h.Sum(nil))
	}
	want := map[string][32]byte{"Window.Basis": basisDigest(w.Basis)}
	for name, fd := range held {
		want[name] = sketchDigest(fd)
	}

	merges := e.Reconciles()
	for r := 0; r < rounds; r++ {
		lo := 4*ell + r*batch
		e.IngestVecs(vecs[lo:lo+batch], nil)
		if b, _ := e.Basis(k); b == nil || b.RowsN != k {
			t.Fatalf("round %d: basis %v, want %d rows", r, b, k)
		}
	}
	if got := e.Reconciles() - merges; got != rounds {
		t.Fatalf("%d ingest + read rounds merged %d times", rounds, got)
	}
	if basisDigest(w.Basis) != want["Window.Basis"] {
		t.Error("a held Window.Basis changed under later reconciles")
	}
	for name, fd := range held {
		if sketchDigest(fd) != want[name] {
			t.Errorf("the %s changed under later reconciles: a merge released a buffer it did not own", name)
		}
	}
}

// TestWindowReleaseKeepsHeldBases is the safety half of the basis
// ownership rule: a read hands its basis back only when it is released,
// and only once. A held, unreleased Window keeps every bit of its basis
// while the stream runs on, later reads merge and other readers release
// theirs, and no later read cuts into its array. A second Release of one
// read puts nothing back: for one shard a second put would hand one array
// to the next two reads, for many it would drop the holder count of the
// read the held Window shares, so the next merge would recycle its basis.
// Two shapes: one whose basis pools in a sync.Pool, and one past mat's
// threshold for its shared free list.
func TestWindowReleaseKeepsHeldBases(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, d := range []int{512, 32768} {
			t.Run(fmt.Sprintf("shards=%d/d=%d", shards, d), func(t *testing.T) {
				heldBasisSurvivesReleases(t, shards, d)
			})
		}
	}
}

func heldBasisSurvivesReleases(t *testing.T, shards, d int) {
	const ell, k, batch, rounds = 8, 4, 4, 12
	e := engine.New(engine.Config{Shards: shards, Sketch: sketch.Config{Ell0: ell, Beta: 1, Seed: 13}, Window: 16})
	defer e.Close()
	vecs := testVecs(4*ell+rounds*batch, d, 79)
	e.IngestVecs(vecs[:4*ell], nil)

	held := e.ReadWindow(k, obs.SpanContext{})
	if held.Basis == nil || held.Basis.RowsN != k {
		t.Fatalf("held basis %v, want %d rows", held.Basis, k)
	}
	want := held.Basis.Clone()
	twice := e.ReadWindow(k, obs.SpanContext{}) // for many shards, the read held shares
	twice.Release()
	twice.Release()

	sameArray := func(a, b *mat.Matrix) bool { return &a.Data[0] == &b.Data[0] }
	for r := 0; r < rounds; r++ {
		lo := 4*ell + r*batch
		e.IngestVecs(vecs[lo:lo+batch], nil)
		a := e.ReadWindow(k, obs.SpanContext{})
		b := e.ReadWindow(k, obs.SpanContext{})
		if a.Basis.RowsN != k || b.Basis.RowsN != k {
			t.Fatalf("round %d: bases of %d and %d rows, want %d", r, a.Basis.RowsN, b.Basis.RowsN, k)
		}
		if sameArray(a.Basis, held.Basis) || sameArray(b.Basis, held.Basis) {
			t.Fatalf("round %d: a later read cut its basis into the held read's array", r)
		}
		if shards == 1 && sameArray(a.Basis, b.Basis) {
			t.Fatalf("round %d: two one-shard reads in flight share one basis array", r)
		}
		a.Release()
		b.Release()
		if !sameBits(held.Basis, want) {
			t.Fatalf("round %d: the held basis changed", r)
		}
	}
	if shards > 1 && e.Reconciles() < rounds {
		t.Fatalf("%d merges over %d ingest + read rounds", e.Reconciles(), rounds)
	}
	held.Release()
}

// TestReleasedReadsRecycleTheirFrames is the window's release rule: a
// read holds the frames it read only until it is released, so a frame
// that leaves the ring after its reads are released goes back to the
// vector pool and the next narrowing reuses it. A one-shard stream of
// four windows, read and released every 32 frames, therefore allocates
// no float32 frame after warm-up: measured, 0.03 of a 4d-byte frame per
// frame, for the batches' headers and the reads' and the sketch's
// scratch. When every read pinned its frames for good, each frame's
// successor was allocated: 1.05 per frame. Under -race sync.Pool drops a
// quarter of its puts, the window's free lists among them, so a stream
// that recycles every frame still allocates more than one per frame;
// there the test checks only that every released read leaves the engine
// holding nothing for it. WindowState, whose basis is never released,
// gives its rows back once it has widened them.
func TestReleasedReadsRecycleTheirFrames(t *testing.T) {
	const window, side, batch = 128, 64, 32
	const d = side * side
	ims := testImages(batch, side, 83)
	e := engine.New(engine.Config{Sketch: sketch.Config{Ell0: 8, Beta: 0.9, Seed: 3}, Window: window})
	defer e.Close()
	step := func() {
		e.IngestBatch(ims, nil)
		e.ReadWindow(4, obs.SpanContext{}).Release()
		if holds, parked := e.Held(); holds != 0 || parked != 0 {
			t.Fatalf("after a released read the engine keeps %d open reads and %d parked frames", holds, parked)
		}
	}
	for n := 0; n < 2*window; n += batch {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < 4*window; n += batch {
		step()
	}
	runtime.ReadMemStats(&after)
	frames := float64(after.TotalAlloc-before.TotalAlloc) / (4 * window * 4 * d)
	if !raceEnabled && frames > 0.25 {
		t.Errorf("a stream read and released every %d frames allocates %.2f float32 frames per frame; want at most 0.25",
			batch, frames)
	}
	x, _, _, _ := e.WindowState(4)
	mat.PutVec(x.Data)
	if holds, _ := e.Held(); holds != 0 {
		t.Fatalf("WindowState left %d reads open; it gives its rows back once they are widened", holds)
	}
}
