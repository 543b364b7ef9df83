package engine_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"arams/internal/engine"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// sameSketchState reports where two shard states differ bit for bit:
// their counts, rows, Σδ, ‖A‖_F² and RNG positions; "" when they agree.
func sameSketchState(got, want *sketch.ARAMSState) string {
	if got == nil || want == nil {
		return "presence"
	}
	if got.RNG != want.RNG {
		return "sampler RNG"
	}
	g, w := &got.FD, &want.FD
	if g.Ell != w.Ell || g.NextZero != w.NextZero || g.Rotations != w.Rotations || g.Seen != w.Seen {
		return "counts"
	}
	if math.Float64bits(g.TotalDelta) != math.Float64bits(w.TotalDelta) ||
		math.Float64bits(g.FrobMass) != math.Float64bits(w.FrobMass) {
		return "ledgers"
	}
	if !slices.EqualFunc(g.Kept, w.Kept, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return "kept rows"
	}
	if !slices.EqualFunc(g.Incoming, w.Incoming, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		return "float32 rows"
	}
	return ""
}

// TestShardsBorrowFramesPastASmallWindow: a local shard's float32 rows
// are the window's own vectors, so with a window shorter than the rows
// the shards hold (W = 4 against ℓ = 6 on 2 shards) the engine parks
// every evicted frame a shard may still borrow — the batch of 8 evicts
// frames of its own before any shard has absorbed them — and returns it
// to the pool with the dispatch that rotates that shard past it. The
// batches are fresh vectors, so a frame recycled too early is
// overwritten by the next batch's narrowing, and the shard's state
// shows it: after every batch each shard's state is, bit for bit, that
// of an ARAMS fed the shard's rows through ProcessBatch. A shard holds
// the frames from the last one whose append rotated it (from the first
// before it rotates) on, so the engine keeps parked exactly the evicted
// frames from the earliest of those, and those an open read holds; a
// read held across four batches adds its frames until its Release. Close
// ends the shards' holds, and the read still open at Close gives its
// frames back on Release.
func TestShardsBorrowFramesPastASmallWindow(t *testing.T) {
	const window, ell, shards, batch, d, batches = 4, 6, 2, 8, 64, 14
	cfg := sketch.Config{Ell0: ell, Beta: 0.9, Seed: 7}
	e := engine.New(engine.Config{Shards: shards, Sketch: cfg, Window: window})
	refs := make([]*sketch.ARAMS, shards)
	since := make([]int, shards) // where each shard's hold starts
	for i := range refs {
		refs[i] = sketch.NewARAMS(engine.ShardSketchConfig(cfg, i), d, 0)
	}
	var read engine.Window
	readLo, readHi := 0, 0
	parked := func(ingests int) int {
		n := 0
		for at := 0; at < ingests-window; at++ {
			if at >= slices.Min(since) || (readLo <= at && at < readHi) {
				n++
			}
		}
		return n
	}
	for b := 0; b < batches; b++ {
		vecs := testVecs(batch, d, uint64(900+b))
		for i, v := range vecs {
			at := b*batch + i
			ref := refs[at%shards]
			rotations := ref.FD().Rotations()
			ref.ProcessBatch(mat.FromData(1, d, slices.Clone(v)))
			if ref.FD().Rotations() != rotations {
				since[at%shards] = at
			}
		}
		e.IngestVecs(vecs, nil)
		for si, ref := range refs {
			want := ref.State()
			if what := sameSketchState(e.ShardState(si), &want); what != "" {
				t.Fatalf("after batch %d shard %d's %s differ from ProcessBatch's", b, si, what)
			}
		}
		switch b {
		case 3:
			read = e.ReadWindow(2, obs.SpanContext{})
			readLo, readHi = (b+1)*batch-window, (b+1)*batch
		case 7:
			read.Release()
			readLo, readHi = 0, 0
		case batches - 2:
			read = e.ReadWindow(2, obs.SpanContext{})
			readLo, readHi = (b+1)*batch-window, (b+1)*batch
		}
		if _, got := e.Held(); got != parked((b+1)*batch) {
			t.Fatalf("after batch %d the engine parks %d frames; want %d (shard holds from %v, read [%d, %d))",
				b, got, parked((b+1)*batch), since, readLo, readHi)
		}
	}
	if slices.Min(since) < 4*batch {
		t.Fatalf("the shards last rotated at frames %v: too few rotations to test", since)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if holds, got := e.Held(); holds != 1 || got != window {
		t.Fatalf("after Close the engine keeps %d reads and %d parked frames; want the open read's %d", holds, got, window)
	}
	read.Release()
	if holds, got := e.Held(); holds != 0 || got != 0 {
		t.Fatalf("after Close and the last Release the engine keeps %d reads and %d parked frames", holds, got)
	}
}

// TestSuspendGathersBorrowedRows: Suspend hands each local shard's
// borrowed rows over as one float32 block of the state's own, and the
// window's frames to the state; nothing is left parked for the shards,
// and a restore from the state resumes the stream bit for bit.
func TestSuspendGathersBorrowedRows(t *testing.T) {
	const window, ell, batch, d = 4, 6, 8, 64
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprint(shards, " shards"), func(t *testing.T) {
			cfg := engine.Config{Shards: shards, Sketch: sketch.Config{Ell0: ell, Beta: 0.9, Seed: 7}, Window: window}
			e, control := engine.New(cfg), engine.New(cfg)
			defer control.Close()
			feed := func(e *engine.Engine, lo, hi int) {
				for b := lo; b < hi; b++ {
					e.IngestVecs(testVecs(batch, d, uint64(700+b)), nil)
				}
			}
			feed(e, 0, 5)
			feed(control, 0, 5)
			st, err := e.Suspend()
			if err != nil {
				t.Fatal(err)
			}
			if _, parked := e.Held(); parked != 0 {
				t.Fatalf("a suspended engine keeps %d frames parked", parked)
			}
			for si, ss := range st.Shards {
				if inc := ss.FD.Incoming; len(inc) > 0 && cap(inc) != ell*d {
					t.Fatalf("shard %d's float32 rows have capacity %d; want its own ℓ×d block, %d", si, cap(inc), ell*d)
				}
			}
			r, err := engine.NewFromState(cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			feed(r, 5, 9)
			feed(control, 5, 9)
			for si := 0; si < shards; si++ {
				if what := sameSketchState(r.ShardState(si), control.ShardState(si)); what != "" {
					t.Fatalf("shard %d's %s differ after a suspend and restore", si, what)
				}
			}
		})
	}
}
