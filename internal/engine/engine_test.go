package engine_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// testVecs builds a deterministic low-rank-plus-noise stream so the
// sketch has real directions to track.
func testVecs(n, d int, seed uint64) [][]float64 {
	g := rng.New(seed)
	base := make([][]float64, 3)
	for i := range base {
		base[i] = make([]float64, d)
		for j := range base[i] {
			base[i][j] = g.Norm()
		}
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, d)
		b := base[i%len(base)]
		for j := range v {
			v[j] = 3*b[j] + 0.3*g.Norm()
		}
		vecs[i] = v
	}
	return vecs
}

func asMatrix(vecs [][]float64) *mat.Matrix {
	x := mat.New(len(vecs), len(vecs[0]))
	for i, v := range vecs {
		copy(x.Row(i), v)
	}
	return x
}

func cloneVecs(vecs [][]float64) [][]float64 {
	out := make([][]float64, len(vecs))
	for i, v := range vecs {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// TestShardVsSerialCertificate is the shard-equivalence acceptance
// test: the same stream sharded 1/2/4/8 ways must always produce a
// merged sketch whose certificate bound holds against the exact
// covariance — ‖AᵀA − BᵀB‖₂ ≤ Σδ, with the spectral norm computed by
// power iteration on the full data — and whose energy ledger accounts
// for every row (certificates compose additively across the shard
// merge). β = 1 so the sketch summarizes exactly the data compared
// against.
func TestShardVsSerialCertificate(t *testing.T) {
	const n, d = 256, 24
	vecs := testVecs(n, d, 11)
	x := asMatrix(vecs)
	wantMass := x.FrobeniusNormSq()

	for _, shards := range []int{1, 2, 4, 8} {
		e := engine.New(engine.Config{
			Shards: shards,
			Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 5},
			Window: 32,
		})
		e.IngestVecs(cloneVecs(vecs), nil)
		if e.Ingested() != n {
			t.Fatalf("shards=%d: ingested %d frames, want %d", shards, e.Ingested(), n)
		}

		if live := e.Certificate(); live.Rows != n {
			t.Fatalf("shards=%d: live certificate covers %d rows, want %d", shards, live.Rows, n)
		}

		g := e.GlobalSketch()
		if g == nil {
			t.Fatalf("shards=%d: nil global sketch after %d frames", shards, n)
		}
		if g.Seen() != n {
			t.Fatalf("shards=%d: global sketch saw %d rows, want %d", shards, g.Seen(), n)
		}
		// Certificate and sketch matrix must come from the same object:
		// Sketch() compacts (a final rotation adds its δ to the ledger),
		// so the certificate is cut after extracting B.
		b := g.Sketch()
		cert := audit.FromSketch(g)
		if cert.Rows != n {
			t.Fatalf("shards=%d: certificate covers %d rows, want %d", shards, cert.Rows, n)
		}
		if math.Abs(cert.FrobMass-wantMass) > 1e-9*(1+wantMass) {
			t.Fatalf("shards=%d: certificate FrobMass = %v, want ‖A‖_F² = %v",
				shards, cert.FrobMass, wantMass)
		}
		exact := sketch.CovErr(x, b)
		slack := 1e-8 * (1 + cert.FrobMass)
		if exact > cert.CovBound()+slack {
			t.Fatalf("shards=%d: exact covariance error %v exceeds certified bound %v",
				shards, exact, cert.CovBound())
		}
		if cert.CovBound() > cert.AprioriBound()+slack {
			t.Fatalf("shards=%d: online bound %v exceeds a-priori bound %v",
				shards, cert.CovBound(), cert.AprioriBound())
		}
	}
}

// TestBatchMatchesPerFrame pins batch-size invariance: with a fixed
// shard count, ingesting frame-by-frame and ingesting in arbitrary
// batches must produce bit-identical shard states — routing is by
// global stream index and rows are fed to each sampler one at a time,
// so batching is a pure throughput optimization.
func TestBatchMatchesPerFrame(t *testing.T) {
	const n, d = 90, 12
	vecs := testVecs(n, d, 23)
	cfg := engine.Config{
		Shards: 3,
		Sketch: sketch.Config{Ell0: 5, Beta: 0.8, Seed: 17},
		Window: 16,
	}

	single := engine.New(cfg)
	for i, v := range vecs {
		single.IngestVecs([][]float64{append([]float64(nil), v...)}, []int{i})
	}
	batched := engine.New(cfg)
	for lo := 0; lo < n; {
		hi := lo + 1 + (lo*7)%13 // uneven batch sizes
		if hi > n {
			hi = n
		}
		tags := make([]int, hi-lo)
		for i := range tags {
			tags[i] = lo + i
		}
		batched.IngestVecs(cloneVecs(vecs[lo:hi]), tags)
		lo = hi
	}

	a, b := single.State(), batched.State()
	if len(a.Shards) != len(b.Shards) {
		t.Fatalf("shard counts differ: %d vs %d", len(a.Shards), len(b.Shards))
	}
	for i := range a.Shards {
		sa, sb := a.Shards[i], b.Shards[i]
		if (sa == nil) != (sb == nil) {
			t.Fatalf("shard %d: presence differs", i)
		}
		if sa == nil {
			continue
		}
		fa, fb := &sa.FD, &sb.FD
		if fa.Seen != fb.Seen || fa.Rotations != fb.Rotations {
			t.Fatalf("shard %d: seen/rotations differ: %d/%d vs %d/%d",
				i, fa.Seen, fa.Rotations, fb.Seen, fb.Rotations)
		}
		if !slices.Equal(fa.Kept, fb.Kept) || !slices.Equal(fa.Incoming, fb.Incoming) {
			t.Fatalf("shard %d: buffer diverged", i)
		}
		if sa.RNG != sb.RNG {
			t.Fatalf("shard %d: sampler RNG state diverged", i)
		}
	}
}

// TestStateRoundTripResume checks that a restored engine continues the
// stream bit-exactly: run A ingests everything; run B checkpoints
// mid-stream, restores, and finishes; their final states must agree
// shard by shard.
func TestStateRoundTripResume(t *testing.T) {
	const n, d, cut = 70, 10, 40
	vecs := testVecs(n, d, 47)
	cfg := engine.Config{
		Shards: 4,
		Sketch: sketch.Config{Ell0: 5, Beta: 0.85, Seed: 3, RankAdaptive: true, Eps: 0.25, Nu: 3},
		Window: 12,
	}

	control := engine.New(cfg)
	control.IngestVecs(cloneVecs(vecs), nil)

	first := engine.New(cfg)
	first.IngestVecs(cloneVecs(vecs[:cut]), nil)
	st := first.State()

	restored, err := engine.NewFromState(cfg, st)
	if err != nil {
		t.Fatalf("NewFromState: %v", err)
	}
	if restored.Ingested() != cut {
		t.Fatalf("restored engine reports %d ingests, want %d", restored.Ingested(), cut)
	}
	restored.IngestVecs(cloneVecs(vecs[cut:]), nil)

	a, b := control.State(), restored.State()
	if a.Ingests != b.Ingests {
		t.Fatalf("ingest counts differ: %d vs %d", a.Ingests, b.Ingests)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("window sizes differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		for j := range a.Frames[i].Vec {
			if a.Frames[i].Vec[j] != b.Frames[i].Vec[j] {
				t.Fatalf("window frame %d diverged at element %d", i, j)
			}
		}
	}
	for i := range a.Shards {
		fa, fb := &a.Shards[i].FD, &b.Shards[i].FD
		if !slices.Equal(fa.Kept, fb.Kept) || !slices.Equal(fa.Incoming, fb.Incoming) {
			t.Fatalf("shard %d buffer diverged after restore", i)
		}
		if a.Shards[i].RNG != b.Shards[i].RNG {
			t.Fatalf("shard %d sampler RNG diverged after restore", i)
		}
	}
}

// TestStateRejectsCorrupt pins restore validation: impossible window /
// frame / shard combinations must be rejected, not half-restored.
func TestStateRejectsCorrupt(t *testing.T) {
	cfg := engine.Config{Sketch: sketch.Config{Ell0: 4, Beta: 1}}
	if _, err := engine.NewFromState(cfg, nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if _, err := engine.NewFromState(cfg, &engine.State{Window: 0}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := engine.NewFromState(cfg, &engine.State{Window: 4, Ingests: 9}); err == nil {
		t.Fatal("ingests without any shard sketch accepted")
	}
	if _, err := engine.NewFromState(cfg, &engine.State{
		Window: 2, Ingests: 1,
		Frames: []engine.Frame{{Vec: []float32{1}}, {Vec: []float32{2}}, {Vec: []float32{3}}},
	}); err == nil {
		t.Fatal("more frames than window accepted")
	}
}

// TestAuditParityOneShard pins the facade contract on the audit layer:
// a one-shard engine fed per-frame must flush the same number of audit
// batches at the same cadence as the AuditEvery spec, and the journal
// must carry rank-growth events when the rank grows.
func TestAuditParityOneShard(t *testing.T) {
	const n, d = 64, 12
	vecs := testVecs(n, d, 53)
	aud := audit.New(audit.Config{
		Journal:  audit.NewJournal(64),
		Registry: obs.NewRegistry(),
	})
	e := engine.New(engine.Config{
		Shards:     1,
		Sketch:     sketch.Config{Ell0: 3, Beta: 1, RankAdaptive: true, Eps: 0.05, Nu: 2},
		Window:     16,
		Audit:      aud,
		AuditEvery: 8,
	})
	for i, v := range vecs {
		e.IngestVecs([][]float64{append([]float64(nil), v...)}, []int{i})
	}
	if got, want := aud.State().Batches, int64(n/8); got != want {
		t.Fatalf("audited %d batches, want %d", got, want)
	}
	grew := false
	for _, ev := range aud.Journal().State().Events {
		if ev.Kind == audit.KindRankGrow {
			grew = true
		}
	}
	if e.Ell() > 3 && !grew {
		t.Fatalf("rank grew to %d but no rank_grow journal event", e.Ell())
	}
}

// TestBasisIsGlobalSketchBasis: the engine's basis is the basis of the
// sketch GlobalSketch hands out, bit for bit, for every k from 0 past ℓ,
// at one shard (read in place under the shard lock) and at two (a view
// of the leading rows of the read cached from a merge), at every read
// point of a stream whose batches leave the shards anywhere in their
// rotation cycle — and of a rank-2 stream, whose rank clamps every
// larger k. The certificate, before GlobalSketch and after it, is the
// composition of the shards' own certificates.
func TestBasisIsGlobalSketchBasis(t *testing.T) {
	const n, d, ell = 150, 40, 6
	ks := []int{0, 1, 4, ell, ell + 3}
	untimed := func(c audit.Certificate) audit.Certificate {
		c.Time = time.Time{} // when it was cut, not what it certifies
		return c
	}
	for _, stream := range []struct {
		name string
		vecs [][]float64
		rank int
	}{
		{"full rank", testVecs(n, d, 71), ell},
		{"rank 2", rankVecs(n, d, 2, 73), 2},
	} {
		for _, shards := range []int{1, 2} {
			scfg := sketch.Config{Ell0: ell, Beta: 1, Seed: 2}
			backends := make([]engine.Backend, shards)
			for i := range backends {
				backends[i] = engine.NewLocalBackend(engine.ShardSketchConfig(scfg, i))
			}
			composed := func() audit.Certificate {
				certs := make([]audit.Certificate, shards)
				for i, b := range backends {
					c, err := b.Certificate()
					if err != nil {
						t.Fatal(err)
					}
					certs[i] = c
				}
				return untimed(audit.Compose(certs...))
			}
			e := engine.New(engine.Config{
				Sketch:   scfg,
				Window:   16,
				Backends: backends,
			})
			for lo, step := 0, 7; lo+step <= n; lo += step {
				at := func(what string, k int) string {
					return fmt.Sprintf("%s, %d shards, %d rows, k = %d: %s", stream.name, shards, lo+step, k, what)
				}
				e.IngestVecs(cloneVecs(stream.vecs[lo:lo+step]), nil)
				// The first Basis merges and every reader up to GlobalSketch
				// is served from its read; GlobalSketch merges again.
				got := make([]*mat.Matrix, len(ks))
				ells := make([]int, len(ks))
				for i, k := range ks {
					got[i], ells[i] = e.Basis(k)
				}
				cert := composed()
				if before := untimed(e.Certificate()); before != cert {
					t.Fatalf("%s", at("Certificate differs from the shards' composed", 0))
				}
				g := e.GlobalSketch()
				if after := untimed(e.Certificate()); after != cert {
					t.Fatalf("%s", at("Certificate after GlobalSketch differs from the shards' composed", 0))
				}
				for i, k := range ks {
					want := g.Basis(k)
					if ells[i] != g.Ell() || !sameBits(got[i], want) {
						t.Fatalf("%s", at("Basis differs from GlobalSketch().Basis", k))
					}
					if again, _ := e.Basis(k); !sameBits(again, want) {
						t.Fatalf("%s", at("Basis after GlobalSketch differs from its Basis", k))
					}
					if w := e.ReadWindow(k, obs.SpanContext{}); !sameBits(w.Basis, want) {
						t.Fatalf("%s", at("ReadWindow's basis differs from GlobalSketch().Basis", k))
					}
					if wantRows := min(k, stream.rank); want.RowsN != wantRows {
						t.Fatalf("%s", at(fmt.Sprintf("basis has %d rows, want %d", want.RowsN, wantRows), k))
					}
				}
			}
			e.Close()
		}
	}
}

// rankVecs builds a stream of exact rank r: every row is a Gaussian
// combination of the same r directions.
func rankVecs(n, d, r int, seed uint64) [][]float64 {
	g := rng.New(seed)
	base := make([][]float64, r)
	for i := range base {
		base[i] = make([]float64, d)
		for j := range base[i] {
			base[i][j] = g.Norm()
		}
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, d)
		for _, b := range base {
			c := g.Norm()
			for j := range v {
				v[j] += c * b[j]
			}
		}
		vecs[i] = v
	}
	return vecs
}

// sameBits reports whether two matrices have one shape and one bit
// pattern.
func sameBits(a, b *mat.Matrix) bool {
	if a.RowsN != b.RowsN || a.ColsN != b.ColsN {
		return false
	}
	for i := 0; i < a.RowsN; i++ {
		for j, v := range a.Row(i) {
			if math.Float64bits(v) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestReconcileCadence checks that multi-shard engines keep a reconciled
// global available mid-stream and that Basis clamps k to the merged
// rank.
func TestReconcileCadence(t *testing.T) {
	const n, d = 120, 16
	vecs := testVecs(n, d, 67)
	e := engine.New(engine.Config{
		Shards: 4,
		Sketch: sketch.Config{Ell0: 6, Beta: 1, Seed: 2},
		Window: 32,
	})
	for lo := 0; lo < n; lo += 8 {
		e.IngestVecs(cloneVecs(vecs[lo:lo+8]), nil)
	}
	basis, ell := e.Basis(1000)
	if basis == nil || ell == 0 {
		t.Fatal("no basis after ingest")
	}
	if basis.RowsN > ell {
		t.Fatalf("basis has %d rows, rank is %d", basis.RowsN, ell)
	}
	if basis.ColsN != d {
		t.Fatalf("basis dimension %d, want %d", basis.ColsN, d)
	}
	w := e.ReadWindow(4, obs.SpanContext{})
	if w.Rows == nil || len(w.Tags) != len(w.Rows) {
		t.Fatal("ReadWindow returned inconsistent window")
	}
	if w.Ell != ell {
		t.Fatalf("ReadWindow rank %d != Basis rank %d", w.Ell, ell)
	}
	if w.Basis.RowsN != 4 {
		t.Fatalf("clamped basis has %d rows, want 4", w.Basis.RowsN)
	}
}
