package engine_test

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// reconcileTestEngine is the 2-shard engine the reconcile-on-read tests
// share.
func reconcileTestEngine(aud *audit.Auditor) *engine.Engine {
	return engine.New(engine.Config{
		Shards:     2,
		Sketch:     sketch.Config{Ell0: 8, Beta: 1, Seed: 5},
		Window:     32,
		Audit:      aud,
		AuditEvery: 32,
	})
}

// TestIngestNeverReconciles: a sharded engine with no reader merges
// nothing, however long it ingests — no rebuild is counted and no
// ingest_batch trace carries a reconcile span.
func TestIngestNeverReconciles(t *testing.T) {
	const batches, batchLen, side = 24, 7, 5 // 7-frame batches mark this test's traces
	e := reconcileTestEngine(nil)
	ims := testImages(batches*batchLen, side, 13)
	for b := 0; b < batches; b++ {
		e.IngestBatch(ims[b*batchLen:(b+1)*batchLen], nil)
	}
	if got := e.Reconciles(); got != 0 {
		t.Fatalf("%d reconciles after %d batches with no reader, want 0", got, batches)
	}
	seen := 0
	for _, tr := range obs.Default().Traces() {
		if tr.Root != "ingest_batch" {
			continue
		}
		mine := false
		for _, sp := range tr.Spans {
			if sp.Parent == 0 && sp.Attrs["shards"] == "2" && sp.Attrs["frames"] == strconv.Itoa(batchLen) {
				mine = true
			}
		}
		if !mine {
			continue
		}
		seen++
		for _, sp := range tr.Spans {
			if sp.Name == "reconcile" || sp.Name == "merge_sketches" {
				t.Fatalf("ingest_batch trace %s carries a %s span", tr.Trace, sp.Name)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no ingest_batch trace of this test retained")
	}
}

// TestReconcileOnReadCachesUntilIngest: the first basis reader after an
// ingest pays for one merge, and every Basis and ReadWindow after it is
// served from the cached basis until the next frame arrives; that frame
// itself merges nothing. GlobalSketch hands out a sketch of its own, so
// it always merges, and it leaves the cached basis as it was. Certificate
// composes the shards' certificates and never merges — neither does the
// audit tick of a sharded engine, which reads it.
func TestReconcileOnReadCachesUntilIngest(t *testing.T) {
	vecs := testVecs(96, 24, 71)
	e := reconcileTestEngine(nil)
	e.IngestVecs(cloneVecs(vecs[:48]), nil)
	want := func(reconciles int, after string) {
		t.Helper()
		if got := e.Reconciles(); got != reconciles {
			t.Fatalf("%s: %d reconciles, want %d", after, got, reconciles)
		}
	}
	readers := func(rows int) {
		t.Helper()
		if basis, _ := e.Basis(4); basis == nil || basis.RowsN != 4 {
			t.Fatal("no 4-row basis after ingest")
		}
		if c := e.Certificate(); c.Rows != rows {
			t.Fatalf("certificate covers %d rows, want %d", c.Rows, rows)
		}
		if w := e.ReadWindow(4, obs.SpanContext{}); w.Basis == nil {
			t.Fatal("no window after ingest")
		}
	}

	readers(48)
	want(1, "first readers after ingest")
	readers(48)
	want(1, "readers with no ingest in between (cache hit)")
	for i := 2; i <= 3; i++ {
		if g := e.GlobalSketch(); g == nil || g.Seen() != 48 {
			t.Fatal("no global sketch of 48 rows")
		}
		want(i, "GlobalSketch")
	}
	readers(48)
	want(3, "readers after GlobalSketch (cache hit)")

	e.IngestVecs(cloneVecs(vecs[48:]), nil)
	want(3, "ingest")
	if c := e.Certificate(); c.Rows != 96 {
		t.Fatalf("certificate after second ingest covers %d rows, want 96", c.Rows)
	}
	want(3, "Certificate after second ingest")
	readers(96)
	want(4, "first basis reader after second ingest")
	readers(96)
	want(4, "readers after that (cache hit)")

	aud := audit.New(audit.Config{Journal: audit.NewJournal(16), Registry: obs.NewRegistry()})
	ea := reconcileTestEngine(aud)
	ea.IngestVecs(cloneVecs(vecs[:16]), nil)
	ea.IngestVecs(cloneVecs(vecs[16:32]), nil) // crosses AuditEvery = 32
	if got, batches := ea.Reconciles(), aud.State().Batches; got != 0 || batches != 1 {
		t.Fatalf("audit tick: %d reconciles over %d audited batches, want 0 and 1", got, batches)
	}
}

// TestAuditedIngestNeverReconciles: an audited 2- and 4-shard engine
// with no reader merges nothing however many audit ticks it crosses,
// and every tick's certificate covers every frame ingested by then.
func TestAuditedIngestNeverReconciles(t *testing.T) {
	const n, d, batch, every = 256, 24, 16, 32
	vecs := testVecs(n, d, 29)
	for _, shards := range []int{2, 4} {
		aud := audit.New(audit.Config{Journal: audit.NewJournal(64), Registry: obs.NewRegistry()})
		e := engine.New(engine.Config{
			Shards:     shards,
			Sketch:     sketch.Config{Ell0: 8, Beta: 1, Seed: 5},
			Window:     32,
			Audit:      aud,
			AuditEvery: every,
		})
		for lo := 0; lo < n; lo += batch {
			e.IngestVecs(cloneVecs(vecs[lo:lo+batch]), nil)
		}
		if got := aud.State().Batches; got != n/every {
			t.Fatalf("%d shards: %d audited batches, want %d", shards, got, n/every)
		}
		if got := e.Reconciles(); got != 0 {
			t.Fatalf("%d shards: %d reconciles after %d audit ticks with no reader, want 0", shards, got, n/every)
		}
		if c := e.Certificate(); c.Rows != n {
			t.Fatalf("%d shards: certificate covers %d rows, want %d", shards, c.Rows, n)
		}
		e.Close()
	}
}

// TestReconcileCadenceInvariant is the cadence-equivalence property
// test: a reconcile only snapshots shard state — it never mutates it —
// so the same stream read never, after every batch, or once at the end
// must finish with a byte-identical global sketch and the same
// certificate.
func TestReconcileCadenceInvariant(t *testing.T) {
	const n, d, batch = 256, 24, 16
	vecs := testVecs(n, d, 71)

	run := func(read func(e *engine.Engine, batch int)) ([]byte, audit.Certificate, int) {
		e := engine.New(engine.Config{
			Shards: 4,
			Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 5},
			Window: 32,
		})
		for lo := 0; lo < n; lo += batch {
			e.IngestVecs(cloneVecs(vecs[lo:lo+batch]), nil)
			read(e, lo/batch)
		}
		during := e.Reconciles()
		g := e.GlobalSketch()
		if g == nil {
			t.Fatal("nil global sketch")
		}
		frame, err := ckpt.Marshal(g.State())
		if err != nil {
			t.Fatal(err)
		}
		cert := e.Certificate()
		cert.Time = time.Time{} // when it was cut, not what it certifies
		return frame, cert, during
	}

	refFrame, refCert, refReads := run(func(*engine.Engine, int) {})
	if refReads != 0 {
		t.Fatalf("unread stream reconciled %d times", refReads)
	}
	for _, tc := range []struct {
		name  string
		read  func(e *engine.Engine, batch int)
		reads int
	}{
		{"every batch", func(e *engine.Engine, _ int) { e.Basis(4); e.Certificate() }, n / batch},
		{"once at the end", func(e *engine.Engine, b int) {
			if b == n/batch-1 {
				e.GlobalSketch()
			}
		}, 1},
	} {
		frame, cert, reads := run(tc.read)
		if reads != tc.reads {
			t.Fatalf("%s: %d reconciles, want %d", tc.name, reads, tc.reads)
		}
		if !bytes.Equal(frame, refFrame) {
			t.Fatalf("%s: global sketch differs from the unread stream's", tc.name)
		}
		if cert != refCert {
			t.Fatalf("%s: certificate %+v, want %+v", tc.name, cert, refCert)
		}
	}
}
