package fabric_test

import (
	"fmt"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// stackedShards stacks every occupied buffer row of every shard of a
// state into one matrix: the sketch Σ BᵢᵀBᵢ that a composed certificate
// describes, with no merge rotation applied.
func stackedShards(st *engine.State) *mat.Matrix {
	var rows [][]float64
	for _, s := range st.Shards {
		if s == nil {
			continue
		}
		fd := &s.FD
		for i := 0; i < len(fd.Kept); i += fd.D {
			rows = append(rows, fd.Kept[i:i+fd.D])
		}
		for i := 0; i < len(fd.Incoming); i += fd.D {
			row := make([]float64, fd.D)
			mat.Widen(row, fd.Incoming[i:i+fd.D])
			rows = append(rows, row)
		}
	}
	return mat.FromRows(rows)
}

// loopbackPair is a fabric engine over n loopback workers and its
// all-local twin, both under ecfg. Closing it closes everything.
type loopbackPair struct {
	local, remote *engine.Engine
	remotes       []*fabric.Remote
	workers       []*fabric.Worker
}

func newLoopbackPair(t *testing.T, n int, ecfg engine.Config) *loopbackPair {
	t.Helper()
	workers, addrs, err := startLoopbackWorkers(n)
	if err != nil {
		t.Fatal(err)
	}
	remote, remotes := newFleetEngine(addrs, ecfg, quietRemote())
	ecfg.Shards = n
	return &loopbackPair{local: engine.New(ecfg), remote: remote, remotes: remotes, workers: workers}
}

func (p *loopbackPair) Close() {
	p.local.Close()
	p.remote.Close()
	for _, w := range p.workers {
		w.Close()
	}
}

// TestLoopbackCertificateMatchesLocal: at 1, 2 and 4 workers, a fabric
// engine's certificate — the composition of the workers' own — equals
// its all-local twin's, ignoring when each was cut, and reading it
// fetches no worker state.
func TestLoopbackCertificateMatchesLocal(t *testing.T) {
	const n, d = 160, 24
	vecs := testVecs(n, d, 17)
	for _, shards := range []int{1, 2, 4} {
		p := newLoopbackPair(t, shards, engine.Config{
			Sketch: sketch.Config{Ell0: 6, Beta: 0.9, Seed: 8},
			Window: 32,
		})
		for lo := 0; lo < n; lo += 20 {
			p.local.IngestVecs(cloneVecs(vecs[lo:lo+20]), nil)
			p.remote.IngestVecs(cloneVecs(vecs[lo:lo+20]), nil)
		}
		lc, rc := p.local.Certificate(), p.remote.Certificate()
		lc.Time, rc.Time = time.Time{}, time.Time{}
		if lc != rc {
			t.Errorf("%d workers: certificates differ:\n local  %+v\n remote %+v", shards, lc, rc)
		}
		if rc.Rows != n {
			t.Errorf("%d workers: certificate covers %d rows, want %d", shards, rc.Rows, n)
		}
		if got := p.remote.Reconciles(); got != 0 {
			t.Errorf("%d workers: %d reconciles, want 0", shards, got)
		}
		p.Close()
	}
}

// recvBytes sums arams_fabric_bytes_recv_total over the first n
// workers' series.
func recvBytes(n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += obs.Default().Counter("arams_fabric_bytes_recv_total", obs.L("worker", fmt.Sprintf("worker%d", i))).Value()
	}
	return sum
}

// TestLoopbackAuditTickFetchesNoState: an audited fabric engine reads a
// certificate from every worker on each audit tick and never its state.
// The same stream run with and without an auditor differs on the wire by
// one certificate reply per worker per tick — under 256 bytes each,
// where one 2ℓ×d state at this width is 128 KiB — merges nothing, and
// leaves every row in the replay logs, which audit ticks no longer trim.
func TestLoopbackAuditTickFetchesNoState(t *testing.T) {
	const workers, n, d, batch, every = 2, 256, 1024, 32, 32
	vecs := testVecs(n, d, 19)
	run := func(aud *audit.Auditor) (recv float64, p *loopbackPair) {
		p = newLoopbackPair(t, workers, engine.Config{
			Sketch:     sketch.Config{Ell0: 8, Beta: 1, Seed: 4},
			Window:     32,
			Audit:      aud,
			AuditEvery: every,
		})
		before := recvBytes(workers)
		for lo := 0; lo < n; lo += batch {
			p.remote.IngestVecs(cloneVecs(vecs[lo:lo+batch]), nil)
		}
		return recvBytes(workers) - before, p
	}
	plain, pp := run(nil)
	pp.Close()
	aud := audit.New(audit.Config{Journal: audit.NewJournal(64), Registry: obs.NewRegistry()})
	audited, pa := run(aud)
	defer pa.Close()

	ticks := n / every
	if got := aud.State().Batches; got != int64(ticks) {
		t.Fatalf("%d audited batches, want %d", got, ticks)
	}
	perReply := (audited - plain) / float64(ticks*workers)
	if perReply <= 0 || perReply > 256 {
		t.Fatalf("an audit tick received %.0f B per worker beyond the unaudited run, want one certificate reply (0, 256]",
			perReply)
	}
	t.Logf("an audit tick receives %.0f B per worker", perReply)
	if got := pa.remote.Reconciles(); got != 0 {
		t.Fatalf("%d reconciles over %d audit ticks, want 0", got, ticks)
	}
	for _, r := range pa.remotes {
		if rows, _ := r.ReplayLog(); rows != n/workers {
			t.Fatalf("%s replay log holds %d rows, want every row it absorbed (%d)", r.Name(), rows, n/workers)
		}
	}
}
