package fabric_test

import (
	"net"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/fabric/fabrictest"
	"arams/internal/sketch"
)

// chaosConfig is the engine setup shared by the chaos tests: Beta=1 so
// the certificate bound can be checked against the exact covariance.
func chaosConfig(shards int) engine.Config {
	return engine.Config{
		Shards: shards,
		Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 7},
		Window: 32,
	}
}

// chaosRemote fails fast so chaos tests finish quickly: short op
// deadlines, two reconnect attempts, tiny backoff, no heartbeats.
func chaosRemote() fabric.RemoteConfig {
	return fabric.RemoteConfig{
		DialTimeout:       500 * time.Millisecond,
		OpTimeout:         time.Second,
		HeartbeatEvery:    -1,
		ReconnectAttempts: 2,
		ReconnectBackoff:  5 * time.Millisecond,
	}
}

// runChaos streams vecs through a 2-shard fabric where shard 1's
// connection passes through the given proxy (shard 0 is direct), with
// fault injects between batches. It then asserts the fault-survival
// invariants the fabric claims: the run is bit-identical to an
// all-local engine with the same configuration and stream, and the
// composed certificate's bound dominates the exact covariance error.
// Returns the proxied remote for fault-specific assertions.
func runChaos(t *testing.T, vecs [][]float64, proxySetup func(p *fabrictest.Proxy), inject func(batch int, p *fabrictest.Proxy)) *fabric.Remote {
	t.Helper()
	const shards = 2
	ecfg := chaosConfig(shards)

	workers, addrs, err := startLoopbackWorkers(shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
	})
	p, err := fabrictest.New(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if proxySetup != nil {
		proxySetup(p)
	}

	eng, remotes := newFleetEngine([]string{addrs[0], p.Addr()}, ecfg, chaosRemote())
	t.Cleanup(func() { eng.Close() })

	local := engine.New(ecfg)
	t.Cleanup(func() { local.Close() })

	n := len(vecs)
	batch := 0
	for lo := 0; lo < n; lo += 16 {
		hi := lo + 16
		if hi > n {
			hi = n
		}
		if inject != nil {
			inject(batch, p)
		}
		eng.IngestVecs(cloneVecs(vecs[lo:hi]), nil)
		local.IngestVecs(cloneVecs(vecs[lo:hi]), nil)
		batch++
	}

	if got := eng.Ingested(); got != n {
		t.Fatalf("fabric ingested %d frames under chaos, want %d", got, n)
	}

	// Bit-exact survival: whatever the fault path (retry, reconnect +
	// replay, or degradation to the in-process fallback), the merged
	// sketch must be identical to the all-local run.
	lg, rg := local.GlobalSketch(), eng.GlobalSketch()
	if lg == nil || rg == nil {
		t.Fatal("nil global sketch after chaos run")
	}
	sameMatrix(t, "global sketch under chaos", lg.Sketch(), rg.Sketch())

	// Composed certificate bound must dominate the exact covariance
	// error under every fault.
	rg = eng.GlobalSketch()
	b := rg.Sketch()
	cert := audit.FromSketch(rg)
	if cert.Rows != n {
		t.Errorf("certificate covers %d rows under chaos, want %d", cert.Rows, n)
	}
	exact := sketch.CovErr(asMatrix(vecs), b)
	if exact > cert.CovBound()+1e-8*(1+cert.FrobMass) {
		t.Errorf("exact covariance error %v exceeds certified bound %v under chaos",
			exact, cert.CovBound())
	}

	return remotes[1]
}

// TestChaosDelay: a slow link is not a fault — added latency within the
// op deadline must not trigger recovery, and results stay bit-exact.
func TestChaosDelay(t *testing.T) {
	vecs := testVecs(192, 16, 31)
	r := runChaos(t, vecs, func(p *fabrictest.Proxy) {
		p.SetDelay(2 * time.Millisecond)
	}, nil)
	if r.Degraded() {
		t.Error("remote degraded on a merely slow link")
	}
}

// TestChaosCorruption: flipped bits on the wire must be caught by the
// frame CRC and repaired by reconnect + replay — never absorbed into
// the sketch. The proxy corrupts a burst mid-stream and then heals.
func TestChaosCorruption(t *testing.T) {
	vecs := testVecs(192, 16, 37)
	seq := audit.Default().Seq()
	r := runChaos(t, vecs, nil, func(batch int, p *fabrictest.Proxy) {
		switch batch {
		case 4:
			p.CorruptEvery(512) // flip a bit every 512 forwarded bytes
		case 6:
			p.CorruptEvery(0) // heal
		}
	})
	// The CRC must have rejected at least one frame; the fabric either
	// reconnected through the noise or degraded — both journaled, both
	// bit-exact (asserted by runChaos).
	recovered := audit.Default().Query(audit.Query{Kind: audit.KindRemoteRecovery, SinceSeq: seq})
	degraded := audit.Default().Query(audit.Query{Kind: audit.KindRemoteDegrade, SinceSeq: seq})
	if len(recovered)+len(degraded) == 0 {
		t.Error("corruption burst left no recovery or degrade events in the journal")
	}
	_ = r
}

// TestChaosPartition: a permanent partition exhausts reconnects and
// must degrade the shard to the in-process fallback — journaled, with
// the stream keeping full coverage (bit-exactness via runChaos).
func TestChaosPartition(t *testing.T) {
	vecs := testVecs(192, 16, 41)
	seq := audit.Default().Seq()
	r := runChaos(t, vecs, nil, func(batch int, p *fabrictest.Proxy) {
		if batch == 5 {
			p.Partition(true) // never heals
		}
	})
	if !r.Degraded() {
		t.Error("remote did not degrade under a permanent partition")
	}
	if evs := audit.Default().Query(audit.Query{Kind: audit.KindRemoteDegrade, SinceSeq: seq}); len(evs) == 0 {
		t.Error("degradation not journaled")
	}
}

// TestChaosMidFrameClose: abrupt connection cuts mid-frame (a torn
// frame, the classic half-written write) must be survived by reconnect
// with restore + replay, bit-exactly.
func TestChaosMidFrameClose(t *testing.T) {
	vecs := testVecs(192, 16, 43)
	runChaos(t, vecs, nil, func(batch int, p *fabrictest.Proxy) {
		switch batch {
		case 3:
			p.CloseAfter(4096) // each new conn dies after 4 KiB
		case 7:
			p.CloseAfter(0)
		}
	})
}

// TestWorkerKillRestart: killing a worker process (its sketcher state
// dies with it) and restarting it on the same port must be survived by
// the unconditional restore + replay reconnect — bit-exactly, without
// degradation once the worker is back.
func TestWorkerKillRestart(t *testing.T) {
	const shards, n, d = 2, 192, 16
	vecs := testVecs(n, d, 47)
	ecfg := chaosConfig(shards)

	w0, err := fabric.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w1, err := fabric.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := w1.Addr()

	eng, remotes := newFleetEngine([]string{w0.Addr(), addr1}, ecfg, chaosRemote())
	defer eng.Close()
	local := engine.New(ecfg)
	defer local.Close()

	seq := audit.Default().Seq()
	var w1b *fabric.Worker
	for lo := 0; lo < n; lo += 16 {
		if lo == 80 {
			// Kill worker 1 (state gone) and restart it on the same port.
			w1.Close()
			ln, err := net.Listen("tcp", addr1)
			if err != nil {
				t.Fatal(err)
			}
			w1b = fabric.ServeWorker(ln)
			defer w1b.Close()
		}
		eng.IngestVecs(cloneVecs(vecs[lo:lo+16]), nil)
		local.IngestVecs(cloneVecs(vecs[lo:lo+16]), nil)
	}

	if remotes[1].Degraded() {
		t.Error("remote degraded although the worker came back")
	}
	if evs := audit.Default().Query(audit.Query{Kind: audit.KindRemoteRecovery, SinceSeq: seq}); len(evs) == 0 {
		t.Error("worker restart recovery not journaled")
	}
	// The restarted worker was rebuilt by restore + replay: absorbs on
	// the new process must cover everything since the last reconcile.
	if w1b.Frames() == 0 {
		t.Error("restarted worker absorbed nothing — replay did not reach it")
	}

	lg, rg := local.GlobalSketch(), eng.GlobalSketch()
	sameMatrix(t, "global sketch across worker restart", lg.Sketch(), rg.Sketch())
}
