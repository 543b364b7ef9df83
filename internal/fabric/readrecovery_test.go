package fabric_test

import (
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/fabric/fabrictest"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// readRig is one worker behind a chaos proxy, a Remote dialed through
// the proxy, and an in-process twin shard fed the same rows.
type readRig struct {
	p    *fabrictest.Proxy
	r    *fabric.Remote
	twin engine.Backend
	// hello is the proxied traffic of the dial: what one reconnect's
	// Hello round trip costs.
	hello int64
}

func newReadRig(t *testing.T) *readRig {
	t.Helper()
	workers, addrs, err := startLoopbackWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fabrictest.New(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	scfg := sketch.Config{Ell0: 8, Beta: 1, Seed: 17}
	g := &readRig{p: p, twin: engine.NewLocalBackend(scfg)}
	g.r = fabric.DialRemote("w0", p.Addr(), 0, scfg, quietRemote())
	t.Cleanup(func() {
		g.r.Close()
		p.Close()
		workers[0].Close()
	})
	g.hello = g.settled()
	vecs := testVecs(40, 64, 29)
	if _, err := g.r.Absorb(obs.SpanContext{}, cloneVecs(vecs), nil); err != nil {
		t.Fatal(err)
	}
	g.twin.Absorb(obs.SpanContext{}, cloneVecs(vecs), nil) // local backends cannot fail
	return g
}

// settled returns the proxy's forwarded byte count once it stops moving:
// the proxy counts a chunk after writing it on, so the count can trail
// the RPC that carried it.
func (g *readRig) settled() int64 {
	for {
		n := g.p.Bytes()
		time.Sleep(20 * time.Millisecond)
		if g.p.Bytes() == n {
			return n
		}
	}
}

// cut severs the live connection, so the next RPC fails, and lets new
// connections through again.
func (g *readRig) cut() {
	g.p.Partition(true)
	g.p.Partition(false)
}

// TestRemoteReadsRecoverTheirOwnFaults: a read on a Remote recovers its
// own faults, so the one fetch a merge makes of it returns the shard's
// bits, never a transient error.
func TestRemoteReadsRecoverTheirOwnFaults(t *testing.T) {
	t.Run("refetch after reconnect", func(t *testing.T) {
		g := newReadRig(t)
		// A first Snapshot sets the replay baseline and measures one state
		// fetch's traffic.
		before := g.settled()
		if _, err := g.r.Snapshot(obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		fetch := g.settled() - before
		if fetch < 4096 {
			t.Fatalf("state fetch moved %d bytes, too few to place a cut inside it", fetch)
		}
		// A reconnect is Hello plus Restore of that baseline (the same state
		// bytes, the other way); every connection from here is cut halfway
		// through the state fetch that follows it.
		g.p.CloseAfter(g.hello + fetch + fetch/2)
		g.cut()
		seq := audit.Default().Seq()

		got, err := g.r.Snapshot(obs.SpanContext{})
		if err != nil {
			t.Fatalf("Snapshot returned %v; a read must recover its own faults", err)
		}
		if evs := audit.Default().Query(audit.Query{Kind: audit.KindRemoteRecovery, SinceSeq: seq}); len(evs) == 0 {
			t.Error("no reconnect succeeded; the cut did not land on the re-fetch")
		}
		if !g.r.Degraded() {
			t.Error("every re-fetch was cut, yet the Remote did not degrade")
		}
		want, _ := g.twin.Snapshot(obs.SpanContext{})
		if got.Seen() != want.Seen() {
			t.Fatalf("remote saw %d rows, in-process shard %d", got.Seen(), want.Seen())
		}
		sameMatrix(t, "snapshot after a cut re-fetch", want.Sketch(), got.Sketch())
	})

	t.Run("certificate", func(t *testing.T) {
		g := newReadRig(t)
		g.cut()
		got, err := g.r.Certificate()
		if err != nil {
			t.Fatalf("Certificate returned %v; a read must recover its own faults", err)
		}
		if g.r.Degraded() {
			t.Error("remote degraded although the reconnect could succeed")
		}
		want, _ := g.twin.Certificate()
		got.Time, want.Time = time.Time{}, time.Time{} // when each was cut
		if got != want {
			t.Errorf("certificate %+v, in-process shard %+v", got, want)
		}
	})
}
