package fabric_test

// The replay log's bound is the Remote's own: nothing above it has to
// read a shard for the log to stay short. These tests drive a Remote with
// no reader at all, kill its worker right after a self-trim, and fail the
// self-trim's state fetch.

import (
	"crypto/sha256"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/obs"
	"arams/internal/sketch"
)

const replayBatch = 32

// baselineRows is how many stream rows a replay baseline covers.
func baselineRows(t *testing.T, st *sketch.ARAMSState) int {
	t.Helper()
	if st == nil {
		return 0
	}
	a, err := sketch.NewARAMSFromState(*st)
	if err != nil {
		t.Fatal(err)
	}
	return a.FD().Seen()
}

// TestReplayLogBoundedWithoutReader: a Remote that absorbs four times
// the cap and is never read keeps its log under cap + one dispatch, and
// every trim moves the replay baseline up to the rows absorbed so far.
func TestReplayLogBoundedWithoutReader(t *testing.T) {
	workers, addrs, err := startLoopbackWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	defer workers[0].Close()
	scfg := sketch.Config{Ell0: 8, Beta: 1, Seed: 5}
	r := fabric.DialRemote("w0", addrs[0], 0, scfg, quietRemote())
	defer r.Close()

	const n = 4 * fabric.ReplayLogCap
	vecs := testVecs(n, 16, 91)
	trims, covered := 0, 0
	for lo := 0; lo < n; lo += replayBatch {
		if _, err := r.Absorb(obs.SpanContext{}, vecs[lo:lo+replayBatch], nil); err != nil {
			t.Fatal(err)
		}
		rows, base := r.ReplayLog()
		if rows > fabric.ReplayLogCap+replayBatch {
			t.Fatalf("after %d rows the replay log holds %d, cap is %d + one %d-row dispatch",
				lo+replayBatch, rows, fabric.ReplayLogCap, replayBatch)
		}
		if got := baselineRows(t, base); got != covered {
			trims++
			if got != lo+replayBatch || rows != 0 {
				t.Fatalf("trim after %d rows: baseline covers %d rows with %d still logged", lo+replayBatch, got, rows)
			}
			covered = got
		}
	}
	if trims != 4 || covered != n {
		t.Fatalf("%d self-trims covering %d rows, want 4 covering %d", trims, covered, n)
	}
	if r.Degraded() {
		t.Fatal("remote degraded on a clean run")
	}
}

// TestReplayLogKillAfterSelfTrim: a worker killed right after a
// self-trim — empty log, baseline just fetched — is rebuilt from that
// baseline, and the stream ends with the digest of the same stream run
// uninterrupted (TestGoldenLoopbackGlobalSketchDigest's narrow shape,
// long enough for each shard to trim).
func TestReplayLogKillAfterSelfTrim(t *testing.T) {
	const n = 3 * fabric.ReplayLogCap // 1.5 caps per shard
	vecs := testVecs(n, 24, 81)

	run := func(kill bool) [sha256.Size]byte {
		w0, err := fabric.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w0.Close()
		w1, err := fabric.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { w1.Close() }()
		eng, remotes := newFleetEngine([]string{w0.Addr(), w1.Addr()}, engine.Config{
			Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 5},
			Window: 32,
		}, chaosRemote())
		defer eng.Close()

		seq := audit.Default().Seq()
		killed := false
		for lo := 0; lo < n; lo += replayBatch {
			eng.IngestVecs(cloneVecs(vecs[lo:lo+replayBatch]), nil)
			if rows, base := remotes[1].ReplayLog(); kill && !killed && rows == 0 && base != nil {
				// Shard 1 has just trimmed itself: its worker dies here and
				// comes back, stateless, on the same port.
				killed = true
				addr := w1.Addr()
				w1.Close()
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				w1 = fabric.ServeWorker(ln)
			}
		}
		if kill {
			if !killed {
				t.Fatal("shard 1 never self-trimmed; nothing was killed")
			}
			if evs := audit.Default().Query(audit.Query{Kind: audit.KindRemoteRecovery, SinceSeq: seq}); len(evs) == 0 {
				t.Error("worker restart recovery not journaled")
			}
		}
		if got := eng.Reconciles(); got != 0 {
			t.Fatalf("%d reconciles before the first read, want 0", got)
		}
		for _, r := range remotes {
			if r.Degraded() {
				t.Fatalf("%s degraded although its worker was reachable", r.Name())
			}
		}
		g := eng.GlobalSketch()
		if g == nil || g.Seen() != n {
			t.Fatalf("global sketch missing or short: %v", g)
		}
		frame, err := ckpt.Marshal(g.State())
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(frame)
	}

	if clean, killed := run(false), run(true); clean != killed {
		t.Fatalf("digest after a kill following a self-trim %x, uninterrupted %x", killed, clean)
	}
}

// fetchCutter relays wire frames between a Remote and a worker and, while
// cut is set, drops the connection on every state fetch — the one RPC a
// self-trim adds to an Absorb.
type fetchCutter struct {
	ln     net.Listener
	target string
	cut    atomic.Bool
	cuts   atomic.Int64
	wg     sync.WaitGroup
}

func newFetchCutter(t *testing.T, target string) *fetchCutter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fetchCutter{ln: ln, target: target}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			f.wg.Add(1)
			go f.relay(c)
		}
	}()
	return f
}

// relay serves one connection until either side drops it.
func (f *fetchCutter) relay(c net.Conn) {
	defer f.wg.Done()
	defer c.Close()
	up, err := net.Dial("tcp", f.target)
	if err != nil {
		return
	}
	defer up.Close()
	for {
		req, err := ckpt.ReadWireFrame(c)
		if err != nil {
			return
		}
		if req.Type == fabric.MsgReconcile && f.cut.Load() {
			f.cuts.Add(1)
			return
		}
		if ckpt.WriteWireFrame(up, req) != nil {
			return
		}
		resp, err := ckpt.ReadWireFrame(up)
		if err != nil || ckpt.WriteWireFrame(c, resp) != nil {
			return
		}
	}
}

// TestReplayLogFailedSelfTrim: when the self-trim's state fetch fails —
// on the first try and again after the reconnect it provokes — the Absorb
// that triggered it still succeeds with its own rows' stats, the log keeps
// every row, and the next Absorb that finds the link healthy trims. The
// sketch ends bit-identical to an in-process shard fed the same rows.
func TestReplayLogFailedSelfTrim(t *testing.T) {
	workers, addrs, err := startLoopbackWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	defer workers[0].Close()
	front := newFetchCutter(t, addrs[0])
	scfg := sketch.Config{Ell0: 8, Beta: 1, Seed: 5}
	r := fabric.DialRemote("w0", front.ln.Addr().String(), 0, scfg, quietRemote())
	defer func() {
		r.Close()
		front.ln.Close()
		front.wg.Wait()
	}()
	mirror := engine.NewLocalBackend(scfg)

	const n = fabric.ReplayLogCap + 2*replayBatch
	vecs := testVecs(n, 16, 93)
	absorb := func(lo int) {
		t.Helper()
		got, err := r.Absorb(obs.SpanContext{}, vecs[lo:lo+replayBatch], nil)
		if err != nil {
			t.Fatalf("Absorb of rows %d.. failed: %v", lo, err)
		}
		want, _ := mirror.Absorb(obs.SpanContext{}, vecs[lo:lo+replayBatch], nil) // local backends cannot fail
		if got != want {
			t.Fatalf("Absorb of rows %d..: stats %+v, in-process shard reports %+v", lo, got, want)
		}
	}

	lo := 0
	for ; lo < fabric.ReplayLogCap-replayBatch; lo += replayBatch {
		absorb(lo)
	}
	front.cut.Store(true)
	for ; lo < fabric.ReplayLogCap+replayBatch; lo += replayBatch {
		absorb(lo) // reaches the cap; the fetch is cut, twice
		if rows, base := r.ReplayLog(); rows != lo+replayBatch || base != nil {
			t.Fatalf("failed self-trim left %d logged rows (baseline set: %v), want all %d and none",
				rows, base != nil, lo+replayBatch)
		}
	}
	if front.cuts.Load() < 2 {
		t.Fatalf("%d state fetches cut, want the first try and the retry at least", front.cuts.Load())
	}
	front.cut.Store(false)
	absorb(lo)
	if rows, base := r.ReplayLog(); rows != 0 || baselineRows(t, base) != n {
		t.Fatalf("healed link: %d rows still logged, baseline covers %d of %d", rows, baselineRows(t, base), n)
	}
	if r.Degraded() {
		t.Fatal("remote degraded although every reconnect succeeded")
	}

	got, err := r.Snapshot(obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mirror.Snapshot(obs.SpanContext{})
	if got.Seen() != n || want.Seen() != n {
		t.Fatalf("rows lost or doubled: remote saw %d, mirror %d, fed %d", got.Seen(), want.Seen(), n)
	}
	sameMatrix(t, "sketch after failed self-trims", want.Sketch(), got.Sketch())
}
