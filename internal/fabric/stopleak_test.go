package fabric_test

import (
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/fabric/fabrictest"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// TestStopDuringHungReconcile runs the production recovery ladder
// against a worker link that suddenly stalls in the middle of a
// reconcile. The stalled fetch is recovered by the Remote alone: its
// RPCs time out at OpTimeout, the reconnect stalls too, and the shard
// degrades to its bit-exact local sketcher, so the reconcile returns
// the all-local engine's global sketch bit for bit. The degrade is
// journaled and dumped by the flight recorder, and — because every
// fabric I/O runs under a connection deadline — no goroutine outlives
// the recovery.
func TestStopDuringHungReconcile(t *testing.T) {
	const opTimeout = 400 * time.Millisecond

	flightDir := t.TempDir()
	fr, err := obs.Default().ArmFlightRecorder(obs.FlightConfig{
		Dir: flightDir, Cooldown: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	workers, addrs, err := startLoopbackWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	p, err := fabrictest.New(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ecfg := engine.Config{
		Shards: 2,
		Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 13},
		Window: 32,
	}
	eng, _ := newFleetEngine([]string{addrs[0], p.Addr()}, ecfg, fabric.RemoteConfig{
		DialTimeout:       200 * time.Millisecond,
		OpTimeout:         opTimeout,
		HeartbeatEvery:    -1, // deterministic goroutine accounting
		ReconnectAttempts: 1,
		ReconnectBackoff:  time.Millisecond,
	})
	defer eng.Close()

	vecs := testVecs(64, 16, 53)
	eng.IngestVecs(cloneVecs(vecs), nil)
	local := engine.New(ecfg)
	defer local.Close()
	local.IngestVecs(cloneVecs(vecs), nil)
	want := local.GlobalSketch()
	if want == nil {
		t.Fatal("all-local engine has no global sketch")
	}

	baseline := runtime.NumGoroutine()
	seq := audit.Default().Seq()

	// Stall the link: every chunk now takes far longer than OpTimeout, so
	// the reconcile's fetch from shard 1 hangs at the wire, and so does
	// the reconnect that follows it.
	p.SetDelay(2 * opTimeout)

	var got *sketch.FrequentDirections
	reconcileDone := make(chan struct{})
	go func() {
		defer close(reconcileDone)
		got = eng.GlobalSketch()
	}()
	time.Sleep(20 * time.Millisecond) // let the reconcile reach the hung leg

	select {
	case <-reconcileDone:
		t.Error("reconcile finished before its deadline; the stalled fetch was not pending")
	default:
	}

	// One stalled fetch plus one stalled reconnect, each cut at OpTimeout,
	// then the degrade.
	select {
	case <-reconcileDone:
	case <-time.After(2*opTimeout + time.Second):
		t.Fatal("reconcile still pending long after the ladder's deadlines — pending leg leaked")
	}
	if got == nil {
		t.Fatal("no global sketch from the degraded reconcile")
	}
	if !reflect.DeepEqual(got.Sketch().Data, want.Sketch().Data) || got.Seen() != want.Seen() {
		t.Error("degraded reconcile differs from the all-local engine's global sketch")
	}

	if evs := audit.Default().Query(audit.Query{Kind: audit.KindRemoteDegrade, SinceSeq: seq}); len(evs) == 0 {
		t.Error("degrade of the stalled shard not journaled")
	}
	// FlightTrigger("fabric_degrade") must have produced a dump of the
	// stalled leg's telemetry.
	dumps := func() int {
		files, _ := os.ReadDir(flightDir)
		return len(files)
	}
	deadline := time.Now().Add(2 * time.Second)
	for dumps() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if dumps() == 0 {
		t.Error("flight recorder captured no dump for the degraded shard")
	}

	// The proxy goroutines still forwarding the stalled chunks are bounded
	// by their delay and the closed connections: they must exit on their
	// own, leaving no leak behind.
	deadline = time.Now().Add(2*opTimeout + 2*time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if ng := runtime.NumGoroutine(); ng > baseline {
		t.Errorf("%d goroutines alive after recovery window, baseline %d — fetch leg leaked", ng, baseline)
	}
}
