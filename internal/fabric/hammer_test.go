package fabric_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/sketch"
)

// TestFabricRaceHammer drives everything at once — an ingest producer,
// hot snapshot/checkpoint/certificate readers, millisecond
// heartbeats, and a worker kill/restart in the middle — and is run
// under -race in CI (scripts/fabric_smoke.sh). Interleaving is
// nondeterministic, so assertions are conservation properties: every
// row lands exactly once and the merged sketch stays finite.
func TestFabricRaceHammer(t *testing.T) {
	const (
		shards  = 3
		streams = 4
		batches = 24
		rows    = 8
		d       = 12
	)

	workers, addrs, err := startLoopbackWorkers(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.Close()
			}
		}
	}()
	eng, _ := newFleetEngine(addrs, engine.Config{
		Shards: shards,
		Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 29},
		Window: 64,
	}, fabric.RemoteConfig{
		DialTimeout:       time.Second,
		OpTimeout:         2 * time.Second,
		HeartbeatEvery:    time.Millisecond, // hammer the connection lock
		ReconnectAttempts: 5,
		ReconnectBackoff:  time.Millisecond,
	})
	defer eng.Close()

	var wg, readerWg sync.WaitGroup
	stop := make(chan struct{})

	// Hot readers: snapshots, checkpoints, certificates, rank probes.
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := eng.GlobalSketch(); g != nil && g.Sketch().HasNaN() {
				t.Error("global sketch went non-finite mid-hammer")
				return
			}
			eng.State()
			eng.Certificate()
			eng.Ell()
		}
	}()

	// The producer: four deterministic streams, one after another.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pr := 0; pr < streams; pr++ {
			vecs := testVecs(batches*rows, d, uint64(100+pr))
			for b := 0; b < batches; b++ {
				eng.IngestVecs(cloneVecs(vecs[b*rows:(b+1)*rows]), nil)
			}
		}
	}()

	// Mid-run: kill worker 1 and bring it back on the same port while
	// the producer and heartbeats are pounding it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		addr := workers[1].Addr()
		workers[1].Close()
		var ln net.Listener
		for i := 0; i < 50; i++ {
			if ln, err = net.Listen("tcp", addr); err == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if ln == nil {
			t.Errorf("could not rebind worker port: %v", err)
			workers[1] = nil
			return
		}
		workers[1] = fabric.ServeWorker(ln)
	}()

	// The producer finishes, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer wedged")
	}
	close(stop)
	readerWg.Wait()

	if got, want := eng.Ingested(), streams*batches*rows; got != want {
		t.Errorf("ingested %d rows, want %d — rows lost or double-counted under load", got, want)
	}
	g := eng.GlobalSketch()
	if g == nil {
		t.Fatal("nil global sketch after hammer")
	}
	if g.Sketch().HasNaN() {
		t.Error("final merged sketch is non-finite")
	}
	if g.Seen() != streams*batches*rows {
		t.Errorf("global sketch saw %d rows, want %d", g.Seen(), streams*batches*rows)
	}
}
