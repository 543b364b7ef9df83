package pipeline_test

// Tests for the window-vector ownership rule (see engine.State): a
// state handle shares the window's vectors with the live monitor and
// with every monitor rebuilt from it, so it must stay byte-stable
// whatever any of them goes on to do. Meant to run under -race, where
// a recycled or rewritten shared vector is a reported race and not only
// a changed byte.

import (
	"bytes"
	"sync"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/imgproc"
	"arams/internal/pipeline"
)

func mustMarshal(t *testing.T, s *pipeline.MonitorState) []byte {
	t.Helper()
	b, err := ckpt.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStateStableWhileStreamRunsOn holds one State while two producers
// push three more windows through the monitor — evicting every vector
// the state shares — and a third goroutine keeps encoding the state:
// every encoding equals the first.
func TestStateStableWhileStreamRunsOn(t *testing.T) {
	const window, w, h, batch = 32, 8, 8, 8
	frames := chaosFrames(4*window, w, h, 91)
	cfg := chaosConfig()
	cfg.Shards = 2
	m := pipeline.NewMonitor(cfg, window)
	defer m.Engine().Close()
	m.IngestBatch(frames[:window], nil)

	st := m.State()
	want := mustMarshal(t, st)

	var producers sync.WaitGroup
	rest := frames[window:]
	for p := 0; p < 2; p++ {
		producers.Add(1)
		go func(mine []*imgproc.Image) {
			defer producers.Done()
			for lo := 0; lo < len(mine); lo += batch {
				m.IngestBatch(mine[lo:lo+batch], nil)
			}
		}(rest[p*len(rest)/2 : (p+1)*len(rest)/2])
	}
	done := make(chan struct{})
	go func() {
		producers.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false // one more encoding, after the last eviction
		default:
		}
		got, err := ckpt.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("a held State changed while the stream ran on")
		}
	}
	if got := m.Ingested(); got != len(frames) {
		t.Fatalf("ingested %d frames, want %d", got, len(frames))
	}
}

// TestRestoreTwiceFromOneState rebuilds two monitors from one State —
// both adopt the same vectors — runs the same two windows through each
// and through the monitor the state came from, and requires all three
// to end byte-equal, with the state itself untouched.
func TestRestoreTwiceFromOneState(t *testing.T) {
	const window, w, h, batch = 32, 8, 8, 8
	frames := chaosFrames(3*window, w, h, 92)
	cfg := chaosConfig()
	origin := pipeline.NewMonitor(cfg, window)
	defer origin.Engine().Close()
	origin.IngestBatch(frames[:window], nil)

	st := origin.State()
	want := mustMarshal(t, st)
	ms := []*pipeline.Monitor{origin}
	for i := 0; i < 2; i++ {
		m, err := pipeline.NewMonitorFromState(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Engine().Close()
		ms = append(ms, m)
	}
	var ends [][]byte
	for _, m := range ms {
		for lo := window; lo < len(frames); lo += batch {
			m.IngestBatch(frames[lo:lo+batch], nil)
		}
		ends = append(ends, mustMarshal(t, m.State()))
	}
	if !bytes.Equal(ends[1], ends[2]) {
		t.Error("two monitors restored from one State diverged")
	}
	if !bytes.Equal(ends[0], ends[1]) {
		t.Error("a restored monitor diverged from the one its State came from")
	}
	if !bytes.Equal(mustMarshal(t, st), want) {
		t.Error("restoring from a State and streaming on changed the State")
	}
}
