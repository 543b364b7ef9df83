package fabric

// Worker-input tests: requests that decode but that the worker cannot
// apply must answer MsgError with ErrCodeCorrupt and leave the worker
// serving, and FuzzWorkerReply applies arbitrary frames through
// w.reply on a live worker.

import (
	"math"
	"net"
	"testing"
	"time"

	"arams/internal/ckpt"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// newReplyWorker is a worker with no listener, for driving w.reply
// directly: its own obs registry, no hello yet.
func newReplyWorker() *Worker {
	w := &Worker{conns: make(map[net.Conn]struct{}), start: time.Now()}
	w.obsReg.Store(obs.NewRegistry())
	return w
}

// errorCode returns the code of a MsgError reply (0 for any other type).
func errorCode(t *testing.T, resp ckpt.WireFrame) uint32 {
	t.Helper()
	if resp.Type != MsgError {
		return 0
	}
	inner, _ := unwrap(t, resp)
	ep, err := decodeError(inner)
	if err != nil {
		t.Fatalf("error reply does not decode: %v", err)
	}
	return ep.Code
}

// stillServes checks that the worker answers a heartbeat.
func stillServes(t *testing.T, w *Worker) {
	t.Helper()
	if resp := w.reply(ckpt.WireFrame{Type: MsgHeartbeat}); resp.Type != MsgHeartbeatAck {
		t.Fatalf("heartbeat answered with type %d", resp.Type)
	}
}

// TestWorkerRejectsHelloItCannotSketch: a hello with Ell0 0 decodes as
// bytes but names no sketch. The worker answers corrupt and adopts
// nothing, so the ingest behind it finds no backend instead of
// panicking in sketch.NewARAMS.
func TestWorkerRejectsHelloItCannotSketch(t *testing.T) {
	w := newReplyWorker()
	hello := HelloPayload{Shard: 1, Cfg: sketch.Config{Beta: 1}}
	if code := errorCode(t, w.reply(ckpt.WireFrame{Type: MsgHello, Payload: hello.encode()})); code != ErrCodeCorrupt {
		t.Fatalf("hello with Ell0 0 answered code %d, want ErrCodeCorrupt", code)
	}
	if code := errorCode(t, w.reply(ingestFrame(0, 0, [][]float64{{1, 2, 3}}))); code != ErrCodeTransient {
		t.Fatalf("ingest after a refused hello answered code %d, want ErrCodeTransient (no hello)", code)
	}
	stillServes(t, w)
}

// TestWorkerRejectsIngestOfOtherWidth: rows whose width differs from
// the shard's first rows are answered corrupt instead of panicking in
// ProcessBatch, and rows of the shard's own width still absorb.
func TestWorkerRejectsIngestOfOtherWidth(t *testing.T) {
	w, _ := newHandleWorker(t)
	if resp := w.reply(ingestFrame(0, 0, [][]float64{{1, 2, 3}})); resp.Type != MsgIngestAck {
		t.Fatalf("first ingest answered with type %d", resp.Type)
	}
	if code := errorCode(t, w.reply(ingestFrame(0, 0, [][]float64{{1, 2, 3, 4}}))); code != ErrCodeCorrupt {
		t.Fatalf("ingest of width 4 into a width-3 shard answered code %d, want ErrCodeCorrupt", code)
	}
	if resp := w.reply(ingestFrame(0, 0, [][]float64{{4, 5, 6}})); resp.Type != MsgIngestAck {
		t.Fatalf("ingest of the shard's width after a rejected one answered with type %d", resp.Type)
	}
	if got := w.Frames(); got != 2 {
		t.Fatalf("worker absorbed %d rows, want 2", got)
	}
	stillServes(t, w)
}

// TestWorkerRejectsNonFiniteIngest: rows with a NaN or ±Inf element, or
// one past float32's range, are answered corrupt and absorb nothing —
// one would turn the shard's ledgers or its stored rows, and every
// certificate and state it serves, into NaN — and finite rows still
// absorb after them.
func TestWorkerRejectsNonFiniteIngest(t *testing.T) {
	w, _ := newHandleWorker(t)
	// 1e39 is finite in float64 but past float32's range, where the
	// sketch holds its incoming rows.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e39, -1e39} {
		if code := errorCode(t, w.reply(ingestFrame(0, 0, [][]float64{{1, 2, 3}, {4, bad, 6}}))); code != ErrCodeCorrupt {
			t.Fatalf("ingest with a %v element answered code %d, want ErrCodeCorrupt", bad, code)
		}
	}
	if resp := w.reply(ingestFrame(0, 0, [][]float64{{4, 5, 6}})); resp.Type != MsgIngestAck {
		t.Fatalf("finite ingest after rejected ones answered with type %d", resp.Type)
	}
	if got := w.Frames(); got != 1 {
		t.Fatalf("worker absorbed %d rows, want 1", got)
	}
	stillServes(t, w)
}

// FuzzWorkerReply applies every frame the worker decodes: a request of
// any type with any payload, sent to a worker holding a hello and one
// ingest, must be answered in the reply form, never by a panic, and the
// worker must go on answering ingest, reconcile, certificate and
// heartbeat requests after it.
func FuzzWorkerReply(f *testing.F) {
	valid := HelloPayload{Shard: 1, Cfg: sketch.Config{Ell0: 4, Beta: 1}}.encode()
	row := IngestPayload{D: 3, Rows: [][]float64{{1, 2, 3}}}.encode()
	// The two frames that used to kill a worker.
	f.Add(MsgHello, HelloPayload{Shard: 1, Cfg: sketch.Config{Beta: 1}}.encode())
	f.Add(MsgIngest, IngestPayload{D: 4, Rows: [][]float64{{1, 2, 3, 4}}}.encode())
	f.Add(MsgIngest, IngestPayload{D: 3, Rows: [][]float64{{1, math.NaN(), 3}}}.encode())
	f.Add(MsgHello, HelloPayload{Shard: 2, Cfg: sketch.Config{Ell0: 3, Nu: 2, Eps: 0.5, Beta: 0.5, RankAdaptive: true}}.encode())
	f.Add(MsgIngest, IngestPayload{D: 3, Rows: [][]float64{{4, 5, 6}, {7, 8, 9}}}.encode())
	a := sketch.NewARAMS(sketch.Config{Ell0: 4, Beta: 1}, 3, 0)
	a.ProcessBatch(mat.FromRows([][]float64{{1, 0, 2}, {0, 1, 1}}))
	if frame, err := ckpt.Marshal(a.State()); err == nil {
		f.Add(MsgRestore, frame)
	}
	f.Add(MsgRestore, []byte{})
	for _, typ := range []uint32{MsgReconcile, MsgCertificateReq, MsgHeartbeat, MsgStatsReq, 99} {
		f.Add(typ, []byte{})
	}
	f.Add(MsgFlightReq, FlightReqPayload{ID: "beef", Reason: "fuzz"}.encode())

	f.Fuzz(func(t *testing.T, typ uint32, payload []byte) {
		w := newReplyWorker()
		apply := func(typ uint32, payload []byte) ckpt.WireFrame {
			resp := w.reply(ckpt.WireFrame{Type: typ, Payload: payload})
			if _, _, err := unwrapReply(resp.Payload); err != nil {
				t.Fatalf("reply of type %d to request %d is not in the reply form: %v", resp.Type, typ, err)
			}
			return resp
		}
		apply(MsgHello, valid)
		apply(MsgIngest, row)
		apply(typ, payload)
		apply(MsgIngest, row)
		apply(MsgReconcile, nil)
		apply(MsgCertificateReq, nil)
		if resp := apply(MsgHeartbeat, nil); resp.Type != MsgHeartbeatAck {
			t.Fatalf("heartbeat answered with type %d", resp.Type)
		}
	})
}

// TestWorkerDropsStalledFrame: a peer that writes part of a header and
// stalls loses its connection once the started frame outruns
// frameDeadline, while an idle connection that has sent nothing is kept.
func TestWorkerDropsStalledFrame(t *testing.T) {
	defer func(d time.Duration) { frameDeadline = d }(frameDeadline)
	frameDeadline = 20 * time.Millisecond
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	idle, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	stalled, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write(ckpt.EncodeWireFrame(ckpt.WireFrame{Type: MsgHeartbeat})[:10]); err != nil {
		t.Fatal(err)
	}
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := stalled.Read(make([]byte, 1)); err == nil {
		t.Fatalf("stalled frame answered %d bytes, want the connection closed", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("worker kept a connection stalled mid-frame for 10 s")
	}
	idle.SetReadDeadline(time.Now().Add(60 * time.Millisecond))
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection received bytes it never asked for")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("idle connection was closed between frames: %v", err)
	}
}
