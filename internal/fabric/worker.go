package fabric

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// Worker-side observability.
var (
	obsWorkerConns    = obs.Default().Counter("arams_fabric_worker_conns_total")
	obsWorkerFrames   = obs.Default().Counter("arams_fabric_worker_frames_total")
	obsWorkerRPCs     = obs.Default().Counter("arams_fabric_worker_rpc_total")
	obsWorkerRPCErrs  = obs.Default().Counter("arams_fabric_worker_rpc_errors_total")
	obsWorkerRestores = obs.Default().Counter("arams_fabric_worker_restores_total")
)

// Worker serves one shard's sketching over TCP: it accepts coordinator
// connections, absorbs ingested rows into an in-process shard backend,
// and answers reconcile fetches with its checkpointable state. The
// sketcher survives connection loss — a reconnecting coordinator
// re-establishes exact state with MsgRestore + row replay regardless,
// so a restarted worker process (fresh, empty) and a surviving worker
// behave identically after recovery.
//
// A worker needs no sketch configuration of its own: the coordinator's
// Hello carries the shard-derived config. Connections are served
// concurrently; the backend serializes absorbs under its own lock and
// the coordinator serializes RPCs per connection, so one coordinator
// sees strict request/response order.
type Worker struct {
	ln net.Listener

	mu      sync.Mutex
	backend engine.Backend
	cfg     sketch.Config
	haveCfg bool
	shard   uint32
	// dim is the row width of the backend's sketch: fixed by its first
	// ingested rows or by the state it was restored from, 0 before.
	dim int

	// conns tracks live connections (guarded by mu) so Close can tear
	// them down — serve() blocks in Read with no deadline otherwise.
	conns map[net.Conn]struct{}

	frames   atomic.Int64
	inflight atomic.Int64 // requests currently inside handle()
	start    time.Time
	closed   atomic.Bool
	wg       sync.WaitGroup

	// obsReg is the registry this worker reports through — spans for
	// traced requests, the stats snapshot, the flight recorder fan-out.
	// Defaults to obs.Default(); tests inject their own to keep worker
	// and coordinator observability separate in one process.
	obsReg atomic.Pointer[obs.Registry]
}

// NewWorker starts a worker listening on addr (host:port; use port 0
// for an ephemeral port, then read Addr()). Serving starts immediately
// in the background.
func NewWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	return ServeWorker(ln), nil
}

// ServeWorker starts a worker on an existing listener (tests use this
// to pin a port across a kill/restart). The worker owns the listener.
func ServeWorker(ln net.Listener) *Worker {
	w := &Worker{ln: ln, conns: make(map[net.Conn]struct{}), start: time.Now()}
	w.obsReg.Store(obs.Default())
	w.wg.Add(1)
	go w.acceptLoop()
	return w
}

// Addr returns the listener's address (dial this).
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// SetObsRegistry redirects the worker's observability — request spans,
// fleet-stats snapshots, flight-recorder fan-out — to the given
// registry (default obs.Default()). In-process harnesses use this so
// worker-side state does not mix with the coordinator's registry.
func (w *Worker) SetObsRegistry(r *obs.Registry) {
	if r != nil {
		w.obsReg.Store(r)
	}
}

func (w *Worker) obs() *obs.Registry { return w.obsReg.Load() }

// Frames returns how many rows this worker has absorbed since start
// (replays included).
func (w *Worker) Frames() int { return int(w.frames.Load()) }

// Close stops the listener and tears down every live connection. The
// sketcher state is discarded with the process; coordinators recover
// via restore + replay.
func (w *Worker) Close() error {
	w.closed.Store(true)
	err := w.ln.Close()
	w.mu.Lock()
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return err
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		obsWorkerConns.Inc()
		w.mu.Lock()
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer func() {
				conn.Close()
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
			}()
			w.serve(conn)
		}()
	}
}

// frameDeadline bounds one started frame: once a request's first byte
// has arrived, reading the rest of it, handling it and writing the reply
// must finish within it, or the worker drops the connection. A
// coordinator gives up on an RPC after its OpTimeout (5 s by default)
// and reconnects, so a frame still unfinished at six times that is one
// no coordinator waits for: a peer stalled mid-frame then costs a
// goroutine and a connection for this long, not until Close. Idle time
// between frames stays unbounded, since heartbeats may be off. A
// variable only so a test can shorten it.
var frameDeadline = 30 * time.Second

// serve handles one connection's request/response loop. Transport-level
// errors (torn frames, checksum mismatches — the stream is desynced, or
// a frame that outran frameDeadline) drop the connection; request-level
// errors answer with MsgError and keep serving.
func (w *Worker) serve(conn net.Conn) {
	br := bufio.NewReader(conn)
	for !w.closed.Load() {
		// Only a closed connection refuses a deadline.
		if conn.SetDeadline(time.Time{}) != nil {
			return
		}
		if _, err := br.Peek(1); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !w.closed.Load() {
				obsWorkerRPCErrs.Inc()
			}
			return
		}
		if conn.SetDeadline(time.Now().Add(frameDeadline)) != nil {
			return
		}
		req, err := ckpt.ReadWireFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !w.closed.Load() {
				obsWorkerRPCErrs.Inc()
			}
			return
		}
		obsWorkerRPCs.Inc()
		w.inflight.Add(1)
		resp := w.reply(req)
		w.inflight.Add(-1)
		if err := ckpt.WriteWireFrame(conn, resp); err != nil {
			obsWorkerRPCErrs.Inc()
			return
		}
	}
}

// reply answers one request frame: the handler's response in the reply
// form — inner payload, then the worker's span records for the request
// — echoing the request's sequence number and trace identity.
func (w *Worker) reply(req ckpt.WireFrame) ckpt.WireFrame {
	resp, recs := w.handle(req)
	resp.Seq, resp.Trace, resp.Span = req.Seq, req.Trace, req.Span
	resp.Payload = wrapReply(resp.Payload, recs)
	return resp
}

// spanNames names the worker span each sketch-touching request opens
// under the coordinator's RPC span; the other requests open none.
var spanNames = map[uint32]string{
	MsgIngest:         "worker_absorb",
	MsgReconcile:      "worker_state",
	MsgRestore:        "worker_restore",
	MsgCertificateReq: "worker_certificate",
}

// reqSpan is a request's worker-side span. It is nil for an untraced
// request, and every method is a no-op on nil, so handle decides once
// whether a request is traced.
type reqSpan struct {
	sp obs.Span
}

// count attaches a count attribute (rows, bytes) to the span.
func (s *reqSpan) count(key string, n int) {
	if s != nil {
		s.sp.SetAttr(key, fmt.Sprint(n))
	}
}

// end finishes the span, marking err on it, and returns the records
// the reply carries: the span's own, or none when untraced.
func (s *reqSpan) end(err error) []obs.SpanRecord {
	if s == nil {
		return nil
	}
	if err != nil {
		s.sp.SetAttr("error", err.Error())
	}
	return []obs.SpanRecord{s.sp.EndRecord()}
}

// requestError is a request-level failure: the worker answers MsgError
// with its code and keeps the connection.
type requestError struct {
	code uint32
	err  error
}

// handle serves one request frame and returns the response (type and
// inner payload) with the worker's span records for it. A traced
// request to a sketch-touching handler opens a worker span under the
// coordinator's RPC span, and that span rides back on the response,
// MsgError included.
func (w *Worker) handle(req ckpt.WireFrame) (ckpt.WireFrame, []obs.SpanRecord) {
	var sp *reqSpan
	if name, ok := spanNames[req.Type]; ok && req.Trace != 0 {
		_, shard := w.current()
		parent := obs.SpanContext{Trace: obs.ID(req.Trace), Span: obs.ID(req.Span)}
		sp = &reqSpan{sp: w.obs().StartSpanIn(parent, name, obs.L("shard", fmt.Sprint(shard)))}
	}
	resp, rerr := w.dispatch(req, sp)
	var err error
	if rerr != nil {
		err = rerr.err
		obsWorkerRPCErrs.Inc()
		resp = ckpt.WireFrame{Type: MsgError,
			Payload: ErrorPayload{Code: rerr.code, Msg: err.Error()}.encode()}
	}
	return resp, sp.end(err)
}

// dispatch runs the handler for req's type inside sp.
func (w *Worker) dispatch(req ckpt.WireFrame, sp *reqSpan) (ckpt.WireFrame, *requestError) {
	switch req.Type {
	case MsgHello:
		hello, err := decodeHello(req.Payload)
		if err != nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeCorrupt, err}
		}
		w.mu.Lock()
		w.shard = hello.Shard
		if !w.haveCfg || w.cfg != hello.Cfg {
			// First hello, or a coordinator with a different shard
			// config: adopt it and start fresh. A same-config reconnect
			// keeps the live sketcher (the coordinator restores state
			// explicitly anyway).
			w.cfg = hello.Cfg
			w.haveCfg = true
			w.backend = engine.NewLocalBackend(hello.Cfg)
			w.dim = 0
		}
		w.mu.Unlock()
		return ckpt.WireFrame{Type: MsgHelloAck, Payload: hello.encode()}, nil

	case MsgIngest:
		p, err := decodeIngest(req.Payload)
		if err != nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeCorrupt, err}
		}
		sp.count("rows", len(p.Rows))
		b, rerr := w.ingestBackend(p)
		if rerr != nil {
			return ckpt.WireFrame{}, rerr
		}
		stats, err := b.Absorb(obs.SpanContext{}, p.Rows, nil)
		if err != nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeTransient, err}
		}
		w.frames.Add(int64(len(p.Rows)))
		obsWorkerFrames.Add(float64(len(p.Rows)))
		return ckpt.WireFrame{Type: MsgIngestAck,
			Payload: IngestAckPayload{Stats: stats, Ell: b.Ell()}.encode()}, nil

	case MsgReconcile:
		b, _ := w.current()
		if b == nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeTransient, errNoHello}
		}
		st, err := b.State()
		if err != nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeTransient, err}
		}
		// Empty payload means no rows yet.
		var payload []byte
		if st != nil {
			if payload, err = ckpt.Marshal(st); err != nil {
				return ckpt.WireFrame{}, &requestError{ErrCodeFatal, err}
			}
		}
		sp.count("bytes", len(payload))
		return ckpt.WireFrame{Type: MsgSketchState, Payload: payload}, nil

	case MsgRestore:
		sp.count("bytes", len(req.Payload))
		w.mu.Lock()
		defer w.mu.Unlock()
		if !w.haveCfg {
			return ckpt.WireFrame{}, &requestError{ErrCodeTransient, errNoHello}
		}
		b := engine.NewLocalBackend(w.cfg)
		dim := 0
		// An empty payload is an explicit reset to a fresh sketcher.
		if len(req.Payload) > 0 {
			v, err := ckpt.Unmarshal(req.Payload)
			if err != nil {
				return ckpt.WireFrame{}, &requestError{ErrCodeCorrupt, err}
			}
			st, ok := v.(*sketch.ARAMSState)
			if !ok {
				return ckpt.WireFrame{}, &requestError{ErrCodeCorrupt,
					fmt.Errorf("fabric: restore payload is %T, want ARAMS state", v)}
			}
			if err := b.Restore(st); err != nil {
				return ckpt.WireFrame{}, &requestError{ErrCodeCorrupt, err}
			}
			dim = st.D
			audit.Default().Record(audit.KindCheckpointRestore,
				"fabric worker restored sketcher state from coordinator",
				audit.A("shard", float64(w.shard)),
				audit.A("dim", float64(st.D)))
		}
		w.backend, w.dim = b, dim
		obsWorkerRestores.Inc()
		return ckpt.WireFrame{Type: MsgRestoreAck}, nil

	case MsgCertificateReq:
		b, _ := w.current()
		if b == nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeTransient, errNoHello}
		}
		cert, err := b.Certificate()
		if err != nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeTransient, err}
		}
		return ckpt.WireFrame{Type: MsgCertificate,
			Payload: CertificatePayload{Cert: cert}.encode()}, nil

	case MsgHeartbeat:
		ell := 0
		if b, _ := w.current(); b != nil {
			ell = b.Ell()
		}
		return ckpt.WireFrame{Type: MsgHeartbeatAck,
			Payload: HeartbeatPayload{
				Frames:     int(w.frames.Load()),
				Ell:        ell,
				Uptime:     time.Since(w.start).Seconds(),
				QueueDepth: int(w.inflight.Load()),
				ObsRing:    w.obs().RingLen(),
			}.encode()}, nil

	case MsgStatsReq:
		payload, err := json.Marshal(w.obs().Export())
		if err != nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeTransient, err}
		}
		return ckpt.WireFrame{Type: MsgStats, Payload: payload}, nil

	case MsgFlightReq:
		p, err := decodeFlightReq(req.Payload)
		if err != nil {
			return ckpt.WireFrame{}, &requestError{ErrCodeCorrupt, err}
		}
		dump := w.obs().FlightTriggerID(p.Reason, p.ID)
		if dump != "" {
			dump = filepath.Base(dump)
		}
		return ckpt.WireFrame{Type: MsgFlightAck,
			Payload: FlightAckPayload{Dump: dump}.encode()}, nil

	default:
		return ckpt.WireFrame{}, &requestError{ErrCodeCorrupt,
			fmt.Errorf("fabric: unknown message type %d", req.Type)}
	}
}

var errNoHello = errors.New("fabric: no hello received on this worker yet")

// ingestBackend returns the backend an ingest feeds. The first rows fix
// the shard's width; rows of any other width, and rows with a NaN or ±Inf
// element or one past float32's range, are a corrupt request, since the
// sketch cannot absorb them: it stores rows at float32 until its next
// rotation, where such an element is ±Inf (the engine drops these
// frames before it routes them, so only a foreign client sends one).
func (w *Worker) ingestBackend(p IngestPayload) (engine.Backend, *requestError) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.backend == nil {
		return nil, &requestError{ErrCodeTransient, errNoHello}
	}
	for i, r := range p.Rows {
		// The engine drops a frame by the same test.
		for _, v := range r {
			if y := float32(v); !(y <= math.MaxFloat32 && y >= -math.MaxFloat32) {
				return nil, &requestError{ErrCodeCorrupt,
					fmt.Errorf("fabric: ingest row %d is not finite at float32", i)}
			}
		}
	}
	if len(p.Rows) > 0 {
		if w.dim == 0 {
			w.dim = p.D
		} else if p.D != w.dim {
			return nil, &requestError{ErrCodeCorrupt,
				fmt.Errorf("fabric: ingest rows of width %d for a shard of width %d", p.D, w.dim)}
		}
	}
	return w.backend, nil
}

// current returns the backend and shard slot adopted from the last
// Hello (a nil backend before the first).
func (w *Worker) current() (engine.Backend, uint32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.backend, w.shard
}
