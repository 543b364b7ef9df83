package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/parallel"
	"arams/internal/sketch"
)

// RemoteConfig tunes the coordinator side of one worker connection: its
// deadlines and the pace of the recovery ladder (see Remote). The
// ladder has no off switch: exhausted reconnects always degrade to the
// bit-exact local sketcher.
type RemoteConfig struct {
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// OpTimeout is the per-RPC connection deadline — every request and
	// its response must complete within it (default 5s). All I/O is
	// deadline-bounded, so nothing blocks forever: a stalled worker
	// costs an operation at most one OpTimeout per RPC the ladder tries
	// before the Remote degrades.
	OpTimeout time.Duration
	// HeartbeatEvery is the liveness/RTT probe interval (default 1s;
	// negative disables heartbeats).
	HeartbeatEvery time.Duration
	// ReconnectAttempts is how many times a failed operation tries to
	// re-establish the connection (restore + replay included) before
	// degrading (default 3).
	ReconnectAttempts int
	// ReconnectBackoff is the initial delay between reconnect attempts,
	// doubling each try (default 50ms).
	ReconnectBackoff time.Duration
}

// replayLogCap is how many rows the replay log may hold before Absorb
// trims it with a state fetch of its own: what recovery has to re-send,
// and what the coordinator keeps in memory per shard, stays under this
// many rows plus one dispatch whether or not anything reads the shard.
const replayLogCap = 1024

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.ReconnectAttempts <= 0 {
		c.ReconnectAttempts = 3
	}
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = 50 * time.Millisecond
	}
	return c
}

// Remote is an engine.Backend whose sketching happens on a fabric
// Worker across a TCP connection. It is the one place a fabric shard's
// faults are recovered, through this ladder, in order:
//
//  1. Every RPC runs under a connection deadline (OpTimeout), so no
//     fault blocks an operation for longer than one round trip budget.
//  2. A failed RPC reconnects — dial, Hello, unconditional
//     Restore(lastState), replay of every row absorbed since that state
//     — and a read then asks again. Unconditional restore makes
//     recovery correct whether the worker lost state (process restart),
//     absorbed the failed batch (ack lost), or never saw it: the worker
//     is always rebuilt to exactly lastState + replay log. A reconnect
//     that fails, or a read that fails again over the fresh
//     connection, costs one of ReconnectAttempts.
//  3. Exhausted reconnects degrade to an in-process sketcher built from
//     lastState + replay log, bit-exact with the lost worker, so the
//     shard keeps full coverage.
//
// Hence the invariant the merge relies on when it fetches a leg once: a
// read (Snapshot, State, Certificate) returns a result, a FaultFatal
// error (the Remote is closed, or the worker refused the request as
// fatal) or a decode error, never a transient one.
//
// The replay log holds a copy of every row absorbed since the last
// state fetch; each successful Snapshot/State fetch trims it. A reader
// may never come, so the Remote bounds the log itself: an Absorb that
// leaves replayLogCap rows or more in it fetches the state on the spot.
type Remote struct {
	name string
	addr string
	cfg  RemoteConfig

	mu    sync.Mutex // serializes RPCs; guards conn, log, state, fallback
	conn  net.Conn
	seq   uint64
	hello HelloPayload

	lastState *sketch.ARAMSState
	log       [][]float64
	// lastReplayAck is the IngestAck of the newest replay tail chunk
	// (the rows the in-flight Absorb was called with), set by
	// reconnectLocked/degradeLocked so Absorb returns the stats of
	// exactly its rows even when they reached the sketcher via replay.
	lastReplayAck IngestAckPayload
	fallback      engine.Backend // non-nil once degraded to local sketching
	closed        bool

	lastEll   atomic.Int64
	busyNanos atomic.Int64

	// fleet, when armed, receives the worker's registry snapshot after
	// each successful heartbeat (a stats RPC piggybacks on the probe).
	fleet atomic.Pointer[obs.FleetView]

	hbStop chan struct{}
	hbDone chan struct{}

	mUp         *obs.Gauge
	mRTT        *obs.Histogram
	mBytesSent  *obs.Counter
	mBytesRecv  *obs.Counter
	mRPCs       *obs.Counter
	mRPCErrs    *obs.Counter
	mReconnects *obs.Counter
	mDegraded   *obs.Counter
	mUptime     *obs.Gauge
	mQueueDepth *obs.Gauge
}

// DialRemote connects to a fabric worker and binds it to one shard
// slot: scfg must already be shard-derived (engine.ShardSketchConfig).
// It never fails: if the first dial does, the Remote starts degraded
// (local fallback, journaled as remote_degrade).
func DialRemote(name, addr string, shard uint32, scfg sketch.Config, cfg RemoteConfig) *Remote {
	cfg = cfg.withDefaults()
	r := &Remote{
		name:        name,
		addr:        addr,
		cfg:         cfg,
		hello:       HelloPayload{Shard: shard, Cfg: scfg},
		mUp:         obs.Default().Gauge("arams_fabric_worker_up", obs.L("worker", name)),
		mRTT:        obs.Default().Histogram("arams_fabric_rtt_seconds", obs.L("worker", name)),
		mBytesSent:  obs.Default().Counter("arams_fabric_bytes_sent_total", obs.L("worker", name)),
		mBytesRecv:  obs.Default().Counter("arams_fabric_bytes_recv_total", obs.L("worker", name)),
		mRPCs:       obs.Default().Counter("arams_fabric_rpc_total", obs.L("worker", name)),
		mRPCErrs:    obs.Default().Counter("arams_fabric_rpc_errors_total", obs.L("worker", name)),
		mReconnects: obs.Default().Counter("arams_fabric_reconnects_total", obs.L("worker", name)),
		mDegraded:   obs.Default().Counter("arams_fabric_degraded_total", obs.L("worker", name)),
		mUptime:     obs.Default().Gauge("arams_fabric_worker_uptime_seconds", obs.L("worker", name)),
		mQueueDepth: obs.Default().Gauge("arams_fabric_worker_queue_depth", obs.L("worker", name)),
	}
	r.mu.Lock()
	if err := r.reconnectLocked(obs.SpanContext{}, 0, 0); err != nil {
		r.degradeLocked(err, 0)
	}
	r.mu.Unlock()
	if cfg.HeartbeatEvery > 0 {
		r.hbStop = make(chan struct{})
		r.hbDone = make(chan struct{})
		go r.heartbeatLoop()
	}
	return r
}

// Name returns the worker's display name (metric label).
func (r *Remote) Name() string { return r.name }

// Degraded reports whether this backend has fallen back to in-process
// sketching.
func (r *Remote) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fallback != nil
}

// Absorb ships the selected rows to the worker, recovering through the
// ladder above on any transport fault. The returned stats are the
// worker's own fold for exactly these rows (replayed or not), so the
// engine's audit accounting is bit-identical to an all-local run. The
// ingest RPC runs inside parent's trace, so the worker's absorb span —
// shipped back on the ack — stitches under the coordinator's
// ingest_batch tree.
func (r *Remote) Absorb(parent obs.SpanContext, vecs [][]float64, idx []int) (sketch.BatchStats, error) {
	start := time.Now()
	defer func() { r.busyNanos.Add(int64(time.Since(start))) }()
	nrows := len(idx)
	if idx == nil {
		nrows = len(vecs)
	}
	if nrows == 0 {
		return sketch.BatchStats{}, nil
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return sketch.BatchStats{}, parallel.AsFault(parallel.FaultFatal, parallel.ErrBackendClosed)
	}
	if r.fallback != nil {
		// Degraded: sketch in-process. No replay log needed — the
		// fallback's own state is the baseline, and Absorb copies rows
		// into the sketch, so the caller's (pool-recycled) slices are
		// never retained.
		stats, err := r.fallback.Absorb(parent, vecs, idx)
		if err == nil {
			r.lastEll.Store(int64(stats.EllAfter))
		}
		return stats, err
	}
	// Copy the rows into the replay log before anything can fail. The
	// copies are mandatory: the engine hands its float64 working vectors
	// back to the mat pool as soon as the batch is absorbed, so retaining
	// the caller's slices would alias memory that the next batch's
	// preprocessing overwrites.
	rows := make([][]float64, nrows)
	for i := 0; i < nrows; i++ {
		v := vecs[i]
		if idx != nil {
			v = vecs[idx[i]]
		}
		rows[i] = append([]float64(nil), v...)
	}
	r.log = append(r.log, rows...)

	ack, err := r.ingestRPCLocked(parent, rows)
	if err != nil {
		if err = r.recoverLocked(parent, err, nrows, nil); err != nil {
			return sketch.BatchStats{}, err
		}
		// Recovery replayed the log with these rows as the tail chunk —
		// over a fresh connection or through the local fallback — and
		// left the tail's stats for us either way.
		ack = r.lastReplayAck
	}
	r.lastEll.Store(int64(ack.Ell))
	if len(r.log) >= replayLogCap {
		// The rows are absorbed and acked whatever this fetch does, so it
		// runs no ladder of its own: a failed fetch leaves the log as it
		// was, and the next operation reconnects if the fetch dropped the
		// connection, and the next Absorb tries the trim again.
		if st, err := r.fetchStateRPCLocked(parent); err == nil {
			r.lastState = st
			r.log = r.log[:0]
		}
	}
	return ack.Stats, nil
}

// Snapshot fetches the worker's state and returns its sketch, trimming
// the replay log — a state fetch is an incremental checkpoint. A fault
// is recovered through the ladder, so an error is fatal or a decode
// failure. The fetch RPC, and the worker's state span shipped back with
// it, join parent's trace.
func (r *Remote) Snapshot(parent obs.SpanContext) (*sketch.FrequentDirections, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := r.stateLocked(parent)
	if err != nil || st == nil {
		return nil, err
	}
	a, err := sketch.NewARAMSFromState(*st)
	if err != nil {
		return nil, parallel.AsFault(parallel.FaultCorrupt, err)
	}
	return a.FD(), nil
}

// Basis decomposes a fetched snapshot: Basis is a function of the
// sketch's state, so these are the worker's live sketch's bits. The
// snapshot is this call's own, so its blocks go back to mat's pools
// once the basis is cut, for the next read's decode.
func (r *Remote) Basis(k int) (*mat.Matrix, int) {
	fd, err := r.Snapshot(obs.SpanContext{})
	if err != nil || fd == nil {
		return nil, 0
	}
	defer fd.Release()
	return fd.Basis(k), fd.Ell()
}

// State fetches the worker's checkpointable state (nil before the
// first row), trimming the replay log on success.
func (r *Remote) State() (*sketch.ARAMSState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stateLocked(obs.SpanContext{})
}

func (r *Remote) stateLocked(parent obs.SpanContext) (*sketch.ARAMSState, error) {
	if r.closed {
		return nil, parallel.AsFault(parallel.FaultFatal, parallel.ErrBackendClosed)
	}
	if r.fallback != nil {
		return r.fallback.State()
	}
	st, err := r.fetchStateRPCLocked(parent)
	if err != nil {
		fetch := func() (err error) {
			st, err = r.fetchStateRPCLocked(parent)
			return err
		}
		if err = r.recoverLocked(parent, err, 0, fetch); err != nil {
			return nil, err
		}
		if r.fallback != nil {
			return r.fallback.State()
		}
	}
	// Trim: the fetched state covers every row acked so far, and Absorb
	// is synchronous, so the whole log is covered.
	r.lastState = st
	r.log = r.log[:0]
	return st, nil
}

// Restore pushes checkpoint state to the worker and resets the replay
// baseline to it.
func (r *Remote) Restore(st *sketch.ARAMSState) error {
	if st == nil {
		return fmt.Errorf("fabric: nil shard state")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return parallel.AsFault(parallel.FaultFatal, parallel.ErrBackendClosed)
	}
	r.lastState = st
	r.log = r.log[:0]
	if r.fallback != nil {
		return r.fallback.Restore(st)
	}
	if err := r.restoreRPCLocked(obs.SpanContext{}, st); err != nil {
		// recoverLocked restores lastState (just set) + empty log.
		if err = r.recoverLocked(obs.SpanContext{}, err, 0, nil); err != nil {
			return err
		}
		if r.fallback != nil {
			return nil // degradeLocked already restored into the fallback
		}
	}
	if a, err := sketch.NewARAMSFromState(*st); err == nil {
		r.lastEll.Store(int64(a.Ell()))
	}
	return nil
}

// Ell answers from the last acknowledged rank — no round trip.
func (r *Remote) Ell() int { return int(r.lastEll.Load()) }

// Busy returns cumulative wall time spent in Absorb (network time
// included — for a remote shard the round trip is the absorb cost).
func (r *Remote) Busy() time.Duration { return time.Duration(r.busyNanos.Load()) }

// Certificate fetches the worker's own error-bound certificate (zero
// before the first row; served locally once degraded), recovering a
// fault through the ladder as Snapshot does.
func (r *Remote) Certificate() (audit.Certificate, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return audit.Certificate{}, parallel.AsFault(parallel.FaultFatal, parallel.ErrBackendClosed)
	}
	if r.fallback != nil {
		return r.fallback.Certificate()
	}
	cert, err := r.certificateRPCLocked()
	if err != nil {
		fetch := func() (err error) {
			cert, err = r.certificateRPCLocked()
			return err
		}
		if err = r.recoverLocked(obs.SpanContext{}, err, 0, fetch); err != nil {
			return audit.Certificate{}, err
		}
		if r.fallback != nil {
			return r.fallback.Certificate()
		}
	}
	return cert, nil
}

// Close stops the heartbeat, tears down the connection, and closes the
// fallback if any. Subsequent operations fail fast with a fatal fault.
func (r *Remote) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	var err error
	if r.fallback != nil {
		err = r.fallback.Close()
	}
	r.mu.Unlock()
	if r.hbStop != nil {
		close(r.hbStop)
		<-r.hbDone
	}
	r.mUp.SetInt(0)
	return err
}

// --- RPC layer ---

// rpcLocked runs one request/response round trip under the op deadline.
// Any failure closes the connection (the stream may be desynced) and
// returns a classified error; the caller decides whether to recover.
//
// When parent carries a trace the RPC opens a fabric_rpc span under it
// — with wire_encode and fabric_rtt children — and ships the span's
// identity in the wire frame, so the worker parents its own spans under
// this RPC; an untraced RPC keeps the zero Span, which records nothing.
// Every response is the reply form (payload + worker span records); the
// records are fed into the local registry's trace store so /tracez
// renders one cross-process tree.
func (r *Remote) rpcLocked(parent obs.SpanContext, msgType uint32, payload []byte, wantType uint32) ([]byte, error) {
	if r.conn == nil {
		return nil, parallel.AsFault(parallel.FaultTransient, errNotConnected)
	}
	r.mRPCs.Inc()
	r.seq++
	seq := r.seq
	var sp obs.Span
	if parent.Trace != 0 {
		sp = obs.StartSpanIn(parent, "fabric_rpc",
			obs.L("worker", r.name), obs.L("msg", msgName(msgType)))
	}
	defer sp.End()
	fail := func(err error) error {
		sp.SetAttr("error", err.Error())
		return r.rpcFailLocked(err)
	}
	c := sp.Context()
	req := ckpt.WireFrame{Type: msgType, Seq: seq, Trace: uint64(c.Trace), Span: uint64(c.Span), Payload: payload}
	spEnc := sp.StartChild("wire_encode")
	frame := ckpt.EncodeWireFrame(req)
	spEnc.SetAttr("bytes", fmt.Sprint(len(frame)))
	spEnc.End()
	r.conn.SetDeadline(time.Now().Add(r.cfg.OpTimeout))
	spRTT := sp.StartChild("fabric_rtt")
	if _, err := r.conn.Write(frame); err != nil {
		spRTT.End()
		return nil, fail(parallel.AsFault(parallel.FaultTransient, err))
	}
	r.mBytesSent.Add(float64(len(frame)))
	resp, err := ckpt.ReadWireFrame(r.conn)
	spRTT.End()
	if err != nil {
		// Torn frames and timeouts are transient (the connection died or
		// stalled); checksum/magic/version failures mean the bytes
		// arrived wrong — corrupt, so recovery re-fetches.
		class := parallel.FaultTransient
		if errors.Is(err, ckpt.ErrChecksum) || errors.Is(err, ckpt.ErrBadMagic) || errors.Is(err, ckpt.ErrVersion) {
			class = parallel.FaultCorrupt
		}
		return nil, fail(parallel.AsFault(class, err))
	}
	r.mBytesRecv.Add(float64(ckpt.WireOverhead + len(resp.Payload)))
	if resp.Seq != seq {
		return nil, fail(parallel.AsFault(parallel.FaultTransient,
			fmt.Errorf("fabric: response seq %d for request %d", resp.Seq, seq)))
	}
	inner, recs, err := unwrapReply(resp.Payload)
	if err != nil {
		return nil, fail(parallel.AsFault(parallel.FaultCorrupt, err))
	}
	for _, rec := range recs {
		obs.Default().ObserveRemoteSpan(rec)
	}
	if resp.Type == MsgError {
		p, derr := decodeError(inner)
		if derr != nil {
			return nil, fail(parallel.AsFault(parallel.FaultCorrupt, derr))
		}
		class := parallel.FaultTransient
		switch p.Code {
		case ErrCodeCorrupt:
			class = parallel.FaultCorrupt
		case ErrCodeFatal:
			class = parallel.FaultFatal
		}
		// A request-level error leaves the stream in sync — keep the
		// connection.
		r.mRPCErrs.Inc()
		sp.SetAttr("error", p.Msg)
		return nil, parallel.AsFault(class, fmt.Errorf("fabric: worker %s: %s", r.name, p.Msg))
	}
	if resp.Type != wantType {
		return nil, fail(parallel.AsFault(parallel.FaultTransient,
			fmt.Errorf("fabric: response type %d, want %d", resp.Type, wantType)))
	}
	return inner, nil
}

// msgName labels RPC spans with the request kind.
func msgName(t uint32) string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgIngest:
		return "ingest"
	case MsgReconcile:
		return "reconcile"
	case MsgRestore:
		return "restore"
	case MsgCertificateReq:
		return "certificate"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgStatsReq:
		return "stats"
	case MsgFlightReq:
		return "flight"
	default:
		return fmt.Sprintf("msg%d", t)
	}
}

func (r *Remote) rpcFailLocked(err error) error {
	r.mRPCErrs.Inc()
	r.mUp.SetInt(0)
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	return err
}

var errNotConnected = errors.New("fabric: not connected")

var _ engine.Backend = (*Remote)(nil)

func (r *Remote) ingestRPCLocked(parent obs.SpanContext, rows [][]float64) (IngestAckPayload, error) {
	d := 0
	if len(rows) > 0 {
		d = len(rows[0])
	}
	payload, err := r.rpcLocked(parent, MsgIngest, IngestPayload{D: d, Rows: rows}.encode(), MsgIngestAck)
	if err != nil {
		return IngestAckPayload{}, err
	}
	ack, err := decodeIngestAck(payload)
	if err != nil {
		return IngestAckPayload{}, parallel.AsFault(parallel.FaultCorrupt, err)
	}
	return ack, nil
}

func (r *Remote) fetchStateRPCLocked(parent obs.SpanContext) (*sketch.ARAMSState, error) {
	payload, err := r.rpcLocked(parent, MsgReconcile, nil, MsgSketchState)
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, nil // no rows yet
	}
	v, err := ckpt.Unmarshal(payload)
	if err != nil {
		return nil, parallel.AsFault(parallel.FaultCorrupt, err)
	}
	st, ok := v.(*sketch.ARAMSState)
	if !ok {
		return nil, parallel.AsFault(parallel.FaultCorrupt,
			fmt.Errorf("fabric: state payload is %T, want ARAMS state", v))
	}
	return st, nil
}

func (r *Remote) certificateRPCLocked() (audit.Certificate, error) {
	payload, err := r.rpcLocked(obs.SpanContext{}, MsgCertificateReq, nil, MsgCertificate)
	if err != nil {
		return audit.Certificate{}, err
	}
	p, err := decodeCertificate(payload)
	if err != nil {
		return audit.Certificate{}, parallel.AsFault(parallel.FaultCorrupt, err)
	}
	return p.Cert, nil
}

func (r *Remote) restoreRPCLocked(parent obs.SpanContext, st *sketch.ARAMSState) error {
	payload, err := ckpt.Marshal(st)
	if err != nil {
		return parallel.AsFault(parallel.FaultFatal, err)
	}
	_, err = r.rpcLocked(parent, MsgRestore, payload, MsgRestoreAck)
	return err
}

// --- recovery ladder ---

// recoverLocked is rungs 2 and 3: reconnect with restore + replay under
// the reconnect policy, then degrade to the local fallback. It returns
// cause when cause is fatal and nil otherwise: the operation has then
// taken effect over a fresh connection or, once r.fallback is set, is
// the fallback's to serve. pending is how many rows at the tail of the
// log belong to the in-flight Absorb — they are replayed as their own
// chunk so lastReplayAck holds exactly their stats. read, when non-nil,
// is the read whose RPC failed: it runs again over each fresh
// connection, and its failure costs an attempt as a failed reconnect
// does, so a read that keeps failing ends in the fallback.
func (r *Remote) recoverLocked(parent obs.SpanContext, cause error, pending int, read func() error) error {
	if parallel.Classify(cause) == parallel.FaultFatal {
		return cause
	}
	backoff := r.cfg.ReconnectBackoff
	var err = cause
	for attempt := 0; attempt < r.cfg.ReconnectAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = r.reconnectLocked(parent, uint64(attempt), pending); err == nil {
			audit.Default().Record(audit.KindRemoteRecovery,
				"fabric worker reconnected; state restored and replay log re-absorbed",
				audit.A("shard", float64(r.hello.Shard)),
				audit.A("attempt", float64(attempt)),
				audit.A("replayed_rows", float64(len(r.log))))
			if read == nil {
				return nil
			}
			if err = read(); err == nil {
				return nil
			}
		}
		if parallel.Classify(err) == parallel.FaultFatal {
			break
		}
	}
	r.degradeLocked(err, pending)
	return nil
}

// reconnectLocked establishes a fresh connection and rebuilds the
// worker to exactly lastState + replay log: dial, hello, unconditional
// restore, replay. Unconditional restore (or an explicit reset when no
// baseline exists) guarantees the worker never double-counts rows it
// may have absorbed before the failure. The replay is split so the
// final pending rows land in their own IngestAck. attempt tags the obs
// span, which joins the failed operation's trace when one is active
// (reconnect and replay legs then render inside the ingest tree) and
// roots a fresh trace otherwise.
func (r *Remote) reconnectLocked(parent obs.SpanContext, attempt uint64, pending int) error {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	sp := obs.StartSpanIn(parent, "fabric_reconnect",
		obs.L("worker", r.name), obs.L("attempt", fmt.Sprint(attempt)))
	defer sp.End()
	ctx := sp.Context()
	r.mReconnects.Inc()
	conn, err := net.DialTimeout("tcp", r.addr, r.cfg.DialTimeout)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return parallel.AsFault(parallel.FaultTransient, err)
	}
	r.conn = conn
	if _, err := r.rpcLocked(ctx, MsgHello, r.hello.encode(), MsgHelloAck); err != nil {
		sp.SetAttr("error", err.Error())
		return err
	}
	if r.lastState != nil {
		err = r.restoreRPCLocked(ctx, r.lastState)
	} else {
		// No baseline state: reset the worker to a fresh sketcher so a
		// surviving worker that absorbed rows before the fault does not
		// double-count the replay.
		_, err = r.rpcLocked(ctx, MsgRestore, nil, MsgRestoreAck)
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		return err
	}
	r.lastReplayAck = IngestAckPayload{}
	if head := r.log[:len(r.log)-pending]; len(head) > 0 {
		// Rows whose stats earlier Absorb calls already returned: replay
		// for state, discard the ack.
		if _, err := r.ingestRPCLocked(ctx, head); err != nil {
			sp.SetAttr("error", err.Error())
			return err
		}
	}
	if tail := r.log[len(r.log)-pending:]; len(tail) > 0 {
		ack, err := r.ingestRPCLocked(ctx, tail)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return err
		}
		r.lastReplayAck = ack
	}
	sp.SetAttr("replayed_rows", fmt.Sprint(len(r.log)))
	r.mUp.SetInt(1)
	return nil
}

// degradeLocked is the last rung: build an in-process sketcher from
// lastState + replay log. Bit-exact with the lost worker, so the
// stream keeps full coverage and certificates stay valid. The replay
// log and baseline are released — the fallback itself is the state now.
func (r *Remote) degradeLocked(cause error, pending int) {
	r.mDegraded.Inc()
	r.mUp.SetInt(0)
	replayed := len(r.log)
	fb := engine.NewLocalBackend(r.hello.Cfg)
	if r.lastState != nil {
		if err := fb.Restore(r.lastState); err != nil {
			// A state that round-tripped the codec cannot fail to
			// restore; journal and start fresh as a last resort.
			audit.Default().Record(audit.KindRemoteDegrade,
				"fabric fallback restore failed; resketching replay log from scratch",
				audit.A("shard", float64(r.hello.Shard)))
		}
	}
	if head := r.log[:len(r.log)-pending]; len(head) > 0 {
		fb.Absorb(obs.SpanContext{}, head, nil)
	}
	if tail := r.log[len(r.log)-pending:]; len(tail) > 0 {
		if stats, err := fb.Absorb(obs.SpanContext{}, tail, nil); err == nil {
			r.lastReplayAck = IngestAckPayload{Stats: stats, Ell: stats.EllAfter}
			r.lastEll.Store(int64(stats.EllAfter))
		}
	}
	r.fallback = fb
	r.log = nil
	r.lastState = nil
	audit.Default().Record(audit.KindRemoteDegrade,
		"fabric worker unreachable after reconnect attempts; degraded to in-process sketching (bit-exact: lastState + replay)",
		audit.A("shard", float64(r.hello.Shard)),
		audit.A("replayed_rows", float64(replayed)),
		audit.A("class", float64(parallel.Classify(cause))))
	obs.Default().FlightTrigger("fabric_degrade")
}

// --- heartbeats ---

// heartbeatLoop probes liveness/RTT at HeartbeatEvery. TryLock keeps it
// strictly lower priority than real RPCs: if an ingest or fetch holds
// the connection, the probe is skipped — the in-flight RPC is already
// the liveness signal.
func (r *Remote) heartbeatLoop() {
	defer close(r.hbDone)
	t := time.NewTicker(r.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-r.hbStop:
			return
		case <-t.C:
		}
		if !r.mu.TryLock() {
			continue
		}
		if r.closed || r.fallback != nil || r.conn == nil {
			r.mu.Unlock()
			continue
		}
		start := time.Now()
		payload, err := r.rpcLocked(obs.SpanContext{}, MsgHeartbeat, nil, MsgHeartbeatAck)
		if err == nil {
			r.mRTT.Observe(time.Since(start).Seconds())
			r.mUp.SetInt(1)
			if hb, derr := decodeHeartbeat(payload); derr == nil {
				r.lastEll.Store(int64(hb.Ell))
				r.mUptime.Set(hb.Uptime)
				r.mQueueDepth.SetInt(hb.QueueDepth)
			}
			// Piggyback a fleet-stats fetch on the successful probe: the
			// worker's whole registry snapshot, refreshed at heartbeat
			// cadence.
			r.feedFleetLocked()
		}
		// On error rpcLocked already dropped the connection and zeroed
		// the up gauge; the next operation reconnects.
		r.mu.Unlock()
	}
}

// statsRPCLocked fetches the worker's obs registry snapshot (JSON over
// MsgStatsReq/MsgStats).
func (r *Remote) statsRPCLocked() (obs.RegistrySnapshot, error) {
	payload, err := r.rpcLocked(obs.SpanContext{}, MsgStatsReq, nil, MsgStats)
	if err != nil {
		return obs.RegistrySnapshot{}, err
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return obs.RegistrySnapshot{}, parallel.AsFault(parallel.FaultCorrupt, err)
	}
	return snap, nil
}

// feedFleetLocked hands the armed fleet view, if any, the worker's
// registry snapshot.
func (r *Remote) feedFleetLocked() {
	if fv := r.fleet.Load(); fv != nil {
		if snap, err := r.statsRPCLocked(); err == nil {
			fv.Update(r.name, snap)
		}
	}
}

// ArmFleet attaches a fleet view to this remote and feeds it the
// worker's registry snapshot at once, so /fleetz lists a connected
// worker even when the stream ends before the first heartbeat; every
// successful heartbeat then refreshes the snapshot. Pass nil to detach.
func (r *Remote) ArmFleet(fv *obs.FleetView) {
	r.fleet.Store(fv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed && r.fallback == nil && r.conn != nil {
		r.feedFleetLocked()
	}
}

// FlightForward asks the worker to dump its flight ring with the given
// trigger ID (see FlightRecorder.TriggerID) and returns the dump file's
// base name, or "" when the worker is degraded, unreachable, busy past
// wait, unarmed, or inside its dump cooldown. It takes the RPC lock
// with a bounded wait so a fan-out never stalls behind a long ingest.
func (r *Remote) FlightForward(triggerID, reason string, wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for !r.mu.TryLock() {
		if time.Now().After(deadline) {
			return ""
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer r.mu.Unlock()
	if r.closed || r.fallback != nil || r.conn == nil {
		return ""
	}
	payload, err := r.rpcLocked(obs.SpanContext{}, MsgFlightReq,
		FlightReqPayload{ID: triggerID, Reason: reason}.encode(), MsgFlightAck)
	if err != nil {
		return ""
	}
	ack, err := decodeFlightAck(payload)
	if err != nil {
		return ""
	}
	return ack.Dump
}

// ArmFleetFlight registers a hook on the default obs registry that fans
// every coordinator-side flight dump out to the given remotes: each
// worker dumps its own flight ring tagged with the coordinator's
// trigger ID, and the fan-out result is journaled (KindFlightFanout)
// with the correlated dump names. The returned function unregisters
// the hook. Per-trigger dedup makes the hook safe even when a worker
// shares the coordinator's registry in-process (loopback tests): the
// forwarded dump cannot re-trigger a second fan-out.
func ArmFleetFlight(remotes []*Remote) func() {
	var mu sync.Mutex
	seen := make(map[string]bool)
	return obs.Default().OnFlightDump(func(reason, triggerID, path string) {
		mu.Lock()
		if seen[triggerID] {
			mu.Unlock()
			return
		}
		if len(seen) > 1024 {
			seen = make(map[string]bool)
		}
		seen[triggerID] = true
		mu.Unlock()

		dumps := make([]string, len(remotes))
		var wg sync.WaitGroup
		for i, rm := range remotes {
			wg.Add(1)
			go func(i int, rm *Remote) {
				defer wg.Done()
				dumps[i] = rm.FlightForward(triggerID, reason, 2*time.Second)
			}(i, rm)
		}
		wg.Wait()
		var names []string
		for i, d := range dumps {
			if d != "" {
				names = append(names, remotes[i].name+":"+d)
			}
		}
		list := "none"
		if len(names) > 0 {
			list = strings.Join(names, " ")
		}
		audit.Default().Record(audit.KindFlightFanout,
			fmt.Sprintf("flight trigger %s (%s) fanned out to fleet; worker dumps: %s",
				triggerID, reason, list),
			audit.A("workers", float64(len(remotes))),
			audit.A("dumped", float64(len(names))))
	})
}
