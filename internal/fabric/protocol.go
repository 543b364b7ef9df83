// Package fabric is the distributed form of the streaming engine: shard
// backends that live behind TCP connections. A coordinator process runs
// the ordinary internal/engine ingest path — routing, window ring,
// audit cadence, reconcile on read — but each shard slot is a Remote
// backend that ships rows to a fabric Worker and fetches sketch state
// back for reconciles, so N machines sketch one stream while the
// coordinator still serves the single-process Monitor API.
//
// The wire protocol is deliberately small and has one form: CRC-checked
// frames with one fixed header (internal/ckpt's wire codec) carrying
// either a payload of fields written and read by ckpt's field codec
// (ckpt.Encoder, ckpt.Decoder: rows, stats, certificates; the hello's
// sketch configuration in the ARAMS checkpoint's layout) or a
// whole canonical ckpt checkpoint frame of a sketch kind (version 4:
// kept rows float64, incoming rows float32 — the same bytes a checkpoint
// file holds for that sketch inside a version 5 monitor frame, so state
// fetched over the fabric is bit-identical to state saved to disk). Every request frame gets
// exactly one response frame with the same sequence number, and every
// response payload, MsgError included, is the reply form: the inner
// payload, then the worker's span records for the request — none when
// the request carried no trace. Faults are classified
// (parallel.FaultClass) so the coordinator's recovery ladder — per-RPC
// deadlines, reconnect + restore + replay, local fallback — matches the
// in-process merge semantics.
package fabric

import (
	"fmt"
	"math"
	"sort"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// Message types, carried in the wire frame's Type field. Every request
// (coordinator → worker) has a paired acknowledgement (worker →
// coordinator); MsgError may answer any request. A response's payload
// named below is the inner payload of its reply form (wrapReply).
const (
	// MsgHello opens a connection: payload HelloPayload (shard index +
	// the shard-derived sketch config the worker must sketch under).
	MsgHello uint32 = 1
	// MsgHelloAck echoes the HelloPayload the worker adopted.
	MsgHelloAck uint32 = 2
	// MsgIngest carries a batch of preprocessed rows: payload
	// IngestPayload. The worker absorbs them in order.
	MsgIngest uint32 = 3
	// MsgIngestAck carries the fold of the absorbed rows' batch stats:
	// payload IngestAckPayload.
	MsgIngestAck uint32 = 4
	// MsgReconcile requests the worker's current sketcher state (a
	// reconcile fetch doubles as an incremental checkpoint). Empty
	// payload.
	MsgReconcile uint32 = 5
	// MsgSketchState answers MsgReconcile: the payload is a whole
	// canonical ckpt frame of the worker's ARAMS state, or empty when
	// the worker has absorbed no rows yet.
	MsgSketchState uint32 = 6
	// MsgRestore pushes sketcher state to the worker (reconnect
	// recovery, checkpoint resume): payload is a ckpt ARAMS frame, or
	// empty to reset the worker to a fresh sketcher.
	MsgRestore uint32 = 7
	// MsgRestoreAck acknowledges a restore. Empty payload.
	MsgRestoreAck uint32 = 8
	// MsgCertificateReq requests the worker's current error-bound
	// certificate. Empty payload.
	MsgCertificateReq uint32 = 9
	// MsgCertificate answers with a CertificatePayload (zero-valued
	// before the first row).
	MsgCertificate uint32 = 10
	// MsgHeartbeat is the liveness/RTT probe. Empty payload.
	MsgHeartbeat uint32 = 11
	// MsgHeartbeatAck answers with a HeartbeatPayload (frames absorbed,
	// current rank).
	MsgHeartbeatAck uint32 = 12
	// MsgError answers any request that failed: payload ErrorPayload.
	MsgError uint32 = 13
	// MsgStatsReq asks the worker to snapshot its whole obs registry
	// for fleet aggregation. Empty payload.
	MsgStatsReq uint32 = 14
	// MsgStats answers with the worker's obs.RegistrySnapshot as JSON
	// (stats are advisory telemetry, not sketch state, so a
	// self-describing encoding beats extending the binary codec for
	// every future metric).
	MsgStats uint32 = 15
	// MsgFlightReq fans a coordinator-side flight trigger out to the
	// worker: payload FlightReqPayload (trigger ID + reason). The worker
	// dumps its own flight ring tagged with the same trigger ID.
	MsgFlightReq uint32 = 16
	// MsgFlightAck answers with a FlightAckPayload naming the dump file
	// the worker wrote ("" when unarmed or cooling down).
	MsgFlightAck uint32 = 17
)

// Error codes carried by ErrorPayload, mirroring parallel.FaultClass so
// the coordinator can classify without string matching.
const (
	// ErrCodeTransient: the worker hit a retryable condition.
	ErrCodeTransient uint32 = 1
	// ErrCodeCorrupt: the request decoded but failed validation.
	ErrCodeCorrupt uint32 = 2
	// ErrCodeFatal: the worker cannot serve this connection again.
	ErrCodeFatal uint32 = 3
)

// HelloPayload opens a connection: which shard slot this connection
// feeds and the sketch configuration the worker must sketch under
// (already shard-derived via engine.ShardSketchConfig, so the worker
// needs no configuration of its own).
type HelloPayload struct {
	Shard uint32
	Cfg   sketch.Config
}

func (p HelloPayload) encode() []byte {
	e := ckpt.NewEncoder(64)
	e.U32(p.Shard)
	e.Config(p.Cfg)
	return e.Bytes()
}

// maxHelloRank bounds a hello's ℓ₀ and ν. The paper's ℓ is tens; at
// this bound one 2ℓ×d buffer of d = 16 384 is already 16 GiB.
const maxHelloRank = 1 << 16

// decodeHello decodes a hello and refuses a configuration the worker
// could not sketch under: a non-zero estimator slot (which the config
// decoder refuses in a checkpoint too), ℓ₀ outside [1, maxHelloRank],
// ν outside [0, maxHelloRank] (0 selects the default), a non-finite β
// or ε, or rank adaptation without a positive ε.
func decodeHello(b []byte) (HelloPayload, error) {
	d := ckpt.NewDecoder(b)
	p := HelloPayload{Shard: d.U32(), Cfg: d.Config()}
	if err := d.Finish(); err != nil {
		return p, err
	}
	c := p.Cfg
	switch {
	case c.Ell0 <= 0 || c.Ell0 > maxHelloRank:
		return p, fmt.Errorf("fabric: hello has Ell0 %d", c.Ell0)
	case c.Nu < 0 || c.Nu > maxHelloRank:
		return p, fmt.Errorf("fabric: hello has Nu %d", c.Nu)
	case math.IsNaN(c.Beta) || math.IsInf(c.Beta, 0) || math.IsNaN(c.Eps) || math.IsInf(c.Eps, 0):
		return p, fmt.Errorf("fabric: hello has Beta %v, Eps %v", c.Beta, c.Eps)
	case c.RankAdaptive && c.Eps <= 0:
		return p, fmt.Errorf("fabric: rank-adaptive hello has Eps %v", c.Eps)
	}
	return p, nil
}

// maxIngestRows bounds a single ingest payload's row count; with the
// wire layer's 1 GiB payload cap this only guards against corrupt
// headers allocating absurd slices before the CRC would have caught
// them (the CRC already ran — this guards against a hostile peer).
const maxIngestRows = 1 << 22

// IngestPayload is a batch of preprocessed rows, row-major. All rows
// share the dimension D.
type IngestPayload struct {
	D    int
	Rows [][]float64
}

func (p IngestPayload) encode() []byte {
	e := ckpt.NewEncoder(16 + 8*p.D*len(p.Rows))
	e.I64(p.D)
	e.I64(len(p.Rows))
	for _, r := range p.Rows {
		for _, v := range r {
			e.F64(v)
		}
	}
	return e.Bytes()
}

func decodeIngest(b []byte) (IngestPayload, error) {
	d := ckpt.NewDecoder(b)
	p := IngestPayload{D: d.I64()}
	n := d.Len(maxIngestRows)
	if d.Err() == nil && (p.D < 0 || n > 0 && (p.D == 0 || p.D > d.Remaining()/8/n)) {
		return p, fmt.Errorf("fabric: ingest payload claims %d rows of dim %d in %d bytes",
			n, p.D, len(b))
	}
	p.Rows = make([][]float64, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		row := make([]float64, p.D)
		for j := range row {
			row[j] = d.F64()
		}
		p.Rows = append(p.Rows, row)
	}
	return p, d.Finish()
}

// IngestAckPayload folds the absorbed rows' batch stats plus the
// worker's post-absorb rank. Carrying the full BatchStats (not just a
// count) keeps the coordinator's audit accumulator bit-identical to an
// all-local engine.
type IngestAckPayload struct {
	Stats sketch.BatchStats
	Ell   int
}

func (p IngestAckPayload) encode() []byte {
	e := ckpt.NewEncoder(64)
	e.I64(p.Stats.Rows)
	e.I64(p.Stats.Kept)
	e.F64(p.Stats.TotalMass)
	e.F64(p.Stats.KeptMass)
	e.F64(p.Stats.DeltaAdded)
	e.I64(p.Stats.EllBefore)
	e.I64(p.Stats.EllAfter)
	e.I64(p.Ell)
	return e.Bytes()
}

func decodeIngestAck(b []byte) (IngestAckPayload, error) {
	d := ckpt.NewDecoder(b)
	p := IngestAckPayload{Stats: sketch.BatchStats{
		Rows: d.I64(), Kept: d.I64(),
		TotalMass: d.F64(), KeptMass: d.F64(), DeltaAdded: d.F64(),
		EllBefore: d.I64(), EllAfter: d.I64(),
	}, Ell: d.I64()}
	return p, d.Finish()
}

// CertificatePayload is audit.Certificate on the wire. Time crosses as
// Unix nanoseconds (UTC on arrival).
type CertificatePayload struct{ Cert audit.Certificate }

func (p CertificatePayload) encode() []byte {
	e := ckpt.NewEncoder(56)
	e.I64(p.Cert.Rows)
	e.I64(p.Cert.Dim)
	e.I64(p.Cert.Ell)
	e.I64(p.Cert.Rotations)
	e.F64(p.Cert.ShrinkMass)
	e.F64(p.Cert.FrobMass)
	var ns int64
	if !p.Cert.Time.IsZero() {
		ns = p.Cert.Time.UnixNano()
	}
	e.U64(uint64(ns))
	return e.Bytes()
}

func decodeCertificate(b []byte) (CertificatePayload, error) {
	d := ckpt.NewDecoder(b)
	p := CertificatePayload{Cert: audit.Certificate{
		Rows: d.I64(), Dim: d.I64(), Ell: d.I64(), Rotations: d.I64(),
		ShrinkMass: d.F64(), FrobMass: d.F64(),
	}}
	if ns := int64(d.U64()); ns != 0 {
		p.Cert.Time = time.Unix(0, ns).UTC()
	}
	return p, d.Finish()
}

// HeartbeatPayload is the worker's liveness answer: rows absorbed for
// its shard, the sketch's current rank, and a small health block —
// process uptime and in-flight request depth — so the coordinator's
// fleet view shows worker health without a full stats RPC. The
// payload's last 8 bytes once carried the worker's span-ring
// occupancy: they are written as 0 and skipped on read, so the wire
// layout is unchanged and an older worker's heartbeat still decodes.
type HeartbeatPayload struct {
	Frames int
	Ell    int
	// Uptime is the worker process uptime in seconds.
	Uptime float64
	// QueueDepth is the number of requests the worker is currently
	// serving (in-flight RPCs across its connections).
	QueueDepth int
}

func (p HeartbeatPayload) encode() []byte {
	e := ckpt.NewEncoder(40)
	e.I64(p.Frames)
	e.I64(p.Ell)
	e.F64(p.Uptime)
	e.I64(p.QueueDepth)
	e.I64(0) // retired span-ring slot
	return e.Bytes()
}

func decodeHeartbeat(b []byte) (HeartbeatPayload, error) {
	d := ckpt.NewDecoder(b)
	p := HeartbeatPayload{Frames: d.I64(), Ell: d.I64(), Uptime: d.F64(), QueueDepth: d.I64()}
	d.U64() // retired span-ring slot: any value an older worker sends
	return p, d.Finish()
}

// ErrorPayload answers a failed request with a coarse code (mapping
// onto parallel.FaultClass) and a human-readable message.
type ErrorPayload struct {
	Code uint32
	Msg  string
}

func (p ErrorPayload) encode() []byte {
	e := ckpt.NewEncoder(12 + len(p.Msg))
	e.U32(p.Code)
	e.Str(p.Msg)
	return e.Bytes()
}

func decodeError(b []byte) (ErrorPayload, error) {
	d := ckpt.NewDecoder(b)
	p := ErrorPayload{Code: d.U32(), Msg: d.Str()}
	return p, d.Finish()
}

// FlightReqPayload fans a flight-recorder trigger out to a worker. ID
// is the coordinator-minted trigger ID (obs ID hex) every process
// stamps on its dump, making fleet-wide dumps for one incident
// correlate by ID; Reason is the human-readable trigger cause.
type FlightReqPayload struct {
	ID     string
	Reason string
}

func (p FlightReqPayload) encode() []byte {
	e := ckpt.NewEncoder(16 + len(p.ID) + len(p.Reason))
	e.Str(p.ID)
	e.Str(p.Reason)
	return e.Bytes()
}

func decodeFlightReq(b []byte) (FlightReqPayload, error) {
	d := ckpt.NewDecoder(b)
	p := FlightReqPayload{ID: d.Str(), Reason: d.Str()}
	return p, d.Finish()
}

// FlightAckPayload names the dump file the worker wrote (base name,
// not path — the directories differ per process), or "" when the
// worker had no armed recorder or was inside its dump cooldown.
type FlightAckPayload struct {
	Dump string
}

func (p FlightAckPayload) encode() []byte {
	e := ckpt.NewEncoder(8 + len(p.Dump))
	e.Str(p.Dump)
	return e.Bytes()
}

func decodeFlightAck(b []byte) (FlightAckPayload, error) {
	d := ckpt.NewDecoder(b)
	p := FlightAckPayload{Dump: d.Str()}
	return p, d.Finish()
}

// maxSpanRecords bounds the span records one response may carry; a worker ships a handful per RPC, so this only guards decode
// against hostile counts.
const maxSpanRecords = 4096

// encodeSpanRecords appends worker span records for the reply form:
// count, then per record name, start (Unix ns), duration (ns), a
// reserved slot, trace/span/parent IDs, and sorted attribute pairs
// (sorted so the encoding is canonical). The reserved slot once held
// the span's thread CPU time; it is written as zero, and a decoder
// drops whatever an older worker put there.
func encodeSpanRecords(e *ckpt.Encoder, recs []obs.SpanRecord) {
	e.I64(len(recs))
	for _, rec := range recs {
		e.Str(rec.Name)
		e.U64(uint64(rec.Start.UnixNano()))
		e.U64(uint64(rec.Duration))
		e.U64(0) // reserved slot
		e.U64(uint64(rec.Trace))
		e.U64(uint64(rec.Span))
		e.U64(uint64(rec.Parent))
		keys := make([]string, 0, len(rec.Attrs))
		for k := range rec.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.I64(len(keys))
		for _, k := range keys {
			e.Str(k)
			e.Str(rec.Attrs[k])
		}
	}
}

// maxSpanAttrs bounds one span record's attribute pairs.
const maxSpanAttrs = 64

func decodeSpanRecords(d *ckpt.Decoder) []obs.SpanRecord {
	n := d.Len(maxSpanRecords)
	recs := make([]obs.SpanRecord, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		rec := obs.SpanRecord{
			Name:     d.Str(),
			Start:    time.Unix(0, int64(d.U64())).UTC(),
			Duration: time.Duration(d.U64()),
		}
		d.U64() // reserved slot
		rec.Trace, rec.Span, rec.Parent = obs.ID(d.U64()), obs.ID(d.U64()), obs.ID(d.U64())
		if na := d.Len(maxSpanAttrs); na > 0 {
			rec.Attrs = make(map[string]string, na)
			for j := 0; j < na && d.Err() == nil; j++ {
				k := d.Str()
				rec.Attrs[k] = d.Str()
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// wrapReply builds a response payload in the reply form: the inner
// payload (length-prefixed) followed by the worker's span records for
// the request, so the coordinator can stitch the worker's side of a
// trace into its own tree. An untraced request's reply carries zero
// records.
func wrapReply(inner []byte, recs []obs.SpanRecord) []byte {
	e := ckpt.NewEncoder(16 + len(inner))
	e.Blob(inner)
	encodeSpanRecords(e, recs)
	return e.Bytes()
}

// unwrapReply splits a response payload into the inner payload (a view
// of b, nil when empty) and the worker's span records.
func unwrapReply(b []byte) ([]byte, []obs.SpanRecord, error) {
	d := ckpt.NewDecoder(b)
	inner := d.Blob()
	recs := decodeSpanRecords(d)
	if err := d.Finish(); err != nil {
		return nil, nil, err
	}
	return inner, recs, nil
}
