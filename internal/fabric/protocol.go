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
// either a primitive-encoded payload (rows, stats, certificates) or a
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
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"arams/internal/audit"
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

// penc is the fabric payload encoder: little-endian primitives appended
// to a byte slice, mirroring the ckpt codec's conventions (f64 as IEEE
// bits, bool as one byte) so payload bytes are canonical — the same
// payload always encodes to the same bytes, which the golden tests pin.
type penc struct{ b []byte }

func (e *penc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *penc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *penc) i64(v int)     { e.u64(uint64(int64(v))) }
func (e *penc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *penc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// pdec is the matching bounds-checked decoder: it never panics on
// truncated input, it records the first error and returns zeros after.
type pdec struct {
	b   []byte
	off int
	err error
}

func (d *pdec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("fabric: truncated payload at offset %d", d.off)
	}
}

func (d *pdec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *pdec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *pdec) i64() int     { return int(int64(d.u64())) }
func (d *pdec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *pdec) bool() bool {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return false
	}
	v := d.b[d.off]
	if v > 1 {
		// Only 0x00/0x01 are canonical; anything else would decode to a
		// value that re-encodes differently.
		if d.err == nil {
			d.err = fmt.Errorf("fabric: non-canonical bool byte %#02x at offset %d", v, d.off)
		}
		return false
	}
	d.off++
	return v != 0
}

// finish returns the recorded error, or an error if trailing bytes
// remain — payloads are exact, not prefixes.
func (d *pdec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("fabric: %d trailing payload bytes", len(d.b)-d.off)
	}
	return nil
}

// HelloPayload opens a connection: which shard slot this connection
// feeds and the sketch configuration the worker must sketch under
// (already shard-derived via engine.ShardSketchConfig, so the worker
// needs no configuration of its own).
type HelloPayload struct {
	Shard uint32
	Cfg   sketch.Config
}

func (p HelloPayload) encode() []byte {
	e := &penc{}
	e.u32(p.Shard)
	e.i64(p.Cfg.Ell0)
	e.i64(p.Cfg.Nu)
	e.f64(p.Cfg.Eps)
	e.f64(p.Cfg.Beta)
	e.bool(p.Cfg.RankAdaptive)
	e.i64(0) // retired estimator slot
	e.u64(p.Cfg.Seed)
	return e.b
}

// maxHelloRank bounds a hello's ℓ₀ and ν. The paper's ℓ is tens; at
// this bound one 2ℓ×d buffer of d = 16 384 is already 16 GiB.
const maxHelloRank = 1 << 16

// decodeHello decodes a hello and refuses a configuration the worker
// could not sketch under: ℓ₀ outside [1, maxHelloRank], ν outside
// [0, maxHelloRank] (0 selects the default), a non-finite β or ε, rank
// adaptation without a positive ε, or a non-zero estimator slot.
func decodeHello(b []byte) (HelloPayload, error) {
	d := &pdec{b: b}
	var p HelloPayload
	p.Shard = d.u32()
	p.Cfg.Ell0 = d.i64()
	p.Cfg.Nu = d.i64()
	p.Cfg.Eps = d.f64()
	p.Cfg.Beta = d.f64()
	p.Cfg.RankAdaptive = d.bool()
	estimator := d.i64()
	p.Cfg.Seed = d.u64()
	if err := d.finish(); err != nil {
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
	case estimator != 0:
		return p, fmt.Errorf("fabric: hello estimator slot holds %d, want 0", estimator)
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
	e := &penc{b: make([]byte, 0, 16+8*p.D*len(p.Rows))}
	e.i64(p.D)
	e.i64(len(p.Rows))
	for _, r := range p.Rows {
		for _, v := range r {
			e.f64(v)
		}
	}
	return e.b
}

func decodeIngest(b []byte) (IngestPayload, error) {
	d := &pdec{b: b}
	var p IngestPayload
	p.D = d.i64()
	n := d.i64()
	if d.err == nil {
		if p.D < 0 || n < 0 || n > maxIngestRows ||
			(n > 0 && (p.D == 0 || p.D > (len(b)-d.off)/8/n)) {
			return p, fmt.Errorf("fabric: ingest payload claims %d rows of dim %d in %d bytes",
				n, p.D, len(b))
		}
	}
	p.Rows = make([][]float64, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		row := make([]float64, p.D)
		for j := range row {
			row[j] = d.f64()
		}
		p.Rows = append(p.Rows, row)
	}
	return p, d.finish()
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
	e := &penc{}
	e.i64(p.Stats.Rows)
	e.i64(p.Stats.Kept)
	e.f64(p.Stats.TotalMass)
	e.f64(p.Stats.KeptMass)
	e.f64(p.Stats.DeltaAdded)
	e.i64(p.Stats.EllBefore)
	e.i64(p.Stats.EllAfter)
	e.i64(p.Ell)
	return e.b
}

func decodeIngestAck(b []byte) (IngestAckPayload, error) {
	d := &pdec{b: b}
	var p IngestAckPayload
	p.Stats.Rows = d.i64()
	p.Stats.Kept = d.i64()
	p.Stats.TotalMass = d.f64()
	p.Stats.KeptMass = d.f64()
	p.Stats.DeltaAdded = d.f64()
	p.Stats.EllBefore = d.i64()
	p.Stats.EllAfter = d.i64()
	p.Ell = d.i64()
	return p, d.finish()
}

// CertificatePayload is audit.Certificate on the wire. Time crosses as
// Unix nanoseconds (UTC on arrival).
type CertificatePayload struct{ Cert audit.Certificate }

func (p CertificatePayload) encode() []byte {
	e := &penc{}
	e.i64(p.Cert.Rows)
	e.i64(p.Cert.Dim)
	e.i64(p.Cert.Ell)
	e.i64(p.Cert.Rotations)
	e.f64(p.Cert.ShrinkMass)
	e.f64(p.Cert.FrobMass)
	var ns int64
	if !p.Cert.Time.IsZero() {
		ns = p.Cert.Time.UnixNano()
	}
	e.u64(uint64(ns))
	return e.b
}

func decodeCertificate(b []byte) (CertificatePayload, error) {
	d := &pdec{b: b}
	var p CertificatePayload
	p.Cert.Rows = d.i64()
	p.Cert.Dim = d.i64()
	p.Cert.Ell = d.i64()
	p.Cert.Rotations = d.i64()
	p.Cert.ShrinkMass = d.f64()
	p.Cert.FrobMass = d.f64()
	if ns := int64(d.u64()); ns != 0 {
		p.Cert.Time = time.Unix(0, ns).UTC()
	}
	return p, d.finish()
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
	e := &penc{}
	e.i64(p.Frames)
	e.i64(p.Ell)
	e.f64(p.Uptime)
	e.i64(p.QueueDepth)
	e.i64(0) // retired span-ring slot
	return e.b
}

func decodeHeartbeat(b []byte) (HeartbeatPayload, error) {
	d := &pdec{b: b}
	var p HeartbeatPayload
	p.Frames = d.i64()
	p.Ell = d.i64()
	p.Uptime = d.f64()
	p.QueueDepth = d.i64()
	d.u64() // retired span-ring slot: any value an older worker sends
	return p, d.finish()
}

// ErrorPayload answers a failed request with a coarse code (mapping
// onto parallel.FaultClass) and a human-readable message.
type ErrorPayload struct {
	Code uint32
	Msg  string
}

func (p ErrorPayload) encode() []byte {
	e := &penc{}
	e.u32(p.Code)
	e.i64(len(p.Msg))
	e.b = append(e.b, p.Msg...)
	return e.b
}

func decodeError(b []byte) (ErrorPayload, error) {
	d := &pdec{b: b}
	var p ErrorPayload
	p.Code = d.u32()
	n := d.i64()
	if d.err == nil {
		if n < 0 || n > len(b)-d.off {
			return p, fmt.Errorf("fabric: error payload claims %d message bytes", n)
		}
		p.Msg = string(b[d.off : d.off+n])
		d.off += n
	}
	return p, d.finish()
}

// str appends a length-prefixed string.
func (e *penc) str(s string) {
	e.i64(len(s))
	e.b = append(e.b, s...)
}

// str decodes a length-prefixed string, bounds-checked against the
// remaining payload.
func (d *pdec) str() string {
	n := d.i64()
	if d.err != nil {
		return ""
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
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
	e := &penc{}
	e.str(p.ID)
	e.str(p.Reason)
	return e.b
}

func decodeFlightReq(b []byte) (FlightReqPayload, error) {
	d := &pdec{b: b}
	var p FlightReqPayload
	p.ID = d.str()
	p.Reason = d.str()
	return p, d.finish()
}

// FlightAckPayload names the dump file the worker wrote (base name,
// not path — the directories differ per process), or "" when the
// worker had no armed recorder or was inside its dump cooldown.
type FlightAckPayload struct {
	Dump string
}

func (p FlightAckPayload) encode() []byte {
	e := &penc{}
	e.str(p.Dump)
	return e.b
}

func decodeFlightAck(b []byte) (FlightAckPayload, error) {
	d := &pdec{b: b}
	var p FlightAckPayload
	p.Dump = d.str()
	return p, d.finish()
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
func encodeSpanRecords(e *penc, recs []obs.SpanRecord) {
	e.i64(len(recs))
	for _, rec := range recs {
		e.str(rec.Name)
		e.u64(uint64(rec.Start.UnixNano()))
		e.u64(uint64(rec.Duration))
		e.u64(0) // reserved slot
		e.u64(uint64(rec.Trace))
		e.u64(uint64(rec.Span))
		e.u64(uint64(rec.Parent))
		keys := make([]string, 0, len(rec.Attrs))
		for k := range rec.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.i64(len(keys))
		for _, k := range keys {
			e.str(k)
			e.str(rec.Attrs[k])
		}
	}
}

func decodeSpanRecords(d *pdec) []obs.SpanRecord {
	n := d.i64()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > maxSpanRecords {
		d.fail()
		return nil
	}
	recs := make([]obs.SpanRecord, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		var rec obs.SpanRecord
		rec.Name = d.str()
		rec.Start = time.Unix(0, int64(d.u64())).UTC()
		rec.Duration = time.Duration(d.u64())
		d.u64() // reserved slot
		rec.Trace = obs.ID(d.u64())
		rec.Span = obs.ID(d.u64())
		rec.Parent = obs.ID(d.u64())
		na := d.i64()
		if d.err != nil {
			break
		}
		if na < 0 || na > 64 {
			d.fail()
			break
		}
		if na > 0 {
			rec.Attrs = make(map[string]string, na)
			for j := 0; j < na && d.err == nil; j++ {
				k := d.str()
				rec.Attrs[k] = d.str()
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
	e := &penc{b: make([]byte, 0, 16+len(inner))}
	e.i64(len(inner))
	e.b = append(e.b, inner...)
	encodeSpanRecords(e, recs)
	return e.b
}

// unwrapReply splits a response payload into the inner payload and the
// worker's span records.
func unwrapReply(b []byte) ([]byte, []obs.SpanRecord, error) {
	d := &pdec{b: b}
	n := d.i64()
	if d.err != nil {
		return nil, nil, d.err
	}
	if n < 0 || n > len(b)-d.off {
		return nil, nil, fmt.Errorf("fabric: reply claims %d inner bytes", n)
	}
	inner := b[d.off : d.off+n]
	d.off += n
	recs := decodeSpanRecords(d)
	if err := d.finish(); err != nil {
		return nil, nil, err
	}
	if len(inner) == 0 {
		inner = nil
	}
	return inner, recs, nil
}
