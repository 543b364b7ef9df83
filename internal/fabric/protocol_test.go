package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// TestPayloadGoldens pins the fabric payload encodings at the byte
// level. These bytes ride inside wire frames as the inner payload of a
// request or reply; changing any of them is a wire-protocol break and
// requires bumping ckpt.WireVersion.
func TestPayloadGoldens(t *testing.T) {
	hello := HelloPayload{Shard: 2, Cfg: sketch.Config{
		Ell0: 8, Nu: 3, Eps: 0.25, Beta: 0.5, RankAdaptive: true,
		Seed: 0x0102030405060708,
	}}
	wantHello := "02000000" + // shard 2
		"0800000000000000" + // Ell0 8
		"0300000000000000" + // Nu 3
		"000000000000d03f" + // Eps 0.25
		"000000000000e03f" + // Beta 0.5
		"01" + // RankAdaptive
		"0000000000000000" + // estimator slot: retired, always 0
		"0807060504030201" // Seed little-endian
	if g := hex.EncodeToString(hello.encode()); g != wantHello {
		t.Errorf("hello payload bytes changed:\n got  %s\n want %s", g, wantHello)
	}

	ing := IngestPayload{D: 2, Rows: [][]float64{{1, 2}, {3, 4}}}
	wantIngest := "0200000000000000" + "0200000000000000" +
		"000000000000f03f" + "0000000000000040" +
		"0000000000000840" + "0000000000001040"
	if g := hex.EncodeToString(ing.encode()); g != wantIngest {
		t.Errorf("ingest payload bytes changed:\n got  %s\n want %s", g, wantIngest)
	}

	ack := IngestAckPayload{Stats: sketch.BatchStats{
		Rows: 2, Kept: 1, TotalMass: 1.5, KeptMass: 0.5, DeltaAdded: 0.25,
		EllBefore: 3, EllAfter: 4,
	}, Ell: 4}
	wantAck := "0200000000000000" + "0100000000000000" +
		"000000000000f83f" + "000000000000e03f" + "000000000000d03f" +
		"0300000000000000" + "0400000000000000" + "0400000000000000"
	if g := hex.EncodeToString(ack.encode()); g != wantAck {
		t.Errorf("ingest-ack payload bytes changed:\n got  %s\n want %s", g, wantAck)
	}

	errp := ErrorPayload{Code: ErrCodeCorrupt, Msg: "bad"}
	wantErr := "02000000" + "0300000000000000" + "626164"
	if g := hex.EncodeToString(errp.encode()); g != wantErr {
		t.Errorf("error payload bytes changed:\n got  %s\n want %s", g, wantErr)
	}

	// Heartbeat: frames and rank, then the worker health block and the
	// retired span-ring slot, written as zero.
	hb := HeartbeatPayload{Frames: 7, Ell: 5, Uptime: 1.5, QueueDepth: 2}
	wantHB := "0700000000000000" + "0500000000000000" +
		"000000000000f83f" + // uptime 1.5
		"0200000000000000" + // queue depth 2
		"0000000000000000" // retired span-ring slot
	if g := hex.EncodeToString(hb.encode()); g != wantHB {
		t.Errorf("heartbeat payload bytes changed:\n got  %s\n want %s", g, wantHB)
	}

	freq := FlightReqPayload{ID: "00c0ffee", Reason: "drift"}
	wantFReq := "0800000000000000" + hex.EncodeToString([]byte("00c0ffee")) +
		"0500000000000000" + hex.EncodeToString([]byte("drift"))
	if g := hex.EncodeToString(freq.encode()); g != wantFReq {
		t.Errorf("flight-req payload bytes changed:\n got  %s\n want %s", g, wantFReq)
	}

	fack := FlightAckPayload{Dump: "f.jsonl"}
	wantFAck := "0700000000000000" + hex.EncodeToString([]byte("f.jsonl"))
	if g := hex.EncodeToString(fack.encode()); g != wantFAck {
		t.Errorf("flight-ack payload bytes changed:\n got  %s\n want %s", g, wantFAck)
	}
}

// twoFieldHeartbeat is the two-field {Frames, Ell} heartbeat no worker
// sends: the one heartbeat form carries the health block, so these
// bytes are truncated. FuzzFabricPayload keeps them as a seed.
var twoFieldHeartbeat, _ = hex.DecodeString("0700000000000000" + "0500000000000000")

// TestHeartbeatRejectsTwoFieldForm: the heartbeat has one five-slot
// form. The two-field prefix is rejected, and all-zero health fields
// still encode at full length.
func TestHeartbeatRejectsTwoFieldForm(t *testing.T) {
	if p, err := decodeHeartbeat(twoFieldHeartbeat); err == nil {
		t.Fatalf("two-field heartbeat decoded: %+v", p)
	}
	bare := HeartbeatPayload{Frames: 7, Ell: 5}
	enc := bare.encode()
	if len(enc) != 40 {
		t.Fatalf("heartbeat encodes to %d bytes, want 40", len(enc))
	}
	if got, err := decodeHeartbeat(enc); err != nil || got != bare {
		t.Fatalf("heartbeat round trip: %+v err %v", got, err)
	}
}

// TestHeartbeatSkipsRetiredRingSlot: a worker built before the span
// ring went reports the ring's occupancy in the heartbeat's last slot.
// Its heartbeat still decodes, the slot's value is dropped, and the
// re-encoded payload carries zero there at the same length.
func TestHeartbeatSkipsRetiredRingSlot(t *testing.T) {
	older, err := hex.DecodeString("0700000000000000" + "0500000000000000" +
		"000000000000f83f" + "0200000000000000" +
		"2800000000000000") // span-ring occupancy 40
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeHeartbeat(older)
	if err != nil {
		t.Fatalf("older worker's heartbeat: %v", err)
	}
	if want := (HeartbeatPayload{Frames: 7, Ell: 5, Uptime: 1.5, QueueDepth: 2}); got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	enc := got.encode()
	if len(enc) != len(older) || hex.EncodeToString(enc[32:]) != "0000000000000000" {
		t.Fatalf("re-encoded heartbeat %x, want the older one's length with a zero last slot", enc)
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	hello := HelloPayload{Shard: 9, Cfg: sketch.Config{
		Ell0: 20, Nu: 5, Eps: 0.1, Beta: 1, Seed: 42,
	}}
	if got, err := decodeHello(hello.encode()); err != nil || got != hello {
		t.Errorf("hello round trip: %+v err %v", got, err)
	}

	ing := IngestPayload{D: 3, Rows: [][]float64{{1, math.Pi, -0}, {math.Inf(1), 1e-300, 5}}}
	got, err := decodeIngest(ing.encode())
	if err != nil || got.D != ing.D || len(got.Rows) != len(ing.Rows) {
		t.Fatalf("ingest round trip: %+v err %v", got, err)
	}
	for i := range ing.Rows {
		for j := range ing.Rows[i] {
			if math.Float64bits(got.Rows[i][j]) != math.Float64bits(ing.Rows[i][j]) {
				t.Fatalf("ingest row %d[%d] not bit-exact", i, j)
			}
		}
	}

	cert := CertificatePayload{Cert: audit.Certificate{
		Rows: 100, Dim: 32, Ell: 12, Rotations: 9,
		ShrinkMass: 1.25, FrobMass: 200.5,
		Time: time.Unix(0, 1700000000000000000).UTC(),
	}}
	if got, err := decodeCertificate(cert.encode()); err != nil || got != cert {
		t.Errorf("certificate round trip: %+v err %v", got, err)
	}

	ep := ErrorPayload{Code: ErrCodeFatal, Msg: "worker on fire"}
	if got, err := decodeError(ep.encode()); err != nil || got != ep {
		t.Errorf("error round trip: %+v err %v", got, err)
	}

	hb := HeartbeatPayload{Frames: 11, Ell: 6, Uptime: 12.5, QueueDepth: 1}
	if got, err := decodeHeartbeat(hb.encode()); err != nil || got != hb {
		t.Errorf("heartbeat round trip: %+v err %v", got, err)
	}

	fr := FlightReqPayload{ID: "deadbeefcafef00d", Reason: "remote_leg_lost"}
	if got, err := decodeFlightReq(fr.encode()); err != nil || got != fr {
		t.Errorf("flight-req round trip: %+v err %v", got, err)
	}
	fa := FlightAckPayload{Dump: "flight-w0-x.jsonl"}
	if got, err := decodeFlightAck(fa.encode()); err != nil || got != fa {
		t.Errorf("flight-ack round trip: %+v err %v", got, err)
	}
}

// TestTracedReplyWrapper round-trips the reply form, [inner payload |
// span records], every worker response carries. Each record keeps the
// reserved 8-byte slot after its duration (once the span's thread CPU
// time): it encodes as zero, and a non-zero value from an older worker
// decodes and is dropped.
func TestTracedReplyWrapper(t *testing.T) {
	recs := []obs.SpanRecord{
		{
			Name:     "worker_absorb",
			Start:    time.Unix(0, 1700000000000000000).UTC(),
			Duration: 1500 * time.Microsecond,
			Trace:    obs.ID(0xAAAA),
			Span:     obs.ID(0xBBBB),
			Parent:   obs.ID(0xCCCC),
			Attrs:    map[string]string{"shard": "1", "rows": "64"},
		},
		{Name: "bare", Start: time.Unix(0, 1).UTC(), Trace: obs.ID(1), Span: obs.ID(2)},
	}
	inner := IngestAckPayload{Ell: 3}.encode()
	wrapped := wrapReply(inner, recs)

	// Layout: inner length and bytes, record count, then per record
	// name (length-prefixed), start, duration, reserved slot, three IDs
	// and the length-prefixed attribute pairs.
	wantLen := 8 + len(inner) + 8
	for _, rec := range recs {
		wantLen += 8 + len(rec.Name) + 6*8 + 8
		for k, v := range rec.Attrs {
			wantLen += 16 + len(k) + len(v)
		}
	}
	if len(wrapped) != wantLen {
		t.Fatalf("reply is %d bytes, layout says %d", len(wrapped), wantLen)
	}
	slot := 8 + len(inner) + 8 + 8 + len(recs[0].Name) + 16
	if v := binary.LittleEndian.Uint64(wrapped[slot:]); v != 0 {
		t.Fatalf("reserved slot encodes as %d, want 0", v)
	}

	check := func(what string, b []byte) {
		t.Helper()
		gotInner, gotRecs, err := unwrapReply(b)
		if err != nil {
			t.Fatalf("%s: unwrap: %v", what, err)
		}
		if !bytes.Equal(gotInner, inner) {
			t.Fatalf("%s: inner payload mangled", what)
		}
		if len(gotRecs) != len(recs) {
			t.Fatalf("%s: got %d records, want %d", what, len(gotRecs), len(recs))
		}
		for i := range recs {
			g, w := gotRecs[i], recs[i]
			if g.Name != w.Name || !g.Start.Equal(w.Start) || g.Duration != w.Duration ||
				g.Trace != w.Trace || g.Span != w.Span || g.Parent != w.Parent {
				t.Fatalf("%s: record %d mismatch: %+v vs %+v", what, i, g, w)
			}
			if len(g.Attrs) != len(w.Attrs) {
				t.Fatalf("%s: record %d attrs mismatch: %v vs %v", what, i, g.Attrs, w.Attrs)
			}
			for k, v := range w.Attrs {
				if g.Attrs[k] != v {
					t.Fatalf("%s: record %d attr %q: %q vs %q", what, i, k, g.Attrs[k], v)
				}
			}
		}
		// Canonical: re-wrapping the unwrapped parts gives this
		// encoder's bytes, with the reserved slot back at zero.
		if !bytes.Equal(wrapReply(gotInner, gotRecs), wrapped) {
			t.Fatalf("%s: reply form not canonical", what)
		}
	}
	check("current", wrapped)
	// An older worker wrote the span's thread CPU time into the slot.
	old := append([]byte(nil), wrapped...)
	binary.LittleEndian.PutUint64(old[slot:], uint64(200*time.Microsecond))
	check("older worker", old)

	// Empty both ways.
	gotInner, gotRecs, err := unwrapReply(wrapReply(nil, nil))
	if err != nil || gotInner != nil || len(gotRecs) != 0 {
		t.Fatalf("empty wrapper round trip: %v %v %v", gotInner, gotRecs, err)
	}
	// Truncations error, never panic.
	for i := 0; i < len(wrapped); i++ {
		if _, _, err := unwrapReply(wrapped[:i]); err == nil && i < len(wrapped) {
			// Prefixes that happen to decode must re-encode to themselves.
			in2, r2, _ := unwrapReply(wrapped[:i])
			if !bytes.Equal(wrapReply(in2, r2), wrapped[:i]) {
				t.Fatalf("truncated wrapper at %d decoded non-canonically", i)
			}
		}
	}
}

// zeroDimIngest is an ingest header claiming maxIngestRows rows of
// dimension zero and carrying no row bytes.
var zeroDimIngest, _ = hex.DecodeString("0000000000000000" + "0000400000000000")

func TestPayloadDecodeErrors(t *testing.T) {
	// Truncations must error, never panic, for every decoder.
	hello := HelloPayload{Shard: 1, Cfg: sketch.Config{Ell0: 4, Beta: 1}}.encode()
	if _, err := decodeHello(hello[:len(hello)-1]); err == nil {
		t.Error("truncated hello decoded")
	}
	// Trailing bytes are rejected — payloads are exact.
	if _, err := decodeHello(append(hello, 0)); err == nil {
		t.Error("hello with trailing bytes decoded")
	}
	// A well-formed hello carrying a configuration no worker can sketch
	// under is refused, not adopted.
	for name, cfg := range map[string]sketch.Config{
		"Ell0 0":               {Beta: 1},
		"Ell0 past the bound":  {Ell0: maxHelloRank + 1, Beta: 1},
		"negative Nu":          {Ell0: 4, Nu: -1, Beta: 1},
		"Nu past the bound":    {Ell0: 4, Nu: maxHelloRank + 1, Beta: 1},
		"NaN Beta":             {Ell0: 4, Beta: math.NaN()},
		"infinite Eps":         {Ell0: 4, Beta: 1, Eps: math.Inf(-1)},
		"rank-adaptive, Eps 0": {Ell0: 4, Beta: 1, RankAdaptive: true},
		"rank-adaptive, Eps<0": {Ell0: 4, Beta: 1, RankAdaptive: true, Eps: -0.1},
	} {
		if _, err := decodeHello(HelloPayload{Cfg: cfg}.encode()); err == nil {
			t.Errorf("hello with %s decoded", name)
		}
	}
	// The retired estimator slot (after shard, Ell0, Nu, Eps, Beta and
	// RankAdaptive) must hold 0.
	slot := append([]byte(nil), hello...)
	slot[4+4*8+1] = 1
	if _, err := decodeHello(slot); err == nil {
		t.Error("hello with estimator slot 1 decoded")
	}
	// An ingest header whose row count outruns the payload must be
	// rejected before allocation.
	lie := IngestPayload{D: 1, Rows: [][]float64{{1}}}.encode()
	lie[8] = 0xFF // claim 255 rows
	if _, err := decodeIngest(lie); err == nil {
		t.Error("lying ingest header decoded")
	}
	// Rows of dimension zero occupy no bytes, so the size check cannot
	// bound their count: a 16-byte header claiming 1<<22 of them must
	// not decode.
	if _, err := decodeIngest(zeroDimIngest); err == nil {
		t.Error("ingest of zero-dimension rows decoded")
	}
	if _, err := decodeIngest(IngestPayload{}.encode()); err != nil {
		t.Errorf("empty ingest: %v", err)
	}
	// An error payload claiming more message bytes than exist.
	el := ErrorPayload{Code: 1, Msg: "x"}.encode()
	el[4] = 0xFF
	if _, err := decodeError(el); err == nil {
		t.Error("lying error header decoded")
	}
}

// zeroReservedSlots returns a copy of a reply b, one unwrapReply
// accepts, with each span record's reserved slot set to zero: the
// bytes this encoder writes for the same reply.
func zeroReservedSlots(b []byte) []byte {
	out := append([]byte(nil), b...)
	d := &pdec{b: out}
	inner := d.i64()
	d.off += inner
	for n := d.i64(); n > 0; n-- {
		d.str()
		d.u64() // start
		d.u64() // duration
		binary.LittleEndian.PutUint64(out[d.off:], 0)
		d.off += 8 + 3*8 // reserved slot, trace/span/parent IDs
		for na := d.i64(); na > 0; na-- {
			d.str()
			d.str()
		}
	}
	return out
}

// FuzzFabricPayload throws arbitrary bytes at every payload decoder:
// none may panic, and whatever decodes must re-encode byte-identically
// (the payload encodings are canonical). The one exception is a span
// record's reserved slot in the reply form, which decodes from any
// value and re-encodes as zero.
func FuzzFabricPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(HelloPayload{Shard: 1, Cfg: sketch.Config{Ell0: 8, Beta: 1}}.encode())
	f.Add(IngestPayload{D: 2, Rows: [][]float64{{1, 2}}}.encode())
	f.Add(IngestAckPayload{Ell: 3}.encode())
	f.Add(CertificatePayload{}.encode())
	f.Add(HeartbeatPayload{Frames: 1}.encode())
	f.Add(twoFieldHeartbeat)
	f.Add(ErrorPayload{Code: 2, Msg: "boom"}.encode())
	f.Add(FlightReqPayload{ID: "beef", Reason: "drift"}.encode())
	f.Add(FlightAckPayload{Dump: "flight.jsonl"}.encode())
	f.Add(wrapReply(IngestAckPayload{Ell: 1}.encode(), []obs.SpanRecord{
		{Name: "worker_absorb", Trace: 1, Span: 2, Parent: 3, Attrs: map[string]string{"shard": "0"}},
	}))
	slotted := wrapReply(IngestAckPayload{Ell: 1}.encode(), []obs.SpanRecord{{Name: "w"}})
	binary.LittleEndian.PutUint64(slotted[len(slotted)-5*8:], 7) // an older worker's CPU slot
	f.Add(slotted)
	f.Add(zeroDimIngest)

	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := decodeHello(b); err == nil {
			if !bytes.Equal(p.encode(), b) {
				t.Fatal("hello not canonical")
			}
		}
		if p, err := decodeIngest(b); err == nil {
			if !bytes.Equal(p.encode(), b) {
				t.Fatal("ingest not canonical")
			}
		}
		if p, err := decodeIngestAck(b); err == nil {
			if !bytes.Equal(p.encode(), b) {
				t.Fatal("ingest-ack not canonical")
			}
		}
		if p, err := decodeCertificate(b); err == nil {
			if !bytes.Equal(p.encode(), b) {
				t.Fatal("certificate not canonical")
			}
		}
		if p, err := decodeHeartbeat(b); err == nil {
			if !bytes.Equal(p.encode(), b) {
				t.Fatal("heartbeat not canonical")
			}
		}
		if p, err := decodeError(b); err == nil {
			if !bytes.Equal(p.encode(), b) {
				t.Fatal("error not canonical")
			}
		}
		if p, err := decodeFlightReq(b); err == nil {
			if !bytes.Equal(p.encode(), b) {
				t.Fatal("flight-req not canonical")
			}
		}
		if p, err := decodeFlightAck(b); err == nil {
			if !bytes.Equal(p.encode(), b) {
				t.Fatal("flight-ack not canonical")
			}
		}
		if inner, recs, err := unwrapReply(b); err == nil {
			if !bytes.Equal(wrapReply(inner, recs), zeroReservedSlots(b)) {
				t.Fatal("reply form not canonical")
			}
		}
	})
}
