package ckpt

import (
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"arams/internal/audit"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// Marshal encodes a state snapshot as one checkpoint frame. Accepted
// types (pointers or values where noted):
//
//	sketch.FDState / *sketch.FDState                     → KindFD
//	sketch.RankAdaptiveState / *sketch.RankAdaptiveState → KindRankAdaptive
//	sketch.ARAMSState / *sketch.ARAMSState               → KindARAMS
//	*pipeline.MonitorState                               → KindMonitor
func Marshal(state any) ([]byte, error) {
	// The in-memory form of Save's encoder: the same two passes, with
	// the second writing into a frame allocated once at its final size.
	// Callers that need the bytes themselves (the fabric wire, content
	// digests) use it; a file is better served by Save, which never
	// holds the frame.
	b, _, err := encodeFrame(nil, state)
	return b, err
}

// encodeState writes state's payload fields to e and reports which
// kind of frame they make.
func encodeState(e *enc, state any) (Kind, error) {
	switch s := state.(type) {
	case sketch.FDState:
		encodeFD(e, &s)
		return KindFD, nil
	case *sketch.FDState:
		encodeFD(e, s)
		return KindFD, nil
	case sketch.RankAdaptiveState:
		encodeRankAdaptive(e, &s)
		return KindRankAdaptive, nil
	case *sketch.RankAdaptiveState:
		encodeRankAdaptive(e, s)
		return KindRankAdaptive, nil
	case sketch.ARAMSState:
		return KindARAMS, encodeARAMS(e, &s)
	case *sketch.ARAMSState:
		return KindARAMS, encodeARAMS(e, s)
	case *pipeline.MonitorState:
		return KindMonitor, encodeMonitor(e, s)
	default:
		return 0, fmt.Errorf("ckpt: cannot marshal %T", state)
	}
}

// Unmarshal decodes one checkpoint frame. It returns one of
// *sketch.FDState, *sketch.RankAdaptiveState, *sketch.ARAMSState,
// *pipeline.MonitorState. A monitor state owns its storage, as Load's
// does, but allocated rather than drawn from mat's vector pool, so a
// state decoded only to be inspected takes nothing from it; the one
// restore from it adopts the window vectors and copies the sketches.
// Nothing it returns aliases b.
func Unmarshal(b []byte) (any, error) {
	h, err := Peek(b)
	if err != nil {
		return nil, err
	}
	return decodeState(&dec{b: b[headerLen : headerLen+int(h.PayloadLen)]}, h.Kind)
}

// decodeStream is Unmarshal over a reader that will deliver exactly
// size bytes (a file of that length): same states, same errors in the
// same precedence, through one chunkLen buffer instead of a slice of
// the whole frame. The declared payload length is held against size
// before anything is allocated.
func decodeStream(r io.Reader, size int64) (any, error) {
	var hdr [headerLen]byte
	if size >= headerLen+trailerLen {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("ckpt: reading header: %w", err)
		}
	}
	h, err := parseHeader(hdr[:], size)
	if err != nil {
		return nil, err
	}
	chunk := chunks.Get().(*[chunkLen]byte)
	defer chunks.Put(chunk)
	return decodeState(&dec{
		b:    chunk[:0],
		r:    r,
		left: int64(h.PayloadLen),
		crc:  crc32.ChecksumIEEE(hdr[:]),
	}, h.Kind)
}

// decodeState reads the payload fields of a kind frame from d and
// closes the decode. An unknown kind is a sticky error like any other,
// so a streamed frame still has its checksum verified first.
func decodeState(d *dec, kind Kind) (any, error) {
	var state any
	switch kind {
	case KindFD:
		state = decodeFD(d)
	case KindRankAdaptive:
		state = decodeRankAdaptive(d)
	case KindARAMS:
		state = decodeARAMS(d)
	case KindMonitor:
		state = decodeMonitor(d)
	default:
		d.err = fmt.Errorf("%w: %d", ErrBadKind, uint32(kind))
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return state, nil
}

// --- FrequentDirections ---

func encodeFD(e *enc, s *sketch.FDState) {
	e.i64(s.Ell)
	e.i64(s.D)
	e.i64(s.NextZero)
	e.i64(s.Rotations)
	e.i64(s.Seen)
	e.f64(s.TotalDelta)
	e.f64(s.FrobMass)
	e.floats(s.Kept)
	e.floats32(s.Incoming)
}

func decodeFD(d *dec) *sketch.FDState {
	s := &sketch.FDState{
		Ell:      d.i64(),
		D:        d.i64(),
		NextZero: d.i64(),
	}
	s.Rotations = d.i64()
	s.Seen = d.i64()
	s.TotalDelta = d.f64()
	s.FrobMass = d.f64()
	c := d.pooledFDCap(s)
	s.Kept = d.floatsCap(c)
	if len(s.Kept) != c {
		c = 0 // the rows were not all there; the decode fails below
	}
	s.Incoming = d.floats32Cap(c)
	return s
}

// pooledFDCap is the capacity a streamed monitor frame's sketch blocks
// decode into: the whole ℓ×d arrays once the sketch has rotated — ℓ
// occupied float64 rows, so the float64 reservation is the floats the
// payload holds and the float32 one half that, and a restore adopts
// both (sketch.AdoptARAMSState) — and 0 otherwise, which decodes the
// occupied rows alone for the restore to copy, as a sketch frame and the
// slice form always do.
func (d *dec) pooledFDCap(s *sketch.FDState) int {
	if !d.pooled || s.Ell <= 0 || s.D <= 0 || s.NextZero < s.Ell || s.NextZero > 2*s.Ell {
		return 0
	}
	// The element count that follows bounds Ell·D by the payload left;
	// a header claiming more fails there, so stop before the product can
	// overflow.
	if s.Ell > d.remaining()/8/s.D {
		return 0
	}
	return s.Ell * s.D
}

// --- RNG ---

func encodeRNG(e *enc, s rng.State) {
	e.u64(s.Hi)
	e.u64(s.Lo)
	e.u64(s.IncHi)
	e.u64(s.IncLo)
	e.bool(s.HaveGauss)
	e.f64(s.Gauss)
}

func decodeRNG(d *dec) rng.State {
	return rng.State{
		Hi:        d.u64(),
		Lo:        d.u64(),
		IncHi:     d.u64(),
		IncLo:     d.u64(),
		HaveGauss: d.bool(),
		Gauss:     d.f64(),
	}
}

// --- RankAdaptiveFD ---

func encodeRankAdaptive(e *enc, s *sketch.RankAdaptiveState) {
	encodeFD(e, &s.FD)
	e.i64(s.Nu)
	e.f64(s.Eps)
	e.i64(0) // retired estimator slot
	encodeRNG(e, s.RNG)
	e.i64(len(s.Recent))
	for _, row := range s.Recent {
		e.floats(row)
	}
	e.bool(s.IncreaseEll)
	e.i64(s.RowsLeft)
	e.i64(s.Grows)
}

func decodeRankAdaptive(d *dec) *sketch.RankAdaptiveState {
	s := &sketch.RankAdaptiveState{FD: *decodeFD(d)}
	s.Nu = d.i64()
	s.Eps = d.f64()
	d.retired("rank-adaptive estimator")
	s.RNG = decodeRNG(d)
	// Each ring row costs at least a length prefix (8 bytes).
	n := d.count(8)
	if n > 0 {
		s.Recent = make([][]float64, n)
		for i := range s.Recent {
			s.Recent[i] = d.floats()
		}
	}
	s.IncreaseEll = d.bool()
	s.RowsLeft = d.i64()
	s.Grows = d.i64()
	return s
}

// --- ARAMS ---

func encodeARAMS(e *enc, s *sketch.ARAMSState) error {
	e.i64(s.Cfg.Ell0)
	e.i64(s.Cfg.Nu)
	e.f64(s.Cfg.Eps)
	e.f64(s.Cfg.Beta)
	e.bool(s.Cfg.RankAdaptive)
	e.i64(0) // retired estimator slot
	e.u64(s.Cfg.Seed)
	e.i64(s.D)
	encodeRNG(e, s.RNG)
	switch {
	case s.RankAdaptive != nil && s.FD == nil:
		e.bool(true)
		encodeRankAdaptive(e, s.RankAdaptive)
	case s.FD != nil && s.RankAdaptive == nil:
		e.bool(false)
		encodeFD(e, s.FD)
	default:
		return fmt.Errorf("ckpt: ARAMS state must carry exactly one sketch variant")
	}
	return nil
}

func decodeARAMS(d *dec) *sketch.ARAMSState {
	s := &sketch.ARAMSState{}
	s.Cfg.Ell0 = d.i64()
	s.Cfg.Nu = d.i64()
	s.Cfg.Eps = d.f64()
	s.Cfg.Beta = d.f64()
	s.Cfg.RankAdaptive = d.bool()
	d.retired("ARAMS estimator")
	s.Cfg.Seed = d.u64()
	s.D = d.i64()
	s.RNG = decodeRNG(d)
	if d.bool() {
		s.RankAdaptive = decodeRankAdaptive(d)
	} else {
		s.FD = decodeFD(d)
	}
	return s
}

// --- Monitor ---

func encodeMonitor(e *enc, s *pipeline.MonitorState) error {
	if s.Window <= 0 {
		// A released state (MonitorState.Release) has Window 0 and no
		// frames or sketches; written out it would restore as nothing.
		return fmt.Errorf("ckpt: monitor state has window=%d (released?)", s.Window)
	}
	e.i64(s.Window)
	e.i64(s.Ingests)
	e.i64(len(s.Frames))
	for _, f := range s.Frames {
		e.i64(f.Tag)
		e.floats32(f.Vec)
	}
	// Shard slots are positional (slot i = engine shard i) and may be
	// nil for shards that have not received a frame, so each entry
	// carries a presence bool.
	e.i64(len(s.Shards))
	for _, ss := range s.Shards {
		e.bool(ss != nil)
		if ss != nil {
			if err := encodeARAMS(e, ss); err != nil {
				return err
			}
		}
	}
	// Optional audit state (drift detectors + event journal).
	e.bool(s.Audit != nil)
	if s.Audit != nil {
		encodeAuditState(e, s.Audit)
	}
	e.bool(s.Journal != nil)
	if s.Journal != nil {
		encodeJournal(e, s.Journal)
	}
	return nil
}

func decodeMonitor(d *dec) *pipeline.MonitorState {
	d.pooled = d.r != nil
	s := &pipeline.MonitorState{
		Window:  d.i64(),
		Ingests: d.i64(),
	}
	// Each frame costs at least tag + vector length prefix (16 bytes).
	n := d.count(16)
	if n > 0 {
		s.Frames = make([]pipeline.FrameState, n)
		for i := range s.Frames {
			s.Frames[i].Tag = d.i64()
			s.Frames[i].Vec = d.floats32()
		}
	}
	// Each shard slot costs at least its presence bool (1 byte).
	ns := d.count(1)
	if ns > 0 {
		s.Shards = make([]*sketch.ARAMSState, ns)
		for i := range s.Shards {
			if d.bool() {
				s.Shards[i] = decodeARAMS(d)
			}
		}
	}
	if d.bool() {
		s.Audit = decodeAuditState(d)
	}
	if d.bool() {
		s.Journal = decodeJournal(d)
	}
	// Every vector and buffer above is this state's alone.
	s.Own()
	return s
}

// --- audit state ---

func encodeDetector(e *enc, s *audit.DetectorState) {
	e.str(s.Kind)
	e.f64(s.Thresh)
	e.f64(s.Slack)
	e.i64(s.Warmup)
	e.i64(s.N)
	e.f64(s.Mean)
	e.f64(s.Pos)
	e.f64(s.PosExt)
	e.f64(s.Neg)
	e.f64(s.NegExt)
}

func decodeDetector(d *dec) audit.DetectorState {
	s := audit.DetectorState{
		Kind:   d.str(),
		Thresh: d.f64(),
		Slack:  d.f64(),
		Warmup: d.i64(),
		N:      d.i64(),
		Mean:   d.f64(),
		Pos:    d.f64(),
		PosExt: d.f64(),
		Neg:    d.f64(),
		NegExt: d.f64(),
	}
	if _, err := audit.NewDetectorFromState(s); err != nil {
		d.fail("%v", err)
	}
	return s
}

func encodeAuditState(e *enc, s *audit.State) {
	e.u64(uint64(s.Batches))
	e.u64(uint64(s.Alarms))
	encodeDetector(e, &s.Residual)
	encodeDetector(e, &s.Accept)
}

func decodeAuditState(d *dec) *audit.State {
	return &audit.State{
		Batches:  int64(d.u64()),
		Alarms:   int64(d.u64()),
		Residual: decodeDetector(d),
		Accept:   decodeDetector(d),
	}
}

// encodeJournal serializes the retained event ring. Timestamps are
// stored as Unix nanoseconds, which round-trips exactly (monotonic
// clock readings are deliberately dropped — a restored process has a
// different one anyway).
func encodeJournal(e *enc, s *audit.JournalState) {
	e.u64(uint64(s.Seq))
	e.i64(len(s.Events))
	for _, ev := range s.Events {
		e.u64(uint64(ev.Seq))
		e.u64(uint64(ev.Time.UnixNano()))
		e.str(string(ev.Kind))
		e.str(ev.Msg)
		e.i64(len(ev.Attrs))
		for _, a := range ev.Attrs {
			e.str(a.Key)
			e.f64(a.Val)
		}
	}
}

func decodeJournal(d *dec) *audit.JournalState {
	s := &audit.JournalState{Seq: int64(d.u64())}
	// Each event costs at least seq+time+2 length prefixes+attr count
	// (40 bytes).
	n := d.count(40)
	if n > 0 {
		s.Events = make([]audit.Event, n)
		for i := range s.Events {
			ev := &s.Events[i]
			ev.Seq = int64(d.u64())
			ev.Time = time.Unix(0, int64(d.u64())).UTC()
			ev.Kind = audit.EventKind(d.str())
			ev.Msg = d.str()
			// Each attr costs at least a key length prefix + value.
			na := d.count(16)
			if na > 0 {
				ev.Attrs = make([]audit.Attr, na)
				for j := range ev.Attrs {
					ev.Attrs[j].Key = d.str()
					ev.Attrs[j].Val = d.f64()
				}
			}
		}
	}
	return s
}
