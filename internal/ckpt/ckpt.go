// Package ckpt implements versioned, checksummed binary checkpoints
// for the stateful sketching structures: FrequentDirections, the
// streaming ARAMS sketcher (rank-adaptive or not), and the online
// pipeline.Monitor. A checkpoint written mid-stream and
// restored on restart resumes the computation bit-for-bit — RNG
// positions included — which is what makes crash-restart invisible to
// the sketch's error guarantees.
//
// Frame layout (all integers little-endian):
//
//	offset 0   magic   "ACKP" (4 bytes)
//	offset 4   version uint32 (the kind's: 5 for a monitor, 4 for a sketch)
//	offset 8   kind    uint32 (which state type the payload holds)
//	offset 12  length  uint64 (payload byte count)
//	offset 20  payload (type-specific field stream, see codec.go)
//	offset 20+length   crc32  uint32 (IEEE, over bytes [0, 20+length))
//
// The decoder is fully bounds-checked and never panics on corrupt
// input: a flipped bit surfaces as ErrBadMagic, ErrVersion, ErrChecksum
// or a wrapped field-level error, never as a crash. Encoding is
// canonical — encode→decode→re-encode is byte-identical — so
// checkpoints can be compared and deduplicated by content.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"arams/internal/mat"
	"arams/internal/sketch"
)

// Magic is the frame signature "ACKP".
const Magic = uint32('A') | uint32('C')<<8 | uint32('K')<<16 | uint32('P')<<24

// Version is the frame version of a monitor checkpoint, the kind that
// holds the sliding window and the shards' sketches: its window frames
// are float32, the precision the window keeps (since version 4), and
// each sketch is a sketchVersion payload (since version 5). An older
// monitor frame is rejected with ErrVersion, not converted on decode:
// converted and re-encoded it would not be the bytes it was read from,
// which breaks the canonical-encoding promise — the reason versions 1
// and 2 (one optional sketch per monitor, no audit state, no FD
// Frobenius mass), which were never deployed, lost their decode
// branches too. Every decoder rejects a frame whose version is not its
// kind's with ErrVersion rather than guess at its layout.
const Version = 5

// sketchVersion is the frame version of the FD and ARAMS kinds — those
// the fabric wire carries as shard state included. Since version 4 an
// FD payload holds its kept rows as float64 and its incoming rows as
// float32, the precision the sketch stores them at, and no SVD backend
// slot: the rotation has one factorization. A version 3 sketch frame
// fails with ErrVersion.
const sketchVersion = 4

// version returns the frame version kind k is written and read at, and
// false for a kind no decoder knows (which decodes to ErrBadKind).
func (k Kind) version() (uint32, bool) {
	switch k {
	case KindMonitor:
		return Version, true
	case KindFD, KindARAMS:
		return sketchVersion, true
	}
	return 0, false
}

// headerLen is magic+version+kind+length; trailerLen is the CRC.
const (
	headerLen  = 4 + 4 + 4 + 8
	trailerLen = 4
)

// maxPayload caps how large a frame's declared payload may be, so a
// corrupted length field cannot drive a multi-gigabyte allocation.
const maxPayload = 1 << 32

// chunkLen is the one buffer the streaming forms (Save, Load)
// hold besides the state itself: fields are staged in it on their way
// to the writer, or refilled into it on their way from the reader.
const chunkLen = 256 << 10

// chunks recycles the streaming forms' chunk: a call takes one and puts
// it back when it returns. Nothing decoded aliases it — floats, floats32
// and str copy out of it — and Marshal's frame is never one.
var chunks = sync.Pool{New: func() any { return new([chunkLen]byte) }}

// Kind identifies which state type a frame's payload encodes.
type Kind uint32

const (
	KindFD Kind = 1 // sketch.FDState
	// 2 was a bare rank-adaptive FD frame and 3 a priority-sampler
	// frame, kinds no program wrote: rank adaptation travels inside an
	// ARAMS frame. The numbers stay reserved (never reused) and decode
	// to ErrBadKind.
	KindARAMS   Kind = 4 // sketch.ARAMSState
	KindMonitor Kind = 5 // pipeline.MonitorState
)

// String names the kind for logs and the ckptinfo tool.
func (k Kind) String() string {
	switch k {
	case KindFD:
		return "frequent-directions"
	case KindARAMS:
		return "arams"
	case KindMonitor:
		return "monitor"
	default:
		return fmt.Sprintf("Kind(%d)", uint32(k))
	}
}

// Sentinel decode errors. Corruption of different frame regions maps
// to different sentinels so operators can tell a truncated file from a
// bit flip from a version skew.
var (
	ErrBadMagic  = errors.New("ckpt: bad magic (not a checkpoint frame)")
	ErrVersion   = errors.New("ckpt: unsupported frame version")
	ErrBadKind   = errors.New("ckpt: unknown state kind")
	ErrChecksum  = errors.New("ckpt: checksum mismatch (corrupt frame)")
	ErrTruncated = errors.New("ckpt: truncated frame")
)

// Header describes a frame without decoding its payload.
type Header struct {
	Version    uint32
	Kind       Kind
	PayloadLen uint64
	ChecksumOK bool
}

// parseHeader validates the fixed header of a frame that is size bytes
// long in all. hdr holds at least the first headerLen of them whenever
// size admits a frame at all. Both decoders start here, so a frame
// whose declared payload disagrees with the bytes actually present is
// refused before anything is allocated for it.
func parseHeader(hdr []byte, size int64) (Header, error) {
	if size < headerLen+trailerLen {
		return Header{}, ErrTruncated
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != Magic {
		return Header{}, ErrBadMagic
	}
	h := Header{
		Version:    binary.LittleEndian.Uint32(hdr[4:8]),
		Kind:       Kind(binary.LittleEndian.Uint32(hdr[8:12])),
		PayloadLen: binary.LittleEndian.Uint64(hdr[12:20]),
	}
	if want, known := h.Kind.version(); known && h.Version != want {
		return h, fmt.Errorf("%w: %d for a %v frame", ErrVersion, h.Version, h.Kind)
	}
	if h.PayloadLen > maxPayload || uint64(size) != headerLen+h.PayloadLen+trailerLen {
		return h, ErrTruncated
	}
	return h, nil
}

// Peek reads the frame header of b and verifies the checksum, without
// decoding the payload. It is the ckptinfo tool's entry point.
func Peek(b []byte) (Header, error) {
	h, err := parseHeader(b, int64(len(b)))
	if err != nil {
		return h, err
	}
	body := headerLen + int(h.PayloadLen)
	h.ChecksumOK = crc32.ChecksumIEEE(b[:body]) == binary.LittleEndian.Uint32(b[body:body+trailerLen])
	if !h.ChecksumOK {
		return h, ErrChecksum
	}
	return h, nil
}

// --- primitive field stream ---
//
// Payloads are flat streams of little-endian primitives in a fixed
// field order per type. There is one field codec — the enc and dec
// methods below and the encodeX/decodeX functions of codec.go over
// them — with two sinks and two sources: a frame-sized slice
// (Marshal/Unmarshal) or a writer/reader behind one chunkLen buffer
// (Save, Load). The decoder walks its input with a sticky error
// and hard bounds checks, so corrupt declared lengths fail cleanly
// instead of panicking or allocating unbounded memory. Encoder and
// Decoder hand its slice form to internal/fabric, which writes and
// reads every wire payload but shard state with it: the hello (whose
// sketch.Config is the ARAMS payload's, encodeConfig), rows, acks,
// certificates, heartbeats, errors, flight requests and span records.

// enc stages fields in b, or — when sizing — only adds their encoded
// length to n. With w nil, b was allocated at the frame's final size
// and becomes the frame; with w set, b is a bounded chunk that room
// flushes to w, folding the flushed bytes into crc, whenever the next
// field does not fit.
type enc struct {
	b      []byte
	sizing bool
	n      int

	w       io.Writer
	crc     uint32 // checksum of everything flushed so far
	flushed int    // bytes flushed so far
	err     error  // first write error; later flushes are dropped
}

// room makes space for k more bytes in b (k ≤ chunkLen).
func (e *enc) room(k int) {
	if len(e.b)+k > cap(e.b) {
		e.flush()
	}
}

// flush empties the chunk into w. In the slice form b grows instead,
// like any append target: an Encoder's does as fields arrive, and
// Marshal's never, while the sizing pass is right (encodeFrame reports
// a disagreement).
func (e *enc) flush() {
	if e.w == nil {
		e.b = slices.Grow(e.b, 8)
		return
	}
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.b)
	e.flushed += len(e.b)
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func (e *enc) u8(v uint8) {
	if e.sizing {
		e.n++
		return
	}
	e.room(1)
	e.b = append(e.b, v)
}

// u32 is for the header, the trailer and fabric payloads: no checkpoint
// payload field is one, so the sizing pass leaves it out.
func (e *enc) u32(v uint32) {
	e.room(4)
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.room(8)
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}
func (e *enc) i64(v int)     { e.u64(uint64(int64(v))) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// floats writes a length-prefixed []float64 in as many pieces as the
// space left in b dictates — one, for the slice form.
func (e *enc) floats(v []float64) {
	e.i64(len(v))
	if e.sizing {
		e.n += 8 * len(v)
		return
	}
	for len(v) > 0 {
		k := min((cap(e.b)-len(e.b))/8, len(v))
		if k == 0 {
			e.flush()
			continue
		}
		off := len(e.b)
		e.b = e.b[:off+8*k]
		for i, x := range v[:k] {
			binary.LittleEndian.PutUint64(e.b[off+8*i:], math.Float64bits(x))
		}
		v = v[k:]
	}
}

// floats32 is floats for a []float32, four bytes an element.
func (e *enc) floats32(v []float32) {
	e.i64(len(v))
	if e.sizing {
		e.n += 4 * len(v)
		return
	}
	for len(v) > 0 {
		k := min((cap(e.b)-len(e.b))/4, len(v))
		if k == 0 {
			e.flush()
			continue
		}
		off := len(e.b)
		e.b = e.b[:off+4*k]
		for i, x := range v[:k] {
			binary.LittleEndian.PutUint32(e.b[off+4*i:], math.Float32bits(x))
		}
		v = v[k:]
	}
}

// str writes a length-prefixed UTF-8 string.
func (e *enc) str(v string) {
	e.i64(len(v))
	if e.sizing {
		e.n += len(v)
		return
	}
	for len(v) > 0 {
		k := min(cap(e.b)-len(e.b), len(v))
		if k == 0 {
			e.flush()
			continue
		}
		e.b = append(e.b, v[:k]...)
		v = v[k:]
	}
}

// encodeFrame is the one encoder behind Marshal (w nil: the frame is
// returned) and Save (the frame goes to w — the bytes Marshal returns,
// streamed through one chunkLen buffer; only its length is returned).
// The sizing pass only adds up the payload length — constant time per
// float slice — so the header, which carries that length, can go out
// first and the payload never has to exist in one piece.
func encodeFrame(w io.Writer, state any) ([]byte, int, error) {
	size := &enc{sizing: true}
	kind, err := encodeState(size, state)
	if err != nil {
		return nil, 0, err
	}
	total := headerLen + size.n + trailerLen
	e := &enc{w: w}
	if w == nil {
		e.b = make([]byte, 0, total)
	} else {
		chunk := chunks.Get().(*[chunkLen]byte)
		defer chunks.Put(chunk)
		e.b = chunk[:0]
	}
	version, _ := kind.version()
	e.u32(Magic)
	e.u32(version)
	e.u32(uint32(kind))
	e.u64(uint64(size.n))
	if _, err := encodeState(e, state); err != nil {
		return nil, 0, err
	}
	if got := e.flushed + len(e.b) - headerLen; got != size.n {
		return nil, 0, fmt.Errorf("ckpt: %T payload sized at %d bytes but encoded to %d", state, size.n, got)
	}
	e.room(trailerLen) // before the sum: what a flush here writes must be in it
	e.u32(crc32.Update(e.crc, crc32.IEEETable, e.b))
	if w == nil {
		return e.b, total, nil
	}
	e.flush()
	if e.err != nil {
		return nil, 0, e.err
	}
	return nil, total, nil
}

// dec walks a payload. The slice form holds all of it in b. The
// streaming form (r set) holds a chunk of it: need slides the unread
// tail to the front of b and refills behind it from r, folding every
// byte read into crc, and left counts the payload bytes still in r.
// Because the checksum of a streamed frame is only known at its end,
// finish drains what a failed decode left unread and reports a
// checksum mismatch in preference to the field error it caused — the
// precedence the slice form gets by verifying the checksum first.
type dec struct {
	b   []byte
	off int
	err error

	// pooled is set while a monitor frame streams in (Load): its window
	// vectors come from mat.GetVec32, and a rotated sketch's two blocks
	// from mat.GetVec and mat.GetVec32 at their full ℓ×d capacity (see
	// pooledFDCap), storage a
	// restore takes over and its engine's Close gives back. The slice
	// form allocates them: its callers mostly inspect what they decode
	// and drop it, which would drain the pool the engines recycle into.
	pooled bool

	r     io.Reader
	left  int64  // payload bytes not yet read from r
	base  int    // payload offset of b[0]
	crc   uint32 // checksum of header and payload bytes read so far
	ioErr error  // reading r failed; nothing about the frame is known
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// pos is the payload offset of the next unread byte.
func (d *dec) pos() int { return d.base + d.off }

// remaining is how many payload bytes are still unread.
func (d *dec) remaining() int { return len(d.b) - d.off + int(d.left) }

// need reports whether k more bytes (k ≤ chunkLen) are readable at
// b[off:], refilling the chunk when streaming; it fails the decode
// when the payload ends first.
func (d *dec) need(k int) bool {
	if d.err != nil {
		return false
	}
	if d.off+k > len(d.b) && d.left > 0 {
		d.refill()
	}
	if d.off+k > len(d.b) {
		d.fail("truncated payload at offset %d", d.pos())
		return false
	}
	return true
}

// refill slides the unread tail of the chunk to its front and reads as
// much more payload behind it as fits.
func (d *dec) refill() {
	d.base += d.off
	n := copy(d.b[:cap(d.b)], d.b[d.off:])
	d.off = 0
	more := int(min(int64(cap(d.b)-n), d.left))
	d.b = d.b[:n+more]
	if _, err := io.ReadFull(d.r, d.b[n:]); err != nil {
		// The size was checked against the header up front, so the
		// source shrank or failed under us.
		d.ioErr = fmt.Errorf("ckpt: reading payload: %w", err)
		d.b, d.left = d.b[:n], 0
		if d.err == nil {
			d.err = d.ioErr
		}
		return
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.b[n:])
	d.left -= int64(more)
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int     { return int(int64(d.u64())) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte at offset %d", d.pos()-1)
		return false
	}
}

// retired reads a slot the layout keeps for a retired field, always
// written as 0, and fails the decode on anything else.
func (d *dec) retired(name string) {
	if v := d.i64(); v != 0 {
		d.fail("%s slot holds %d, want 0", name, v)
	}
}

// count reads a non-negative element count and verifies that `count ×
// elemBytes` elements could still fit in the remaining payload before
// the caller allocates for them.
func (d *dec) count(elemBytes int) int {
	n := d.i64()
	if d.err != nil {
		return 0
	}
	if n < 0 || elemBytes > 0 && n > d.remaining()/elemBytes {
		d.fail("implausible element count %d at offset %d", n, d.pos()-8)
		return 0
	}
	return n
}

// floats reads a length-prefixed []float64, converting straight from
// the input into the slice it returns — in one piece from a slice, a
// chunk at a time from a reader. A zero-length slice decodes to nil so
// re-encoding is byte-identical regardless of how the producer spelled
// "empty".
func (d *dec) floats() []float64 { return d.floatsCap(0) }

// floatsCap is floats into an array of capacity c drawn from mat.GetVec
// when c is at least the decoded length and the slice is not empty; the
// rest of that array is zero.
func (d *dec) floatsCap(c int) []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	var out []float64
	if c >= n {
		out = mat.GetVec(c)[:n]
	} else {
		out = make([]float64, n)
	}
	for rest := out; len(rest) > 0; {
		if !d.need(8) {
			return nil
		}
		k := min((len(d.b)-d.off)/8, len(rest))
		src := d.b[d.off : d.off+8*k]
		for i := range rest[:k] {
			rest[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
		d.off += 8 * k
		rest = rest[k:]
	}
	return out
}

// floats32 is floats for a []float32: the count is bounded by four
// bytes an element, the least one can take. A pooled decode draws it
// from mat.GetVec32.
func (d *dec) floats32() []float32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	var out []float32
	if d.pooled {
		out = mat.GetVec32(n)
	} else {
		out = make([]float32, n)
	}
	return d.fill32(out)
}

// floats32Cap is floats32 into an array of capacity c drawn from
// mat.GetVec32 when c is at least the decoded length, also when that
// length is 0; the rest of that array is zero. With c 0 it is floats32.
func (d *dec) floats32Cap(c int) []float32 {
	if c == 0 {
		return d.floats32()
	}
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	if n > c {
		return d.fill32(make([]float32, n))
	}
	return d.fill32(mat.GetVec32(c)[:n])
}

// fill32 reads len(out) float32 elements into out.
func (d *dec) fill32(out []float32) []float32 {
	for rest := out; len(rest) > 0; {
		if !d.need(4) {
			return nil
		}
		k := min((len(d.b)-d.off)/4, len(rest))
		src := d.b[d.off : d.off+4*k]
		for i := range rest[:k] {
			rest[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
		d.off += 4 * k
		rest = rest[k:]
	}
	return out
}

// str reads a length-prefixed string.
func (d *dec) str() string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return ""
	}
	if n <= chunkLen {
		if !d.need(n) {
			return ""
		}
		v := string(d.b[d.off : d.off+n])
		d.off += n
		return v
	}
	// Longer than the chunk: collect it piecewise.
	v := make([]byte, 0, n)
	for len(v) < n {
		if !d.need(1) {
			return ""
		}
		k := min(len(d.b)-d.off, n-len(v))
		v = append(v, d.b[d.off:d.off+k]...)
		d.off += k
	}
	return string(v)
}

// finish closes the decode: when streaming it first reads the rest of
// the payload and the trailer and verifies the checksum; then it
// reports the sticky field error, or payload the decoder did not
// consume — trailing garbage means a layout mismatch even when the
// checksum passes.
func (d *dec) finish() error {
	trailing := d.remaining()
	if d.r != nil {
		for d.ioErr == nil && d.left > 0 {
			d.off = len(d.b)
			d.refill()
		}
		var sum [trailerLen]byte
		if d.ioErr == nil {
			if _, err := io.ReadFull(d.r, sum[:]); err != nil {
				d.ioErr = fmt.Errorf("ckpt: reading checksum: %w", err)
			}
		}
		if d.ioErr != nil {
			return d.ioErr
		}
		if d.crc != binary.LittleEndian.Uint32(sum[:]) {
			return ErrChecksum
		}
	}
	if d.err != nil {
		return d.err
	}
	if trailing != 0 {
		return fmt.Errorf("ckpt: %d trailing payload bytes", trailing)
	}
	return nil
}

// Encoder is the field codec's slice form for a payload that is not a
// checkpoint frame (a fabric message's): enc's fields, appended to a
// buffer that grows as they arrive.
type Encoder struct{ e enc }

// NewEncoder returns an encoder with room for n bytes before it grows.
func NewEncoder(n int) *Encoder { return &Encoder{enc{b: make([]byte, 0, n)}} }

// U32, U64, I64, F64 and Str write enc's fields.
func (x *Encoder) U32(v uint32)  { x.e.u32(v) }
func (x *Encoder) U64(v uint64)  { x.e.u64(v) }
func (x *Encoder) I64(v int)     { x.e.i64(v) }
func (x *Encoder) F64(v float64) { x.e.f64(v) }
func (x *Encoder) Str(v string)  { x.e.str(v) }

// Blob writes a length-prefixed byte string, str's layout.
func (x *Encoder) Blob(v []byte) {
	x.e.i64(len(v))
	x.e.b = append(x.e.b, v...)
}

// Config writes a sketch configuration in the ARAMS payload's layout.
func (x *Encoder) Config(c sketch.Config) { encodeConfig(&x.e, c) }

// Bytes returns what has been written.
func (x *Encoder) Bytes() []byte { return x.e.b }

// Decoder is the field codec's slice form for reading what an Encoder
// wrote: dec's bounds checks and sticky error over one payload, with
// canonical bools and Finish refusing trailing bytes.
type Decoder struct{ d dec }

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{dec{b: b}} }

// U32, U64, I64, F64 and Str read dec's fields: zero once the decode
// has failed.
func (x *Decoder) U32() uint32  { return x.d.u32() }
func (x *Decoder) U64() uint64  { return x.d.u64() }
func (x *Decoder) I64() int     { return x.d.i64() }
func (x *Decoder) F64() float64 { return x.d.f64() }
func (x *Decoder) Str() string  { return x.d.str() }

// Blob reads a length-prefixed byte string as a view of the input, nil
// when it is empty.
func (x *Decoder) Blob() []byte {
	n := x.d.count(1)
	if n == 0 || !x.d.need(n) {
		return nil
	}
	v := x.d.b[x.d.off : x.d.off+n : x.d.off+n]
	x.d.off += n
	return v
}

// Config reads a sketch configuration in the ARAMS payload's layout.
func (x *Decoder) Config() sketch.Config { return decodeConfig(&x.d) }

// Len reads an element count and fails the decode when it is negative
// or above max.
func (x *Decoder) Len(max int) int {
	n := x.d.i64()
	if x.d.err == nil && (n < 0 || n > max) {
		x.d.fail("count %d at offset %d outside [0, %d]", n, x.d.pos()-8, max)
	}
	if x.d.err != nil {
		return 0
	}
	return n
}

// Remaining is how many bytes are still unread.
func (x *Decoder) Remaining() int { return x.d.remaining() }

// Err returns the first decode error.
func (x *Decoder) Err() error { return x.d.err }

// Finish returns the first decode error, or an error when bytes remain
// unread: a payload is exact, not a prefix.
func (x *Decoder) Finish() error { return x.d.finish() }
