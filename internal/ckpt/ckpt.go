// Package ckpt implements versioned, checksummed binary checkpoints
// for the stateful sketching structures: FrequentDirections,
// RankAdaptiveFD, PrioritySampler, the streaming ARAMS sketcher, and
// the online pipeline.Monitor. A checkpoint written mid-stream and
// restored on restart resumes the computation bit-for-bit — RNG
// positions included — which is what makes crash-restart invisible to
// the sketch's error guarantees.
//
// Frame layout (all integers little-endian):
//
//	offset 0   magic   "ACKP" (4 bytes)
//	offset 4   version uint32 (currently 2)
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
)

// Magic is the frame signature "ACKP".
const Magic = uint32('A') | uint32('C')<<8 | uint32('K')<<16 | uint32('P')<<24

// Version is the current frame version. Decoders accept every version
// up to and including this one — version 2 added the FD Frobenius-mass
// field (error-bound certificates) and the monitor's audit state, both
// decoded as absent from version-1 frames; version 3 replaced the
// monitor's single optional sketch with the streaming engine's
// positional shard-state list (a v1/v2 monitor frame decodes as a
// one-shard layout) — and reject frames from a newer version rather
// than guessing at their layout.
const Version = 3

// headerLen is magic+version+kind+length; trailerLen is the CRC.
const (
	headerLen  = 4 + 4 + 4 + 8
	trailerLen = 4
)

// maxPayload caps how large a frame's declared payload may be, so a
// corrupted length field cannot drive a multi-gigabyte allocation.
const maxPayload = 1 << 32

// Kind identifies which state type a frame's payload encodes.
type Kind uint32

const (
	KindFD           Kind = 1 // sketch.FDState
	KindRankAdaptive Kind = 2 // sketch.RankAdaptiveState
	KindPriority     Kind = 3 // sketch.PriorityState
	KindARAMS        Kind = 4 // sketch.ARAMSState
	KindMonitor      Kind = 5 // pipeline.MonitorState
)

// String names the kind for logs and the ckptinfo tool.
func (k Kind) String() string {
	switch k {
	case KindFD:
		return "frequent-directions"
	case KindRankAdaptive:
		return "rank-adaptive-fd"
	case KindPriority:
		return "priority-sampler"
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

// Peek reads the frame header of b and verifies the checksum, without
// decoding the payload. It is the ckptinfo tool's entry point.
func Peek(b []byte) (Header, error) {
	if len(b) < headerLen+trailerLen {
		return Header{}, ErrTruncated
	}
	if binary.LittleEndian.Uint32(b[0:4]) != Magic {
		return Header{}, ErrBadMagic
	}
	h := Header{
		Version:    binary.LittleEndian.Uint32(b[4:8]),
		Kind:       Kind(binary.LittleEndian.Uint32(b[8:12])),
		PayloadLen: binary.LittleEndian.Uint64(b[12:20]),
	}
	if h.Version < 1 || h.Version > Version {
		return h, fmt.Errorf("%w: %d", ErrVersion, h.Version)
	}
	if h.PayloadLen > maxPayload || uint64(len(b)) != headerLen+h.PayloadLen+trailerLen {
		return h, ErrTruncated
	}
	body := headerLen + int(h.PayloadLen)
	h.ChecksumOK = crc32.ChecksumIEEE(b[:body]) == binary.LittleEndian.Uint32(b[body:body+trailerLen])
	if !h.ChecksumOK {
		return h, ErrChecksum
	}
	return h, nil
}

// frame completes the checkpoint frame around the payload e holds:
// the header goes into the headerLen bytes reserved at the front of
// e.b, the checksum is appended behind the payload.
func (e *enc) frame(kind Kind) []byte {
	body := len(e.b)
	binary.LittleEndian.PutUint32(e.b[0:4], Magic)
	binary.LittleEndian.PutUint32(e.b[4:8], Version)
	binary.LittleEndian.PutUint32(e.b[8:12], uint32(kind))
	binary.LittleEndian.PutUint64(e.b[12:20], uint64(body-headerLen))
	return binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b[:body]))
}

// unframe validates the header and checksum and returns the header and
// payload bytes (the header carries the frame version the decoder
// branches on for pre-v2 layouts).
func unframe(b []byte) (Header, []byte, error) {
	h, err := Peek(b)
	if err != nil {
		return Header{}, nil, err
	}
	return h, b[headerLen : headerLen+int(h.PayloadLen)], nil
}

// Encode writes state as one checkpoint frame to w. See Marshal for
// the accepted types.
func Encode(w io.Writer, state any) error {
	b, err := Marshal(state)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Decode reads one checkpoint frame from r and returns the restored
// state (same pointer types Unmarshal returns).
func Decode(r io.Reader) (any, error) {
	b, err := io.ReadAll(io.LimitReader(r, headerLen+maxPayload+trailerLen+1))
	if err != nil {
		return nil, err
	}
	return Unmarshal(b)
}

// --- primitive field stream ---
//
// Payloads are flat streams of little-endian primitives in a fixed
// field order per type. The encoder builds a byte slice; the decoder
// walks it with a sticky error and hard bounds checks, so corrupt
// declared lengths fail cleanly instead of panicking or allocating
// unbounded memory.

// enc appends fields to b, or — when sizing — only adds their encoded
// length to n.
type enc struct {
	b      []byte
	sizing bool
	n      int
}

func (e *enc) u8(v uint8) {
	if e.sizing {
		e.n++
		return
	}
	e.b = append(e.b, v)
}
func (e *enc) u64(v uint64) {
	if e.sizing {
		e.n += 8
		return
	}
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

// floats writes a length-prefixed []float64, growing the buffer at
// most once for the whole slice.
func (e *enc) floats(v []float64) {
	e.i64(len(v))
	if e.sizing {
		e.n += 8 * len(v)
		return
	}
	off := len(e.b)
	e.b = slices.Grow(e.b, 8*len(v))[:off+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(e.b[off+8*i:], math.Float64bits(x))
	}
}

// str writes a length-prefixed UTF-8 string (added in frame version 2
// for the audit journal).
func (e *enc) str(v string) {
	e.i64(len(v))
	if e.sizing {
		e.n += len(v)
		return
	}
	e.b = append(e.b, v...)
}

type dec struct {
	b   []byte
	off int
	err error
	// ver is the frame version being decoded; fields added in later
	// versions are skipped when decoding older frames.
	ver uint32
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.b) {
		d.fail("truncated payload at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("truncated payload at offset %d", d.off)
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
		d.fail("invalid bool byte at offset %d", d.off-1)
		return false
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
	if n < 0 || elemBytes > 0 && n > (len(d.b)-d.off)/elemBytes {
		d.fail("implausible element count %d at offset %d", n, d.off-8)
		return 0
	}
	return n
}

// floats reads a length-prefixed []float64. A zero-length slice
// decodes to nil so re-encoding is byte-identical regardless of how
// the producer spelled "empty".
func (d *dec) floats() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// str reads a length-prefixed string.
func (d *dec) str() string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

// finish verifies the whole payload was consumed — trailing garbage
// means a layout mismatch even when the checksum passes.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("ckpt: %d trailing payload bytes", len(d.b)-d.off)
	}
	return nil
}
