package ckpt

// Wire frames: the transport framing of the distributed sketch fabric
// (internal/fabric). A wire frame is the checkpoint frame's sibling —
// the same length-prefixed, versioned, CRC-trailed discipline, applied
// to messages in flight instead of state at rest — and shard-state
// payloads carried inside wire frames are themselves canonical
// checkpoint frames (Marshal/Unmarshal), so one codec certifies both
// the bytes on disk and the bytes on the wire.
//
// Wire frame layout (all integers little-endian), one fixed 44-byte
// header:
//
//	offset 0   magic   "AFAB" (4 bytes)
//	offset 4   version uint32 (3)
//	offset 8   type    uint32 (message type; owned by internal/fabric)
//	offset 12  seq     uint64 (request/response correlation)
//	offset 20  length  uint64 (payload byte count)
//	offset 28  trace   uint64 (trace ID; zero when untraced)
//	offset 36  span    uint64 (parent span ID; zero when untraced)
//	offset 44  payload
//	...        crc32 uint32 (IEEE, over every byte before it)
//
// The trace block lets a coordinator propagate its obs.SpanContext to a
// remote worker so the worker opens child spans inside the
// coordinator's trace; an untraced frame carries sixteen zero bytes
// there. Every frame has exactly one encoding, so decode→re-encode is
// byte-identical, a property the fuzz targets enforce.
//
// Like the checkpoint decoder, the wire decoder is fully
// bounds-checked and never panics on corrupt input: truncation,
// bit flips, bad magic, and version skew each surface as the matching
// sentinel error, and a corrupted length field cannot drive an
// oversized allocation.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// WireMagic is the wire-frame signature "AFAB" (Arams FABric).
const WireMagic = uint32('A') | uint32('F')<<8 | uint32('A')<<16 | uint32('B')<<24

// WireVersion is the wire-frame version, and the only one decoded:
// frames of any other version fail with ErrVersion rather than being
// guessed at.
const WireVersion = 3

// wireHeaderLen is magic+version+type+seq+length+trace+span, of which
// magic+version is the prefix; the trailer is the CRC32. WireOverhead
// is what a frame adds to its payload.
const (
	wirePrefixLen  = 4 + 4
	wireHeaderLen  = wirePrefixLen + 4 + 8 + 8 + 8 + 8
	wireTrailerLen = 4
	WireOverhead   = wireHeaderLen + wireTrailerLen
)

// MaxWirePayload caps a wire frame's declared payload so a corrupted
// or hostile length field cannot drive a multi-gigabyte allocation on
// the receiving end. Shard-state frames are the largest legitimate
// payload (a few MB for realistic ℓ and d), so 1 GiB is generous.
const MaxWirePayload = 1 << 30

// wireReadChunk is the payload buffer ReadWireFrame starts with and the
// least it grows by: the buffer grows as bytes arrive, not to the
// length the header claims, so a header that claims MaxWirePayload and
// then ends costs one chunk.
const wireReadChunk = 1 << 20

// WireFrame is one decoded fabric message: its type tag (interpreted
// by internal/fabric), the sender's sequence number, the trace context
// (zero when untraced — the IDs are obs span/trace IDs, kept as raw
// uint64 so ckpt does not depend on internal/obs), and the payload
// bytes.
type WireFrame struct {
	Type    uint32
	Seq     uint64
	Trace   uint64
	Span    uint64
	Payload []byte
}

// AppendWireFrame appends the encoded frame to dst and returns the
// extended slice. Encoding is canonical: encode→decode→re-encode is
// byte-identical.
func AppendWireFrame(dst []byte, f WireFrame) []byte {
	base := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, WireMagic)
	dst = binary.LittleEndian.AppendUint32(dst, WireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, f.Type)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(f.Payload)))
	dst = binary.LittleEndian.AppendUint64(dst, f.Trace)
	dst = binary.LittleEndian.AppendUint64(dst, f.Span)
	dst = append(dst, f.Payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[base:]))
}

// EncodeWireFrame encodes one fabric message as a standalone byte
// slice.
func EncodeWireFrame(f WireFrame) []byte {
	return AppendWireFrame(make([]byte, 0, WireOverhead+len(f.Payload)), f)
}

// checkWirePrefix validates the magic and version, the first
// wirePrefixLen bytes of a frame: a foreign or retired frame is
// rejected before anything waits for the rest of its header.
func checkWirePrefix(h []byte) error {
	if binary.LittleEndian.Uint32(h[0:4]) != WireMagic {
		return ErrBadMagic
	}
	if ver := binary.LittleEndian.Uint32(h[4:8]); ver != WireVersion {
		return fmt.Errorf("%w: wire version %d", ErrVersion, ver)
	}
	return nil
}

// parseWireHeader returns the frame a prefix-checked header describes
// (without payload) and the declared payload length.
func parseWireHeader(h []byte) (WireFrame, uint64, error) {
	n := binary.LittleEndian.Uint64(h[20:28])
	if n > MaxWirePayload {
		return WireFrame{}, 0, ErrTruncated
	}
	return WireFrame{
		Type:  binary.LittleEndian.Uint32(h[8:12]),
		Seq:   binary.LittleEndian.Uint64(h[12:20]),
		Trace: binary.LittleEndian.Uint64(h[28:36]),
		Span:  binary.LittleEndian.Uint64(h[36:44]),
	}, n, nil
}

// WriteWireFrame writes one encoded frame to w.
func WriteWireFrame(w io.Writer, f WireFrame) error {
	if uint64(len(f.Payload)) > MaxWirePayload {
		return fmt.Errorf("ckpt: wire payload %d exceeds cap", len(f.Payload))
	}
	_, err := w.Write(EncodeWireFrame(f))
	return err
}

// ReadWireFrame reads exactly one frame from r. It validates the
// header before reading the payload and grows the payload buffer as
// bytes arrive (see wireReadChunk), so what a corrupt or hostile length
// field costs is bounded by the bytes the sender actually delivers
// before the stream ends or the CRC check fails. An io.EOF before the first header byte is returned verbatim
// so callers can distinguish a clean close from a torn frame; EOF
// mid-frame becomes io.ErrUnexpectedEOF.
func ReadWireFrame(r io.Reader) (WireFrame, error) {
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return WireFrame{}, err
	}
	if _, err := io.ReadFull(r, hdr[1:wirePrefixLen]); err != nil {
		return WireFrame{}, unexpectedEOF(err)
	}
	if err := checkWirePrefix(hdr[:]); err != nil {
		return WireFrame{}, err
	}
	if _, err := io.ReadFull(r, hdr[wirePrefixLen:]); err != nil {
		return WireFrame{}, unexpectedEOF(err)
	}
	f, n, err := parseWireHeader(hdr[:])
	if err != nil {
		return WireFrame{}, err
	}
	total := int(n) + wireTrailerLen
	rest := make([]byte, 0, min(total, wireReadChunk))
	for len(rest) < total {
		if len(rest) == cap(rest) {
			rest = slices.Grow(rest, min(total-len(rest), wireReadChunk))
		}
		got, err := io.ReadFull(r, rest[len(rest):min(total, cap(rest))])
		rest = rest[:len(rest)+got]
		if err != nil {
			return WireFrame{}, unexpectedEOF(err)
		}
	}
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, rest[:n])
	if sum != binary.LittleEndian.Uint32(rest[n:]) {
		return WireFrame{}, ErrChecksum
	}
	if n > 0 {
		f.Payload = rest[:n:n]
	}
	return f, nil
}

// unexpectedEOF turns an EOF inside a frame into io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
