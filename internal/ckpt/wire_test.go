package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// TestWireGolden pins the wire format at the byte level: field offsets,
// endianness, the always-present trace block, and the CRC value. If
// this test breaks, the wire format changed and WireVersion must be
// bumped.
func TestWireGolden(t *testing.T) {
	cases := []struct {
		name string
		f    WireFrame
		want string
	}{
		{"untraced", WireFrame{Type: 3, Seq: 0x0102030405060708, Payload: []byte("abc")},
			"41464142" + // magic "AFAB"
				"03000000" + // version 3
				"03000000" + // type 3
				"0807060504030201" + // seq, little-endian
				"0300000000000000" + // payload length 3
				"0000000000000000" + // trace ID: zero, untraced
				"0000000000000000" + // parent span ID: zero, untraced
				"616263" + // "abc"
				"032b2cb9"}, // crc32 IEEE over everything before
		{"traced", WireFrame{Type: 3, Seq: 0x0102030405060708,
			Trace: 0x1122334455667788, Span: 0x99AABBCCDDEEFF00, Payload: []byte("abc")},
			"41464142" + "03000000" + "03000000" +
				"0807060504030201" + "0300000000000000" +
				"8877665544332211" + // trace ID, little-endian
				"00ffeeddccbbaa99" + // parent span ID, little-endian
				"616263" + "227460b8"},
		{"empty", WireFrame{Type: 1},
			"41464142" + "03000000" + "01000000" +
				"0000000000000000" + "0000000000000000" +
				"0000000000000000" + "0000000000000000" + "59378446"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if g := hex.EncodeToString(EncodeWireFrame(tc.f)); g != tc.want {
				t.Fatalf("wire frame bytes changed:\n got  %s\n want %s", g, tc.want)
			}
		})
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		for _, trace := range []struct{ tr, sp uint64 }{{0, 0}, {0xDEAD, 0xBEEF}, {7, 0}, {0, 5}} {
			in := WireFrame{Type: 7, Seq: 42, Trace: trace.tr, Span: trace.sp, Payload: payload}
			enc := EncodeWireFrame(in)
			out, err := ReadWireFrame(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if out.Type != in.Type || out.Seq != in.Seq || out.Trace != in.Trace ||
				out.Span != in.Span || !bytes.Equal(out.Payload, in.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
			}
			if !bytes.Equal(EncodeWireFrame(out), enc) {
				t.Fatalf("re-encode not canonical")
			}
		}
	}
}

// Frames of the two retired layouts: version 1 had no trace block,
// version 2 carried one only when traced. Both must fail with
// ErrVersion; FuzzWireDecode keeps them as seeds.
var (
	retiredV1, _ = hex.DecodeString("41464142" + "01000000" + "03000000" +
		"0807060504030201" + "0300000000000000" + "616263" + "9d823ff1")
	retiredV2, _ = hex.DecodeString("41464142" + "02000000" + "03000000" +
		"0807060504030201" + "0300000000000000" +
		"8877665544332211" + "00ffeeddccbbaa99" + "616263" + "d98273ff")
)

func TestWireDecodeErrors(t *testing.T) {
	valid := EncodeWireFrame(WireFrame{Type: 2, Seq: 9, Payload: []byte("payload")})

	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		// A clean close before any byte is io.EOF; a close mid-frame is
		// io.ErrUnexpectedEOF.
		{"empty", nil, io.EOF},
		{"torn in prefix", valid[:6], io.ErrUnexpectedEOF},
		{"torn in header", valid[:13], io.ErrUnexpectedEOF},
		{"torn in trace block", valid[:30], io.ErrUnexpectedEOF},
		{"torn before crc end", valid[:len(valid)-1], io.ErrUnexpectedEOF},
		{"bad magic", corrupt(func(b []byte) { b[0] ^= 0xFF }), ErrBadMagic},
		{"future version", corrupt(func(b []byte) { b[4] = 99 }), ErrVersion},
		{"version 1", retiredV1, ErrVersion},
		{"version 2", retiredV2, ErrVersion},
		{"truncated tail", valid[:len(valid)-2], io.ErrUnexpectedEOF},
		{"length lies", corrupt(func(b []byte) { b[20]++ }), io.ErrUnexpectedEOF},
		{"length over cap", corrupt(func(b []byte) { binary.LittleEndian.PutUint64(b[20:28], MaxWirePayload+1) }), ErrTruncated},
		{"flipped trace bit", corrupt(func(b []byte) { b[30] ^= 1 }), ErrChecksum},
		{"flipped payload bit", corrupt(func(b []byte) { b[wireHeaderLen+1] ^= 4 }), ErrChecksum},
		{"flipped crc", corrupt(func(b []byte) { b[len(b)-1] ^= 1 }), ErrChecksum},
	}
	for _, tc := range cases {
		if _, err := ReadWireFrame(bytes.NewReader(tc.b)); !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadWireFrame err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReadWireFrameAllocatesAsBytesArrive: a header that claims the
// largest legal payload and is then cut off must fail with
// io.ErrUnexpectedEOF having allocated about one read chunk, not the
// claimed gigabyte; and a payload several chunks long, delivered in
// short reads, still arrives whole.
func TestReadWireFrameAllocatesAsBytesArrive(t *testing.T) {
	hdr := EncodeWireFrame(WireFrame{Type: 4, Seq: 1})[:wireHeaderLen]
	binary.LittleEndian.PutUint64(hdr[20:28], MaxWirePayload)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadWireFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header claiming %d bytes then EOF: err = %v, want io.ErrUnexpectedEOF", MaxWirePayload, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("header claiming %d bytes then EOF allocated %d bytes, want at most 4 MiB", MaxWirePayload, got)
	}

	payload := bytes.Repeat([]byte("0123456789abcdef"), (5*wireReadChunk/2)/16+3)
	in := WireFrame{Type: 6, Seq: 2, Trace: 3, Span: 4, Payload: payload}
	out, err := ReadWireFrame(iotest.HalfReader(bytes.NewReader(EncodeWireFrame(in))))
	if err != nil {
		t.Fatalf("multi-chunk frame: %v", err)
	}
	if out.Type != in.Type || out.Seq != in.Seq || out.Trace != in.Trace ||
		out.Span != in.Span || !bytes.Equal(out.Payload, payload) {
		t.Fatal("multi-chunk frame does not round-trip")
	}
}

// FuzzWireDecode throws arbitrary bytes at the wire decoder: it must
// never panic, and any frame that decodes must re-encode to the bytes
// it read (canonical form). Seeds cover a valid frame plus the classic
// corruptions and one frame of each retired version, which must not
// decode.
func FuzzWireDecode(f *testing.F) {
	valid := EncodeWireFrame(WireFrame{Type: 5, Seq: 77, Payload: []byte("shard state")})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-2] ^= 0x10
	f.Add(flipped)
	f.Add(EncodeWireFrame(WireFrame{Type: 1}))
	f.Add(EncodeWireFrame(WireFrame{Type: 5, Seq: 77, Trace: 0xABCD, Span: 0x1234, Payload: []byte("traced")}))
	f.Add(EncodeWireFrame(WireFrame{Type: 9, Trace: 1}))
	f.Add([]byte("AFAB"))
	f.Add(retiredV1)
	f.Add(retiredV2)

	f.Fuzz(func(t *testing.T, b []byte) {
		if fr, err := ReadWireFrame(bytes.NewReader(b)); err == nil {
			enc := EncodeWireFrame(fr)
			if !bytes.Equal(enc, b[:len(enc)]) {
				t.Fatalf("stream-decoded frame does not re-encode canonically")
			}
		}
	})
}
