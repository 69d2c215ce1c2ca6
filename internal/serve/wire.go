package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/img"
)

// The streaming wire format: each frame is a fixed 20-byte header —
// magic "QSF1", then step, width, height and flags as little-endian
// uint32 — followed by width*height*4 float32 pixels (RGBA planes
// interleaved exactly as img.Image.Pix), little-endian. Frames
// concatenate back to back on a /frames stream; a single /frame response
// body in FormatRaw is exactly one wire frame. Encoding appends into a
// caller-owned buffer so the steady-state serve path reuses one buffer
// per request.

const (
	// WireMagic opens every wire frame.
	WireMagic = "QSF1"
	// WireHeaderSize is the fixed frame-header length in bytes.
	WireHeaderSize = 20
	// WireFlagDegraded marks a frame built from degraded (stale or
	// dropped) input — the stream equivalent of the X-Quakeserve-Degraded
	// response header.
	WireFlagDegraded = 1 << 0
)

// maxWirePixels bounds the pixel payload DecodeWireFrame will allocate
// for, so a corrupt header cannot demand an arbitrary allocation.
const maxWirePixels = MaxFrameDim * MaxFrameDim

// AppendWireFrame appends one encoded frame to dst and returns the
// extended slice (append semantics: steady-state reuse of a sized buffer
// allocates nothing).
func AppendWireFrame(dst []byte, step int, frame *img.Image, degraded bool) []byte {
	var hdr [WireHeaderSize]byte
	copy(hdr[:4], WireMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(step))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(frame.W))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(frame.H))
	var flags uint32
	if degraded {
		flags |= WireFlagDegraded
	}
	binary.LittleEndian.PutUint32(hdr[16:], flags)
	dst = append(dst, hdr[:]...)
	for _, p := range frame.Pix {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(p))
		dst = append(dst, b[:]...)
	}
	return dst
}

// EncodeWireFrameInto encodes one frame into buf's storage (grown as
// needed, reused otherwise) and returns the encoded slice.
func EncodeWireFrameInto(buf []byte, step int, frame *img.Image, degraded bool) []byte {
	return AppendWireFrame(buf[:0], step, frame, degraded)
}

// DecodeWireFrame decodes the first wire frame in b into a fresh image,
// returning the step, image, degraded flag and the remaining bytes.
// It is the client-side counterpart of AppendWireFrame, used by the
// test suite and example clients; allocation per call is fine there.
//
//repro:allow deadexport: bench
func DecodeWireFrame(b []byte) (step int, frame *img.Image, degraded bool, rest []byte, err error) {
	if len(b) < WireHeaderSize {
		return 0, nil, false, nil, fmt.Errorf("serve: wire frame shorter than header: %d bytes", len(b))
	}
	if string(b[:4]) != WireMagic {
		return 0, nil, false, nil, fmt.Errorf("serve: bad wire magic %q", b[:4])
	}
	step = int(int32(binary.LittleEndian.Uint32(b[4:])))
	w := int(binary.LittleEndian.Uint32(b[8:]))
	h := int(binary.LittleEndian.Uint32(b[12:]))
	flags := binary.LittleEndian.Uint32(b[16:])
	if w <= 0 || h <= 0 || w*h > maxWirePixels {
		return 0, nil, false, nil, fmt.Errorf("serve: wire frame size %dx%d out of range", w, h)
	}
	n := 4 * w * h
	body := b[WireHeaderSize:]
	if len(body) < 4*n {
		return 0, nil, false, nil, fmt.Errorf("serve: wire frame truncated: have %d of %d payload bytes", len(body), 4*n)
	}
	frame = img.New(w, h)
	for i := range frame.Pix {
		frame.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return step, frame, flags&WireFlagDegraded != 0, body[4*n:], nil
}
