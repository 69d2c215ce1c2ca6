package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/img"
	"repro/internal/pool"
)

// The streaming wire format: each frame is a fixed 20-byte header —
// magic "QSF1", then step, width, height and flags as little-endian
// uint32 — followed by width*height*4 float32 pixels (RGBA planes
// interleaved exactly as img.Image.Pix), little-endian. Frames
// concatenate back to back on a /frames stream; a single /frame response
// body in FormatRaw is exactly one wire frame. The engine encodes each
// rendered frame once — into the cache entry it fills, or into its
// session's scratch when the frame is not cached — and every response
// writes those bytes.

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

// AppendWireFrame appends one encoded frame to dst and returns the
// extended slice (append semantics: steady-state reuse of a sized buffer
// allocates nothing). The room for the whole frame is reserved once, so no
// append below reallocates; the words are appended rather than put at an
// index, which on amd64 measured slower than appending.
func AppendWireFrame(dst []byte, step int, frame *img.Image, degraded bool) []byte {
	dst = slices.Grow(dst, WireHeaderSize+4*len(frame.Pix))
	var flags uint32
	if degraded {
		flags |= WireFlagDegraded
	}
	dst = append(dst, WireMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(step))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frame.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frame.H))
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	for _, p := range frame.Pix {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p))
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
	frame = new(img.Image)
	if step, degraded, rest, err = decodeWireInto(b, frame); err != nil {
		return 0, nil, false, nil, err
	}
	return step, frame, degraded, rest, nil
}

// decodeWireInto is the one wire-frame parser: it checks the header, the
// size bound (each side at most MaxFrameDim, tested before the two are
// multiplied, so no header can wrap the product) and the payload length
// before touching dst, then decodes the
// first frame in b into dst (resized with pool.Grow, so a reused dst
// decodes in place) and returns its step, degraded flag and the bytes
// after it.
func decodeWireInto(b []byte, dst *img.Image) (step int, degraded bool, rest []byte, err error) {
	if len(b) < WireHeaderSize {
		return 0, false, nil, fmt.Errorf("serve: wire frame shorter than header: %d bytes", len(b))
	}
	if string(b[:4]) != WireMagic {
		return 0, false, nil, fmt.Errorf("serve: bad wire magic %q", b[:4])
	}
	step = int(int32(binary.LittleEndian.Uint32(b[4:])))
	w := int(binary.LittleEndian.Uint32(b[8:]))
	h := int(binary.LittleEndian.Uint32(b[12:]))
	flags := binary.LittleEndian.Uint32(b[16:])
	if w <= 0 || h <= 0 || w > MaxFrameDim || h > MaxFrameDim {
		return 0, false, nil, fmt.Errorf("serve: wire frame size %dx%d out of range", w, h)
	}
	n := 4 * w * h
	body := b[WireHeaderSize:]
	if len(body) < 4*n {
		return 0, false, nil, fmt.Errorf("serve: wire frame truncated: have %d of %d payload bytes", len(body), 4*n)
	}
	dst.W, dst.H = w, h
	dst.Pix = pool.Grow(dst.Pix, n)
	for i := range dst.Pix {
		dst.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return step, flags&WireFlagDegraded != 0, body[4*n:], nil
}
