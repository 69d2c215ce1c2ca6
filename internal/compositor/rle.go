// Package compositor implements the sort-last image compositing step of
// the parallel renderer: plain direct send, SLIC-style scheduled direct
// send with a view-dependent precomputed schedule (Stompel et al., the
// algorithm the paper adopts), and a binary-swap baseline, plus the
// run-length compression of transparent pixels the paper's conclusions
// measure (~50% compositing-time reduction).
package compositor

import (
	"encoding/binary"
	"math"

	"repro/internal/img"
)

// rleSize returns the exact encoded size of the first n pixels of pix.
func rleSize(pix []float32, n int) int {
	size := 0
	i := 0
	for i < n {
		skip := 0
		for i < n && pix[4*i+3] == 0 {
			i++
			skip++
		}
		run := 0
		for i < n && pix[4*i+3] != 0 {
			i++
			run++
		}
		if skip == 0 && run == 0 {
			break
		}
		size += 8 + 16*run
	}
	return size
}

// encodeRLE compresses the first n RGBA pixels of pix by eliding runs of
// fully transparent pixels: the stream is a sequence of (skip, count,
// count*16 bytes of pixels) records walking the image in row-major order.
// It encodes into dst (which must be empty; nil allocates) — the
// steady-state path of the compositing loop, which allocates nothing once
// dst has grown to size. When dst must grow, the stream size is counted
// first and the buffer is sized exactly, so a frame loop never carries
// append slack.
func encodeRLE(dst []byte, pix []float32, n int) []byte {
	need := rleSize(pix, n)
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	dst = dst[:need]
	pos := 0
	i := 0
	for i < n {
		skip := 0
		for i < n && pix[4*i+3] == 0 {
			i++
			skip++
		}
		run := 0
		j := i
		for j < n && pix[4*j+3] != 0 {
			j++
			run++
		}
		if skip == 0 && run == 0 {
			break
		}
		binary.LittleEndian.PutUint32(dst[pos:], uint32(skip))
		binary.LittleEndian.PutUint32(dst[pos+4:], uint32(run))
		pos += 8
		for k := i; k < j; k++ {
			binary.LittleEndian.PutUint32(dst[pos:], math.Float32bits(pix[4*k]))
			binary.LittleEndian.PutUint32(dst[pos+4:], math.Float32bits(pix[4*k+1]))
			binary.LittleEndian.PutUint32(dst[pos+8:], math.Float32bits(pix[4*k+2]))
			binary.LittleEndian.PutUint32(dst[pos+12:], math.Float32bits(pix[4*k+3]))
			pos += 16
		}
		i = j
	}
	return dst
}

// RawBytes is the uncompressed wire size of an image.
func RawBytes(m *img.Image) int64 { return int64(16 * m.W * m.H) }
