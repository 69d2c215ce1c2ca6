// Package compositor implements the sort-last image compositing step of
// the parallel renderer: plain direct send, SLIC-style scheduled direct
// send with a view-dependent precomputed schedule (Stompel et al., the
// algorithm the paper adopts), and a binary-swap baseline, plus the
// run-length compression of transparent pixels the paper's conclusions
// measure (~50% compositing-time reduction).
package compositor

import (
	"encoding/binary"
	"fmt"
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

// EncodeRLEInto is encodeRLE over a whole image: the stream PasteRLE reads
// back, and the form a composited strip takes on its way to the output
// processor. dst is overwritten and returned (regrown exactly when too
// small; nil allocates).
func EncodeRLEInto(dst []byte, m *img.Image) []byte {
	return encodeRLE(dst[:0], m.Pix, m.W*m.H)
}

// rleRecord reads the record header at data[pos:] of a stream over n
// pixels whose pixel cursor stands at i. It returns the pixel the record's
// run starts at (i plus the skip) and the run's length; the run's 16*run
// pixel bytes follow the 8-byte header and lie inside data. Every reader of
// a stream validates through it, as the tests' reference decoder
// (DecodeRLE) does: truncated header, negative or overrunning run.
func rleRecord(data []byte, pos, i, n int) (start, run int, err error) {
	if pos+8 > len(data) {
		return 0, 0, fmt.Errorf("compositor: truncated RLE header at %d", pos)
	}
	skip := int(binary.LittleEndian.Uint32(data[pos:]))
	run = int(binary.LittleEndian.Uint32(data[pos+4:]))
	i += skip
	// The negative guards matter on 32-bit builds (uint32 -> int wraps there).
	if i < 0 || i+run > n || run < 0 || pos+8+16*run > len(data) {
		return 0, 0, fmt.Errorf("compositor: RLE overrun (i=%d run=%d)", i, run)
	}
	return i, run, nil
}

// PasteRLE writes the lit pixels of an EncodeRLEInto stream over a
// dst.W x st.H strip into rows [st.Y0, st.Y0+st.H) of dst. Skip records
// touch nothing, so over rows that are already clear the result is the
// encoded strip bit for bit, with no decoded image in between — a strip
// spans the frame's full width, so every run is one contiguous range of
// dst.Pix. The stream is validated before the first write (strip rows
// outside dst, then record by record through rleRecord): a rejected
// stream leaves dst untouched.
//
//repro:allocfree
func PasteRLE(dst *img.Image, st Strip, data []byte) error {
	if st.Y0 < 0 || st.H < 0 || st.Y0 > dst.H || st.H > dst.H-st.Y0 {
		return fmt.Errorf("compositor: strip rows [%d, %d) outside a %d-row frame", st.Y0, st.Y0+st.H, dst.H)
	}
	n := dst.W * st.H
	for pos, i := 0, 0; pos < len(data); {
		start, run, err := rleRecord(data, pos, i, n)
		if err != nil {
			return err
		}
		pos += 8 + 16*run
		i = start + run
	}
	rows := dst.Pix[4*st.Y0*dst.W:][:4*n]
	for pos, i := 0, 0; pos < len(data); {
		start, run, _ := rleRecord(data, pos, i, n)
		src := data[pos+8:][:16*run]
		out := rows[4*start:][:4*run]
		for k := range out {
			out[k] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*k:]))
		}
		pos += 8 + 16*run
		i = start + run
	}
	return nil
}

// RawBytes is the uncompressed wire size of an image.
func RawBytes(m *img.Image) int64 { return int64(16 * m.W * m.H) }
