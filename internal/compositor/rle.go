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
// count*16 bytes of pixels) records walking the image in row-major order,
// the last one a (skip, 0) record when the pixels end transparent. It
// encodes into dst's storage (its contents are ignored; nil allocates) in
// one pass — the steady-state path of the compositing loop, which
// allocates nothing and sizes nothing once dst has grown to size (see
// appendRLE for how it grows).
func encodeRLE(dst []byte, pix []float32, n int) []byte {
	dst, trail := appendRLE(dst[:0], pix, n, 0)
	if trail == 0 {
		return dst
	}
	if len(dst)+8 > cap(dst) {
		grown := make([]byte, len(dst), len(dst)+8)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(trail))
	return binary.LittleEndian.AppendUint32(dst, 0)
}

// appendRLE appends encodeRLE's records of the first n pixels of pix to
// dst, with two differences that let streams be joined: the first
// record's skip also counts lead transparent pixels before pix, and the
// transparent pixels after the last lit one get no record — their count
// is returned as trail, for the caller to carry into the skip of whatever
// record comes next. Only a record that does not fit grows the buffer, and
// then to the exact size of the records written so far, this one, and
// rleSize of the pixels after it (where the next record starts afresh), so
// a frame loop never carries append slack and no append below reallocates.
// The words are appended rather than put at an index: on amd64 that
// measured faster.
func appendRLE(dst []byte, pix []float32, n, lead int) ([]byte, int) {
	i, skip := 0, lead
	for {
		for i < n && pix[4*i+3] == 0 {
			i++
			skip++
		}
		if i == n {
			return dst, skip
		}
		j := i
		for j < n && pix[4*j+3] != 0 {
			j++
		}
		run := j - i
		if end := len(dst) + 8 + 16*run; end > cap(dst) {
			grown := make([]byte, len(dst), end+rleSize(pix[4*j:], n-j))
			copy(grown, dst)
			dst = grown
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(skip))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(run))
		for _, v := range pix[4*i : 4*j] {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
		i, skip = j, 0
	}
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

// Stitch joins the strips of one w×h frame into one frame-wide run-length
// stream, appended strip by strip in row order: the form an assembled frame
// is kept in until its pixels are read. Over a cleared frame,
// PasteRLE(frame, Strip{H: h}, stream) then puts back exactly what pasting
// each accepted strip would, provided every pixel a raw strip holds at
// alpha 0 is +0 in all four channels (the stream drops those pixels, as a
// compressed strip already has). The transparent pixels between records
// are carried across strips, so a gap between strips — a missing strip's
// rows — costs nothing. A strip is refused, and nothing appended, when it
// does not fit the frame, when its stream does not fit the strip (the
// checks PasteRLE makes, through rleRecord), or when it has rows and
// starts above the last row already appended: strips must come sorted by
// Y0, and two strips must not overlap. A refused strip leaves the stitch
// where it was, so the strips after it still go in.
type Stitch struct {
	w, h  int
	next  int // the first row a strip with rows may start at
	carry int // transparent pixels since the last record appended
}

// NewStitch starts the stream of a w×h frame.
func NewStitch(w, h int) Stitch { return Stitch{w: w, h: h} }

// place checks that st lies inside the frame and, when it has rows, at or
// below the rows already appended; it returns the transparent pixels to
// put before st's first one.
func (s *Stitch) place(st Strip) (lead int, err error) {
	if st.Y0 < 0 || st.H < 0 || st.Y0 > s.h || st.H > s.h-st.Y0 {
		return 0, fmt.Errorf("compositor: strip rows [%d, %d) outside a %d-row frame", st.Y0, st.Y0+st.H, s.h)
	}
	if st.H > 0 && st.Y0 < s.next {
		return 0, fmt.Errorf("compositor: strip rows [%d, %d) start above row %d, where the strips before them end", st.Y0, st.Y0+st.H, s.next)
	}
	return s.carry + (st.Y0-s.next)*s.w, nil
}

// AppendRaw appends the lit pixels of a strip canvas — st.H rows of w
// pixels, row-major — to dst and returns it, encoding them straight from
// pix (appendRLE). A rowless strip appends nothing and is not checked,
// like a raw copy of no rows; a canvas of another size is refused.
func (s *Stitch) AppendRaw(dst []byte, st Strip, pix []float32) ([]byte, error) {
	if st.H == 0 {
		return dst, nil
	}
	lead, err := s.place(st)
	if err != nil {
		return dst, err
	}
	if len(pix) != 4*s.w*st.H {
		return dst, fmt.Errorf("compositor: raw strip rows [%d, %d) hold %d floats, want a %dx%d canvas", st.Y0, st.Y0+st.H, len(pix), s.w, st.H)
	}
	dst, s.carry = appendRLE(dst, pix, s.w*st.H, lead)
	s.next = st.Y0 + st.H
	return dst, nil
}

// AppendRLE appends the records of an EncodeRLEInto stream over st's rows
// to dst and returns it: each record's pixels copied as they are, its skip
// rebased onto the frame, and records without pixels folded into the skip
// of the next one. The stream is validated whole before anything is
// appended, as PasteRLE validates it.
func (s *Stitch) AppendRLE(dst []byte, st Strip, data []byte) ([]byte, error) {
	lead, err := s.place(st)
	if err != nil {
		return dst, err
	}
	n := s.w * st.H
	for pos, i := 0, 0; pos < len(data); {
		start, run, err := rleRecord(data, pos, i, n)
		if err != nil {
			return dst, err
		}
		pos += 8 + 16*run
		i = start + run
	}
	if st.H == 0 {
		return dst, nil
	}
	// The stitched records are at most the stream's, each as long.
	if need := len(dst) + len(data); need > cap(dst) {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	carry, i := lead, 0
	for pos := 0; pos < len(data); {
		skip := int(binary.LittleEndian.Uint32(data[pos:]))
		run := int(binary.LittleEndian.Uint32(data[pos+4:]))
		carry += skip
		if run > 0 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(carry))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(run))
			dst = append(dst, data[pos+8:pos+8+16*run]...)
			carry = 0
		}
		pos += 8 + 16*run
		i += skip + run
	}
	s.carry, s.next = carry+n-i, st.Y0+st.H
	return dst, nil
}

// RawBytes is the uncompressed wire size of an image.
func RawBytes(m *img.Image) int64 { return int64(16 * m.W * m.H) }
