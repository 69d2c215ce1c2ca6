package compositor

// Fuzz harness for the RLE transparent-run codec (seed corpus committed via
// f.Add). Encode elides fully transparent pixels, so the round-trip
// reference is the input with every alpha==0 pixel zeroed; everything else
// must survive bit-for-bit (including NaN and denormal channel values).

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/img"
)

func FuzzRLERoundTrip(f *testing.F) {
	f.Add(2, 2, []byte{})
	f.Add(1, 4, []byte{0, 0, 0, 0, 1, 2, 3, 4})
	f.Add(3, 3, []byte{0x80, 0x3f, 0, 0, 0x80, 0x3f, 0xff, 0xff})
	f.Add(4, 1, []byte{0, 0, 0xc0, 0x7f}) // NaN bits
	f.Fuzz(func(t *testing.T, w, h int, data []byte) {
		w, h = w%16, h%16
		if w <= 0 || h <= 0 {
			t.Skip()
		}
		m := img.New(w, h)
		for i := range m.Pix {
			if 4*i+4 <= len(data) {
				m.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
		// Reference: decode cannot reconstruct channels of pixels whose
		// alpha compares equal to zero (that is the compression).
		want := img.New(w, h)
		for p := 0; p < w*h; p++ {
			if a := m.Pix[4*p+3]; a != 0 {
				copy(want.Pix[4*p:4*p+4], m.Pix[4*p:4*p+4])
			}
		}
		enc := EncodeRLEInto(nil, m)
		got, err := DecodeRLE(enc, w, h)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		for i := range want.Pix {
			if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("pixel float %d: got bits %08x, want %08x",
					i, math.Float32bits(got.Pix[i]), math.Float32bits(want.Pix[i]))
			}
		}
		if int64(len(enc)) > RawBytes(m)+8*int64(w*h) {
			t.Fatalf("encoding is larger than worst case: %d bytes", len(enc))
		}
	})
}

// FuzzCompositeRLEStream: compositing straight from the encoded stream
// (PR 3) must be bit-exact against decode-then-composite for arbitrary
// pixel contents and subfragment placement, including off-canvas offsets.
func FuzzCompositeRLEStream(f *testing.F) {
	f.Add(4, 4, 0, 0, []byte{})
	f.Add(3, 5, -2, 1, []byte{0, 0, 0x80, 0x3f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(6, 2, 4, -1, []byte{0, 0, 0xc0, 0x7f, 0xff, 0xff, 0xff, 0xff}) // NaN bits
	f.Add(1, 9, 7, 6, []byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, w, h, x0, y0 int, data []byte) {
		w, h = w%12, h%12
		if w <= 0 || h <= 0 {
			t.Skip()
		}
		x0, y0 = x0%16, y0%16
		m := img.New(w, h)
		for i := range m.Pix {
			if 4*i+4 <= len(data) {
				m.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
		sub := &subFragment{X0: x0, Y0: y0, W: w, H: h, compressed: true, RLE: EncodeRLEInto(nil, m)}
		const cw = 10
		st := Strip{Y0: 2, H: 8}
		want, err := compositeStripLegacy(cw, st, []*subFragment{sub})
		if err != nil {
			t.Fatalf("legacy composite of own encoding failed: %v", err)
		}
		got := img.New(cw, st.H)
		if err := compositeStripInto(got, cw, st, []*subFragment{sub}); err != nil {
			t.Fatalf("stream composite of own encoding failed: %v", err)
		}
		for i := range want.Pix {
			if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("canvas float %d: got bits %08x, want %08x",
					i, math.Float32bits(got.Pix[i]), math.Float32bits(want.Pix[i]))
			}
		}
	})
}

// FuzzCompositeRLEGarbage feeds arbitrary bytes to the stream compositor as
// an RLE payload: it must accept exactly the streams DecodeRLE accepts
// (and then match the decode-then-composite result) and reject the rest
// without panicking or writing out of bounds.
func FuzzCompositeRLEGarbage(f *testing.F) {
	f.Add(2, 2, []byte{})
	f.Add(2, 2, []byte{1, 0, 0, 0, 200, 0, 0, 0}) // run overflows the image
	f.Add(1, 1, []byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3})
	f.Add(3, 3, []byte{255, 255, 255, 255, 1, 0, 0, 0}) // huge skip
	f.Fuzz(func(t *testing.T, w, h int, data []byte) {
		w, h = w%16, h%16
		if w <= 0 || h <= 0 {
			t.Skip()
		}
		sub := &subFragment{X0: 1, Y0: 0, W: w, H: h, compressed: true, RLE: data}
		st := Strip{Y0: 0, H: h}
		got := img.New(w+2, st.H)
		gotErr := compositeStripInto(got, w+2, st, []*subFragment{sub})
		dec, decErr := DecodeRLE(data, w, h)
		if (gotErr == nil) != (decErr == nil) {
			t.Fatalf("stream composite error %v, decoder error %v", gotErr, decErr)
		}
		if gotErr != nil {
			return
		}
		rawSub := &subFragment{X0: 1, Y0: 0, W: w, H: h, Raw: dec}
		want := img.New(w+2, st.H)
		if err := compositeStripInto(want, w+2, st, []*subFragment{rawSub}); err != nil {
			t.Fatal(err)
		}
		for i := range want.Pix {
			if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("canvas float %d differs after garbage stream", i)
			}
		}
	})
}

// FuzzPasteRLE feeds arbitrary bytes to the output processor's paste
// kernel as the stream of a w×h strip at row y0 of a (w)×(h+4) frame
// painted with a sentinel (seeded from FuzzCompositeRLEGarbage's corpus,
// plus strips that hang off either end of the frame). It must never
// panic; it must accept exactly the streams DecodeRLE accepts for a strip
// inside the frame; a rejected stream must leave the frame untouched; and
// an accepted one must leave the decoder's lit pixels in the strip's rows,
// the sentinel wherever the stream skipped, and every row outside the
// strip as it was.
func FuzzPasteRLE(f *testing.F) {
	f.Add(2, 2, 1, []byte{})
	f.Add(2, 2, 0, []byte{1, 0, 0, 0, 200, 0, 0, 0}) // run overflows the strip
	f.Add(1, 1, 2, []byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3})
	f.Add(3, 3, 1, []byte{255, 255, 255, 255, 1, 0, 0, 0}) // huge skip
	f.Add(2, 1, 0, []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x80, 0x3f, 0, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f})
	f.Add(2, 3, 3, []byte{})  // strip rows past the frame's last
	f.Add(2, 3, -1, []byte{}) // strip rows before its first
	f.Fuzz(func(t *testing.T, w, h, y0 int, data []byte) {
		w, h, y0 = w%16, h%16, y0%8
		if w <= 0 || h < 0 {
			t.Skip()
		}
		const sentinel = float32(-7)
		frame := img.New(w, h+4)
		for i := range frame.Pix {
			frame.Pix[i] = sentinel
		}
		st := Strip{Y0: y0, H: h}
		err := PasteRLE(frame, st, data)
		inside := y0 >= 0 && y0+h <= frame.H
		dec, decErr := DecodeRLE(data, w, h)
		if (err == nil) != (inside && decErr == nil) {
			t.Fatalf("PasteRLE error %v; strip inside frame: %v, decoder error %v", err, inside, decErr)
		}
		lit := make([]bool, w*h) // pixels some run record covers
		if err == nil {
			for pos, i := 0, 0; pos < len(data); {
				i += int(binary.LittleEndian.Uint32(data[pos:]))
				run := int(binary.LittleEndian.Uint32(data[pos+4:]))
				for k := 0; k < run; k++ {
					lit[i+k] = true
				}
				pos, i = pos+8+16*run, i+run
			}
		}
		for p := 0; p < w*frame.H; p++ {
			q := p - y0*w // the pixel's index in the strip, when it is in it
			for ch := 0; ch < 4; ch++ {
				want := sentinel
				if err == nil && q >= 0 && q < w*h && lit[q] {
					want = dec.Pix[4*q+ch]
				}
				if got := frame.Pix[4*p+ch]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("pixel %d channel %d = %v (bits %08x), want %v (err=%v)", p, ch, got, math.Float32bits(got), want, err)
				}
			}
		}
	})
}

// FuzzDecodeRLE feeds arbitrary bytes to the decoder, which must reject or
// decode them without panicking or writing out of bounds.
func FuzzDecodeRLE(f *testing.F) {
	f.Add(2, 2, []byte{})
	f.Add(2, 2, []byte{1, 0, 0, 0, 200, 0, 0, 0}) // run overflows the image
	f.Add(1, 1, []byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, w, h int, data []byte) {
		w, h = w%32, h%32
		if w <= 0 || h <= 0 {
			t.Skip()
		}
		m, err := DecodeRLE(data, w, h)
		if err == nil && (m.W != w || m.H != h || len(m.Pix) != 4*w*h) {
			t.Fatalf("decoded image has wrong shape %dx%d", m.W, m.H)
		}
	})
}

// FuzzStitchRLE stitches a random layout of strips into one frame-wide
// stream (Stitch) and checks it against two things. First, the stream
// decoded through the reference decoder (DecodeRLE), and pasted over a
// cleared frame as a reader of the frame pastes it (PasteRLE over every
// row), equals, in every float bit, the frame each accepted strip makes
// when pasted into a cleared canvas. Second, the stitcher refuses exactly
// what pasting refuses — a stream PasteRLE refuses, a raw canvas that is
// not w×H, rows outside the frame — plus a strip with rows that starts
// above the last row already stitched: out of order, or overlapping. A
// refused strip appends nothing, and the strips after it still go in.
//
// The first strip is FuzzPasteRLE's case — a w×h strip at row y0 of a
// w×(h+4) frame with the stream data, and the seeds include that fuzzer's
// corpus. The rest come from more, four bytes a strip: its Y0 and H as
// signed bytes, its kind (a stream of the next bytes as they are, a stream
// EncodeRLEInto made of a canvas they light, that canvas raw, or a raw
// canvas one pixel too long), and how many bytes follow. A canvas lights
// pixel p with byte p's bits in all four channels when the byte is not 0,
// and leaves it +0 otherwise: a transparent raw pixel is +0, as every
// pixel at alpha 0 of a volume frame is.
func FuzzStitchRLE(f *testing.F) {
	f.Add(2, 2, 1, []byte{}, []byte{})
	f.Add(2, 2, 0, []byte{1, 0, 0, 0, 200, 0, 0, 0}, []byte{}) // run overflows the strip
	f.Add(1, 1, 2, []byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3}, []byte{})
	f.Add(3, 3, 1, []byte{255, 255, 255, 255, 1, 0, 0, 0}, []byte{}) // huge skip
	f.Add(2, 1, 0, []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x80, 0x3f, 0, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f}, []byte{})
	f.Add(2, 3, 3, []byte{}, []byte{})  // strip rows past the frame's last
	f.Add(2, 3, -1, []byte{}, []byte{}) // strip rows before its first
	// A lit strip, a gap of missing rows, then an encoded and a raw strip.
	lit := []byte{1, 0, 0, 0, 2, 0, 0, 0}
	lit = append(lit, bytes.Repeat([]byte{0, 0, 0x80, 0x3f}, 8)...)
	f.Add(3, 2, 0, lit, []byte{3, 1, 1, 3, 0, 7, 9, 4, 2, 2, 6, 0, 0, 5, 0, 5})
	f.Add(4, 3, 1, lit, []byte{0, 1, 2, 2, 9, 9})                   // above the first strip: out of order
	f.Add(4, 3, 1, lit, []byte{2, 2, 1, 4, 1, 0, 0, 1})             // overlapping the first strip
	f.Add(4, 3, 1, lit, []byte{4, 2, 3, 3, 1, 1, 1})                // a raw canvas one pixel too long
	f.Add(4, 3, 1, lit, []byte{4, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}) // a rowless strip, a (0, 0) record
	f.Fuzz(func(t *testing.T, w, h, y0 int, data, more []byte) {
		w, h, y0 = w%16, h%16, y0%8
		if w <= 0 || h < 0 {
			t.Skip()
		}
		fh := h + 4
		type strip struct {
			st   Strip
			raw  bool
			pix  []float32
			data []byte
		}
		layout := []strip{{st: Strip{Y0: y0, H: h}, data: data}}
		for len(more) >= 4 && len(layout) < 12 {
			sy, sh, kind := int(int8(more[0]))%8, int(int8(more[1]))%8, more[2]%4
			body := more[4:min(len(more), 4+int(more[3]))]
			more = more[4+len(body):]
			if kind == 0 {
				layout = append(layout, strip{st: Strip{Y0: sy, H: sh}, data: body})
				continue
			}
			n := w * max(sh, 0)
			if kind == 3 {
				n++
			}
			m := &img.Image{W: w, H: max(sh, 0), Pix: make([]float32, 4*n)}
			for p := 0; p < n && p < len(body); p++ {
				if b := body[p]; b != 0 {
					v := math.Float32frombits(uint32(b) * 0x01010101)
					copy(m.Pix[4*p:4*p+4], []float32{v, v, v, v})
				}
			}
			if kind == 1 {
				layout = append(layout, strip{st: Strip{Y0: sy, H: sh}, data: EncodeRLEInto(nil, m)})
			} else {
				layout = append(layout, strip{st: Strip{Y0: sy, H: sh}, raw: true, pix: m.Pix})
			}
		}

		want := img.New(w, fh)
		s := NewStitch(w, fh)
		var stream []byte
		next := 0 // where the accepted strips with rows end
		for k, sp := range layout {
			st := sp.st
			inside := st.Y0 >= 0 && st.H >= 0 && st.Y0+st.H <= fh
			inOrder := st.H == 0 || st.Y0 >= next
			var accept bool
			var rows *img.Image
			var err error
			before := len(stream)
			if sp.raw {
				accept = st.H == 0 || (inside && inOrder && len(sp.pix) == 4*w*st.H)
				rows = &img.Image{W: w, H: max(st.H, 0), Pix: sp.pix}
				stream, err = s.AppendRaw(stream, st, sp.pix)
			} else {
				pasteErr := PasteRLE(img.New(w, fh), st, sp.data)
				accept = pasteErr == nil && inOrder
				if accept {
					if rows, err = DecodeRLE(sp.data, w, st.H); err != nil {
						t.Fatalf("strip %d: PasteRLE accepted a stream DecodeRLE refuses: %v", k, err)
					}
				}
				stream, err = s.AppendRLE(stream, st, sp.data)
			}
			if (err == nil) != accept {
				t.Fatalf("strip %d %+v (raw %v): stitch error %v, want accepted=%v", k, st, sp.raw, err, accept)
			}
			if !accept {
				if len(stream) != before {
					t.Fatalf("strip %d: refused, but the stream grew from %d to %d bytes", k, before, len(stream))
				}
				continue
			}
			if st.H > 0 {
				copy(want.Pix[4*st.Y0*w:], rows.Pix[:4*w*st.H])
				next = st.Y0 + st.H
			}
		}
		got, err := DecodeRLE(stream, w, fh)
		if err != nil {
			t.Fatalf("the stitched stream does not decode: %v", err)
		}
		read := img.New(w, fh)
		if err := PasteRLE(read, Strip{H: fh}, stream); err != nil {
			t.Fatalf("the stitched stream does not paste over its frame: %v", err)
		}
		for i := range want.Pix {
			wb := math.Float32bits(want.Pix[i])
			if g, r := math.Float32bits(got.Pix[i]), math.Float32bits(read.Pix[i]); g != wb || r != wb {
				t.Fatalf("float %d: decoded bits %08x, pasted %08x, strips pasted one by one %08x", i, g, r, wb)
			}
		}
	})
}
