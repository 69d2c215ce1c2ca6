package compositor

// Fuzz harness for the RLE transparent-run codec (seed corpus committed via
// f.Add). Encode elides fully transparent pixels, so the round-trip
// reference is the input with every alpha==0 pixel zeroed; everything else
// must survive bit-for-bit (including NaN and denormal channel values).

import (
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
