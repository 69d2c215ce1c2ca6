package img

import (
	"bytes"
	"fmt"
	"image"
	"image/color/palette"
	"image/draw"
	"image/gif"
	"io"
	"math"
	"testing"
)

// WriteAnimGIF encodes a frame sequence as an animated GIF from the whole
// sequence at once, as the animation was written before AnimGIF quantized
// frames as they arrived: the reference AnimGIF is held to. delay is in
// hundredths of a second per frame; frames must share one size.
func WriteAnimGIF(w io.Writer, frames []*Image, delay int) error {
	if len(frames) == 0 {
		return fmt.Errorf("img: no frames")
	}
	w0, h0 := frames[0].W, frames[0].H
	out := &gif.GIF{LoopCount: 0}
	for i, fr := range frames {
		if fr.W != w0 || fr.H != h0 {
			return fmt.Errorf("img: frame %d is %dx%d, want %dx%d", i, fr.W, fr.H, w0, h0)
		}
		rgb := fr.FlattenOn(0, 0, 0)
		src := image.NewRGBA(image.Rect(0, 0, w0, h0))
		for p, q := 0, 0; p < len(rgb); p += 3 {
			src.Pix[q] = rgb[p]
			src.Pix[q+1] = rgb[p+1]
			src.Pix[q+2] = rgb[p+2]
			src.Pix[q+3] = 255
			q += 4
		}
		pal := image.NewPaletted(src.Bounds(), palette.Plan9)
		draw.FloydSteinberg.Draw(pal, src.Bounds(), src, image.Point{})
		out.Image = append(out.Image, pal)
		out.Delay = append(out.Delay, delay)
	}
	return gif.EncodeAll(w, out)
}

// TestAnimGIFMatchesWriteAnimGIF: frames added one at a time, each free to
// be overwritten once added, encode to the bytes WriteAnimGIF writes from
// the whole sequence — over frames with translucent, opaque, out-of-range
// and NaN channels, whose dithering carries error across pixels. A frame
// of another size is refused, and so is an animation with no frame.
func TestAnimGIFMatchesWriteAnimGIF(t *testing.T) {
	const w, h, n = 23, 17, 5
	frames := make([]*Image, n)
	for k := range frames {
		frames[k] = New(w, h)
		for i := range frames[k].Pix {
			frames[k].Pix[i] = float32((i*7+k*13)%29) / 23
		}
		frames[k].Set(k, k, float32(math.NaN()), 2, -1, 0.5)
	}
	var want bytes.Buffer
	if err := WriteAnimGIF(&want, frames, 12); err != nil {
		t.Fatal(err)
	}
	anim := NewAnimGIF(12)
	scratch := New(w, h)
	for _, fr := range frames {
		copy(scratch.Pix, fr.Pix)
		if err := anim.Add(scratch); err != nil {
			t.Fatal(err)
		}
		clear(scratch.Pix) // the caller may reuse the frame at once
	}
	var got bytes.Buffer
	if err := anim.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("AnimGIF wrote %d bytes that differ from WriteAnimGIF's %d", got.Len(), want.Len())
	}
	if err := anim.Add(New(w+1, h)); err == nil {
		t.Error("a frame of another size was added")
	}
	if err := NewAnimGIF(12).Encode(io.Discard); err == nil {
		t.Error("an animation with no frame was encoded")
	}
}
