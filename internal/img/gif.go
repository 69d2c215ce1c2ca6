package img

import (
	"fmt"
	"image"
	"image/color/palette"
	"image/draw"
	"image/gif"
	"io"
)

// AnimGIF builds an animated GIF frame by frame — the "exploration in the
// temporal domain" artifact the pipeline produces. Add quantizes each frame
// into its paletted image as it arrives, so the caller can let go of the
// float frame at once: the builder holds one byte per pixel per frame, not
// sixteen.
type AnimGIF struct {
	delay int
	out   gif.GIF
	src   *image.RGBA // the frame being quantized, flattened; reused
}

// NewAnimGIF starts an animation whose frames each show for delay
// hundredths of a second.
func NewAnimGIF(delay int) *AnimGIF { return &AnimGIF{delay: delay} }

// Add flattens fr over black, dithers it to the Plan 9 palette
// (Floyd–Steinberg) and appends it to the animation. Every frame must have
// the first one's size.
func (a *AnimGIF) Add(fr *Image) error {
	if a.src == nil {
		a.src = image.NewRGBA(image.Rect(0, 0, fr.W, fr.H))
	} else if b := a.src.Bounds(); fr.W != b.Dx() || fr.H != b.Dy() {
		return fmt.Errorf("img: frame %d is %dx%d, want %dx%d", len(a.out.Image), fr.W, fr.H, b.Dx(), b.Dy())
	}
	rgb := fr.FlattenOn(0, 0, 0)
	for p, q := 0, 0; p < len(rgb); p += 3 {
		a.src.Pix[q] = rgb[p]
		a.src.Pix[q+1] = rgb[p+1]
		a.src.Pix[q+2] = rgb[p+2]
		a.src.Pix[q+3] = 255
		q += 4
	}
	pal := image.NewPaletted(a.src.Bounds(), palette.Plan9)
	draw.FloydSteinberg.Draw(pal, a.src.Bounds(), a.src, image.Point{})
	a.out.Image = append(a.out.Image, pal)
	a.out.Delay = append(a.out.Delay, a.delay)
	return nil
}

// Encode writes the animation, looping for ever. It needs a frame.
func (a *AnimGIF) Encode(w io.Writer) error {
	if len(a.out.Image) == 0 {
		return fmt.Errorf("img: no frames")
	}
	return gif.EncodeAll(w, &a.out)
}
