// Package img provides the float RGBA image type used throughout the
// renderer and compositor, plus encoding (PPM/PNG) and comparison metrics.
//
// Pixels are premultiplied RGBA in [0,1]; compositing uses the standard
// front-to-back "over" operator, which is associative — the property the
// sort-last compositor relies on.
package img

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
)

// Image is a W×H premultiplied-alpha RGBA image with float32 channels.
type Image struct {
	W, H int
	Pix  []float32 // len = 4*W*H, RGBA interleaved
}

// New returns a transparent black image.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("img: negative size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, 4*w*h)}
}

// Clone returns a deep copy.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, Pix: make([]float32, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// At returns the RGBA value at (x, y).
func (m *Image) At(x, y int) (r, g, b, a float32) {
	i := 4 * (y*m.W + x)
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2], m.Pix[i+3]
}

// Set stores the RGBA value at (x, y).
func (m *Image) Set(x, y int, r, g, b, a float32) {
	i := 4 * (y*m.W + x)
	m.Pix[i], m.Pix[i+1], m.Pix[i+2], m.Pix[i+3] = r, g, b, a
}

// Over composites src over m in place. Images must be the same size.
func (m *Image) Over(src *Image) {
	if m.W != src.W || m.H != src.H {
		panic(fmt.Sprintf("img: Over size mismatch %dx%d vs %dx%d", m.W, m.H, src.W, src.H))
	}
	for i := 0; i < len(m.Pix); i += 4 {
		t := 1 - src.Pix[i+3]
		m.Pix[i] = src.Pix[i] + t*m.Pix[i]
		m.Pix[i+1] = src.Pix[i+1] + t*m.Pix[i+1]
		m.Pix[i+2] = src.Pix[i+2] + t*m.Pix[i+2]
		m.Pix[i+3] = src.Pix[i+3] + t*m.Pix[i+3]
	}
}

// Under composites m over src, storing the result in m. This is the
// "behind" operation used when accumulating front-to-back.
func (m *Image) Under(src *Image) {
	if m.W != src.W || m.H != src.H {
		panic("img: Under size mismatch")
	}
	for i := 0; i < len(m.Pix); i += 4 {
		t := 1 - m.Pix[i+3]
		m.Pix[i] += t * src.Pix[i]
		m.Pix[i+1] += t * src.Pix[i+1]
		m.Pix[i+2] += t * src.Pix[i+2]
		m.Pix[i+3] += t * src.Pix[i+3]
	}
}

func clamp8(v float32) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// FlattenOn composites the image onto an opaque background color and
// returns 8-bit RGB rows.
func (m *Image) FlattenOn(br, bg, bb float32) []uint8 {
	out := make([]uint8, 3*m.W*m.H)
	for p, i := 0, 0; i < len(m.Pix); i += 4 {
		t := 1 - m.Pix[i+3]
		out[p] = clamp8(m.Pix[i] + t*br)
		out[p+1] = clamp8(m.Pix[i+1] + t*bg)
		out[p+2] = clamp8(m.Pix[i+2] + t*bb)
		p += 3
	}
	return out
}

// WritePNG writes the image as a PNG over black.
func (m *Image) WritePNG(w io.Writer) error {
	rgb := m.FlattenOn(0, 0, 0)
	im := image.NewRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			p := 3 * (y*m.W + x)
			im.SetRGBA(x, y, color.RGBA{rgb[p], rgb[p+1], rgb[p+2], 255})
		}
	}
	return png.Encode(w, im)
}

// RMSE returns the root-mean-square difference over all channels.
func RMSE(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("img: RMSE size mismatch")
	}
	if len(a.Pix) == 0 {
		return 0
	}
	var s float64
	for i := range a.Pix {
		d := float64(a.Pix[i] - b.Pix[i])
		s += d * d
	}
	return math.Sqrt(s / float64(len(a.Pix)))
}

// PSNR returns the peak signal-to-noise ratio in dB (Inf for identical).
func PSNR(a, b *Image) float64 {
	r := RMSE(a, b)
	if r == 0 {
		return math.Inf(1)
	}
	return 20 * math.Log10(1/r)
}

// MaxAbsDiff returns the largest absolute channel difference.
func MaxAbsDiff(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("img: MaxAbsDiff size mismatch")
	}
	var mx float64
	for i := range a.Pix {
		d := math.Abs(float64(a.Pix[i] - b.Pix[i]))
		if d > mx {
			mx = d
		}
	}
	return mx
}
