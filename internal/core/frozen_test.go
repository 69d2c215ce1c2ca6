package core

// Frozen oracle for PR 20 (the leap_test.go pattern): the output rank's
// underlay step as it stood before the PR — stretchInto writing a
// frame-sized nearest-neighbor copy of the LIC image, img.Image.Under
// reading it back — kept verbatim, and underStretched held to its bits.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/img"
)

// frozenStretchInto is stretchInto before PR 20, verbatim.
func frozenStretchInto(out *img.Image, src *img.Image, w, h int) *img.Image {
	n := 4 * w * h
	if cap(out.Pix) < n {
		out.Pix = make([]float32, n)
	}
	out.Pix = out.Pix[:n]
	out.W, out.H = w, h
	for y := 0; y < h; y++ {
		sy := y * src.H / h
		for x := 0; x < w; x++ {
			sx := x * src.W / w
			r, g, b, a := src.At(sx, sy)
			out.Set(x, y, r, g, b, a)
		}
	}
	return out
}

// TestUnderStretchedMatchesFrozen: for underlays smaller than, larger than
// and as large as the frame, square under non-square and the reverse, over
// frames whose alpha runs from transparent to opaque (with -0, NaN and an
// infinity among the channels), the fused pass leaves the bits
// frame.Under(stretchInto(...)) left.
//
// Mutation-checked: reading the source row with the frame's stride, scaling
// x by src.H, and scaling y by the frame's width each fail this test; so
// (PR 23, the per-view column map) do stretchCols dropping its factor 4 and
// dividing by the source width.
func TestUnderStretchedMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	odd := []float32{0, float32(math.Copysign(0, -1)), 1, float32(math.NaN()), float32(math.Inf(1)), 0.5}
	fill := func(m *img.Image) {
		for i := range m.Pix {
			m.Pix[i] = rng.Float32()
			if rng.Intn(8) == 0 {
				m.Pix[i] = odd[rng.Intn(len(odd))]
			}
		}
	}
	var cols []int32
	for _, dim := range []struct{ w, h, sw, sh int }{
		{48, 40, 32, 32}, {40, 48, 32, 32}, {64, 64, 16, 16}, {24, 24, 24, 24},
		{20, 30, 50, 35}, {33, 17, 7, 19}, {1, 1, 5, 5}, {9, 9, 1, 1},
	} {
		src := img.New(dim.sw, dim.sh)
		fill(src)
		got := img.New(dim.w, dim.h)
		fill(got)
		want := got.Clone()
		var stretch img.Image
		want.Under(frozenStretchInto(&stretch, src, dim.w, dim.h))
		cols = stretchCols(cols, dim.w, dim.sw) // one buffer re-aimed across sizes, as aim does
		underStretched(got, src, cols)
		for i := range want.Pix {
			g, w := got.Pix[i], want.Pix[i]
			if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
				t.Fatalf("%+v: channel %d of pixel %d = %v, frozen %v", dim, i%4, i/4, g, w)
			}
		}
	}
}
