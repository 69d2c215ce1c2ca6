package img

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsTransparent(t *testing.T) {
	m := New(4, 3)
	r, g, b, a := m.At(2, 1)
	if r != 0 || g != 0 || b != 0 || a != 0 {
		t.Errorf("new image pixel = %v %v %v %v", r, g, b, a)
	}
}

func TestSetAt(t *testing.T) {
	m := New(4, 4)
	m.Set(3, 2, 0.1, 0.2, 0.3, 0.4)
	r, g, b, a := m.At(3, 2)
	if r != 0.1 || g != 0.2 || b != 0.3 || a != 0.4 {
		t.Errorf("roundtrip = %v %v %v %v", r, g, b, a)
	}
}

func TestOverOpaqueWins(t *testing.T) {
	dst := New(1, 1)
	dst.Set(0, 0, 0, 1, 0, 1) // green
	src := New(1, 1)
	src.Set(0, 0, 1, 0, 0, 1) // opaque red over
	dst.Over(src)
	r, g, _, a := dst.At(0, 0)
	if r != 1 || g != 0 || a != 1 {
		t.Errorf("opaque over = %v %v %v", r, g, a)
	}
}

func TestOverTransparentNoop(t *testing.T) {
	dst := New(1, 1)
	dst.Set(0, 0, 0.3, 0.4, 0.5, 0.6)
	src := New(1, 1) // fully transparent
	dst.Over(src)
	r, g, b, a := dst.At(0, 0)
	if r != 0.3 || g != 0.4 || b != 0.5 || a != 0.6 {
		t.Errorf("transparent over changed pixel: %v %v %v %v", r, g, b, a)
	}
}

// Over must be associative: (a over b) over c == a over (b over c).
func TestOverAssociative(t *testing.T) {
	f := func(vals [12]float32) bool {
		px := func(i int) (float32, float32, float32, float32) {
			a := float32(math.Abs(float64(vals[i*4+3]))) // alpha in [0,1]
			a = a - float32(math.Floor(float64(a)))
			c := func(v float32) float32 {
				v = float32(math.Abs(float64(v)))
				v = v - float32(math.Floor(float64(v)))
				return v * a // premultiplied: channel <= alpha
			}
			return c(vals[i*4]), c(vals[i*4+1]), c(vals[i*4+2]), a
		}
		ar, ag, ab, aa := px(0)
		br, bg, bb, ba := px(1)
		cr, cg, cb, ca := px(2)
		// left: (a over b) over c
		lr, lg, lb, la := overPixel(br, bg, bb, ba, ar, ag, ab, aa)
		lr, lg, lb, la = overPixel(cr, cg, cb, ca, lr, lg, lb, la)
		// right: a over (b over c)
		rr, rg, rb, ra := overPixel(cr, cg, cb, ca, br, bg, bb, ba)
		rr, rg, rb, ra = overPixel(rr, rg, rb, ra, ar, ag, ab, aa)
		eq := func(x, y float32) bool { return math.Abs(float64(x-y)) < 1e-5 }
		return eq(lr, rr) && eq(lg, rg) && eq(lb, rb) && eq(la, ra)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnderMatchesOver(t *testing.T) {
	// front.Under(back) must equal back'.Over(front) where back' is a copy.
	rng := rand.New(rand.NewSource(7))
	front, back := New(8, 8), New(8, 8)
	for i := range front.Pix {
		a := rng.Float32()
		front.Pix[i] = a
		back.Pix[i] = rng.Float32()
	}
	// Make premultiplied-consistent alphas.
	for i := 0; i < len(front.Pix); i += 4 {
		front.Pix[i+3] = maxf(front.Pix[i], front.Pix[i+1], front.Pix[i+2], front.Pix[i+3])
		back.Pix[i+3] = maxf(back.Pix[i], back.Pix[i+1], back.Pix[i+2], back.Pix[i+3])
	}
	want := back.Clone()
	want.Over(front)
	got := front.Clone()
	got.Under(back)
	if RMSE(want, got) > 1e-6 {
		t.Errorf("Under disagrees with Over: RMSE=%v", RMSE(want, got))
	}
}

// overPixel composites one premultiplied pixel over another through
// Image.Over.
func overPixel(dr, dg, db, da, sr, sg, sb, sa float32) (r, g, b, a float32) {
	dst, src := New(1, 1), New(1, 1)
	dst.Set(0, 0, dr, dg, db, da)
	src.Set(0, 0, sr, sg, sb, sa)
	dst.Over(src)
	return dst.At(0, 0)
}

func maxf(vs ...float32) float32 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func TestPNGRoundtripSize(t *testing.T) {
	m := New(3, 5)
	m.Set(1, 1, 1, 0, 0, 1)
	var buf bytes.Buffer
	if err := m.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty png")
	}
}

func TestMetrics(t *testing.T) {
	a := New(4, 4)
	b := a.Clone()
	if RMSE(a, b) != 0 {
		t.Error("identical images have nonzero RMSE")
	}
	if !math.IsInf(PSNR(a, b), 1) {
		t.Error("identical images should have infinite PSNR")
	}
	b.Set(0, 0, 1, 0, 0, 1)
	if RMSE(a, b) == 0 || MaxAbsDiff(a, b) != 1 {
		t.Errorf("diff metrics wrong: rmse=%v max=%v", RMSE(a, b), MaxAbsDiff(a, b))
	}
}

func TestFlattenOnBackground(t *testing.T) {
	m := New(1, 1) // transparent
	rgb := m.FlattenOn(1, 1, 1)
	if rgb[0] != 255 || rgb[1] != 255 || rgb[2] != 255 {
		t.Errorf("transparent over white = %v", rgb)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1,2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestWriteAnimGIF(t *testing.T) {
	frames := []*Image{New(8, 8), New(8, 8)}
	frames[0].Set(1, 1, 1, 0, 0, 1)
	frames[1].Set(2, 2, 0, 1, 0, 1)
	var buf bytes.Buffer
	if err := WriteAnimGIF(&buf, frames, 10); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty gif")
	}
	if err := WriteAnimGIF(&buf, nil, 10); err == nil {
		t.Error("no-frames gif accepted")
	}
	if err := WriteAnimGIF(&buf, []*Image{New(4, 4), New(8, 8)}, 10); err == nil {
		t.Error("mismatched sizes accepted")
	}
}
