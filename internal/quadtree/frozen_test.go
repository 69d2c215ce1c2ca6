package quadtree

// Frozen oracles for PR 20 (the leap_test.go pattern): the pre-change
// Grid.At and the pre-change per-step resample loop, kept verbatim, and the
// code that replaced them held bit-equal to them — tolerance 0, every
// float compared by its bit pattern.

import (
	"math"
	"math/rand"
	"testing"
)

// frozenGridAt is Grid.At as it stood before PR 20 (math.Max/math.Min
// clamp, two closures), verbatim.
func frozenGridAt(g *Grid, x, y float64) (vx, vy float64) {
	fx := math.Max(0, math.Min(x, 1)) * float64(g.W-1)
	fy := math.Max(0, math.Min(y, 1)) * float64(g.H-1)
	ix := int(fx)
	iy := int(fy)
	if ix >= g.W-1 {
		ix = g.W - 2
	}
	if iy >= g.H-1 {
		iy = g.H - 2
	}
	tx := fx - float64(ix)
	ty := fy - float64(iy)
	id := func(x, y int) int { return y*g.W + x }
	lerp2 := func(v []float64) float64 {
		v00 := v[id(ix, iy)]
		v10 := v[id(ix+1, iy)]
		v01 := v[id(ix, iy+1)]
		v11 := v[id(ix+1, iy+1)]
		return v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
	}
	return lerp2(g.VX), lerp2(g.VY)
}

// frozenResampleInto is the body of ResampleInto as it stood before PR 20:
// one best-first Nearest search per grid point, every call.
func frozenResampleInto(t *Tree, g *Grid, w, h int) {
	g.W, g.H = w, h
	g.VX = make([]float64, w*h)
	g.VY = make([]float64, w*h)
	for j := 0; j < h; j++ {
		y := float64(j) / float64(h-1)
		for i := 0; i < w; i++ {
			x := float64(i) / float64(w-1)
			si := t.Nearest(x, y)
			g.VX[j*w+i] = t.samples[si].VX
			g.VY[j*w+i] = t.samples[si].VY
		}
	}
}

// atOrPanic calls at and reports a panic instead of propagating it: a NaN
// coordinate survives both clamps, and what int(NaN) indexes is the
// platform's business (on amd64 a NaN x is out of range; a NaN y is row 0
// of an even-width grid and out of range on an odd one), so "same result"
// includes "both panic".
func atOrPanic(at func(x, y float64) (float64, float64), x, y float64) (vx, vy float64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	vx, vy = at(x, y)
	return vx, vy, false
}

// oddValues are the field values and coordinates a clamp or an
// interpolation can get wrong without a smooth field noticing.
var oddValues = []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
	-0.5, 1.5, 5e-324, -5e-324, math.Nextafter(1, 0), math.Nextafter(1, 2), 0.5, 1e-13, -1e-13}

// oddGrid returns a w×h field of normal deviates with about one value in
// five replaced by an odd one (zeros of both signs, NaN, infinities).
func oddGrid(rng *rand.Rand, w, h int) *Grid {
	g := &Grid{W: w, H: h, VX: make([]float64, w*h), VY: make([]float64, w*h)}
	for _, v := range [][]float64{g.VX, g.VY} {
		for i := range v {
			v[i] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				v[i] = oddValues[rng.Intn(len(oddValues))]
			}
		}
	}
	return g
}

// TestGridAtMatchesFrozen: the branch clamp and the inlined interpolation
// return the frozen At's bits for every pairing of the odd coordinates,
// for random coordinates inside and outside [0,1], on square and
// non-square grids down to 2×2.
//
// Mutation-checked: a clamp that tests x < 0 (so -0 stays -0 and the
// weights of the right-hand column pick up its sign), and one that tests
// !(x > 0) (so NaN becomes 0 instead of reaching the index), both fail on
// the odd coordinates.
func TestGridAtMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	for _, dim := range [][2]int{{2, 2}, {5, 3}, {3, 7}, {16, 16}} {
		for rep := 0; rep < 8; rep++ {
			g := oddGrid(rng, dim[0], dim[1])
			if rep == 0 {
				// The field a sign error in the clamp shows on: -0 in the
				// left column, positive in the right.
				for i := range g.VX {
					g.VX[i] = []float64{math.Copysign(0, -1), 1}[i%g.W%2]
				}
			}
			var coords [][2]float64
			for _, x := range oddValues {
				for _, y := range oddValues {
					coords = append(coords, [2]float64{x, y})
				}
			}
			for i := 0; i < 400; i++ {
				coords = append(coords, [2]float64{2*rng.Float64() - 0.5, 2*rng.Float64() - 0.5})
			}
			frozen := func(x, y float64) (float64, float64) { return frozenGridAt(g, x, y) }
			for _, c := range coords {
				wx, wy, wp := atOrPanic(frozen, c[0], c[1])
				gx, gy, gp := atOrPanic(g.At, c[0], c[1])
				if gp != wp {
					t.Fatalf("%dx%d At(%v,%v): panicked %v, frozen panicked %v", g.W, g.H, c[0], c[1], gp, wp)
				}
				if !sameBits(gx, wx) || !sameBits(gy, wy) {
					t.Fatalf("%dx%d At(%v,%v) = (%v,%v) [%#x,%#x], frozen (%v,%v) [%#x,%#x]", g.W, g.H, c[0], c[1],
						gx, gy, math.Float64bits(gx), math.Float64bits(gy), wx, wy, math.Float64bits(wx), math.Float64bits(wy))
				}
			}
		}
	}
}

// sameBits reports whether a and b are the same float64 bit for bit. Any
// NaN equals any other: which operand's payload and sign an addition of two
// NaNs keeps is the compiler's choice of destination register, not
// something either version of the code decides.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameGridBits fails unless got and want hold the same bit patterns.
func sameGridBits(t *testing.T, what string, got, want *Grid) {
	t.Helper()
	if got.W != want.W || got.H != want.H || len(got.VX) != len(want.VX) || len(got.VY) != len(want.VY) {
		t.Fatalf("%s: grid %dx%d (%d,%d values), want %dx%d (%d,%d)", what,
			got.W, got.H, len(got.VX), len(got.VY), want.W, want.H, len(want.VX), len(want.VY))
	}
	for i := range want.VX {
		if !sameBits(got.VX[i], want.VX[i]) || !sameBits(got.VY[i], want.VY[i]) {
			t.Fatalf("%s: point %d = (%v,%v), want (%v,%v)", what, i, got.VX[i], got.VY[i], want.VX[i], want.VY[i])
		}
	}
}

// TestResampleMatchesFrozen: over an animation — values replaced every
// step through Rebuild, odd values among them, the grid
// size changing and coming back, a sample moved now and then — the
// remembered map's gather returns what the per-step searches return.
//
// Mutation-checked: with the drop of the map taken out of rebuild the
// moved-sample steps fail, and with the (w, h) test reduced to w*h the
// 24×12 step after 12×24 does.
func TestResampleMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	samples := randSamples(rng, 150)
	tree, err := Build(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := [][2]int{{16, 16}, {16, 16}, {12, 24}, {24, 12}, {24, 12}, {2, 2}, {16, 16}, {33, 7}}
	var got, want Grid
	for step := 0; step < 40; step++ {
		for i := range samples {
			samples[i].VX, samples[i].VY = rng.NormFloat64(), rng.NormFloat64()
			if rng.Intn(6) == 0 {
				samples[i].VX = oddValues[rng.Intn(len(oddValues))]
			}
		}
		if step%7 == 6 { // a moved sample: Rebuild re-inserts
			samples[rng.Intn(len(samples))].X = rng.Float64()
		}
		if err := tree.Rebuild(samples); err != nil {
			t.Fatal(err)
		}
		size := sizes[step%len(sizes)]
		if err := tree.ResampleInto(&got, size[0], size[1]); err != nil {
			t.Fatal(err)
		}
		frozenResampleInto(tree, &want, size[0], size[1])
		sameGridBits(t, "resample", &got, &want)
	}
}
