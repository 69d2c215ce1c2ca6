package lic

// Frozen oracles for PR 20 (the leap_test.go pattern): convolve and what
// it called as they stood before the PR — the field evaluated at the pixel
// centre once per direction, kernelWeight and the kernel position computed
// for the box kernel too, Grid.At clamping through math.Max/math.Min —
// kept verbatim, and the kernel that replaced them held to their bits at
// tolerance 0. The speedup gate times the two against each other.

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/quadtree"
	"repro/internal/workers"
)

// frozenGridAt is quadtree.Grid.At before PR 20, verbatim.
func frozenGridAt(g *quadtree.Grid, x, y float64) (vx, vy float64) {
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

func frozenVecAt(field *quadtree.Grid, w, h int, x, y float64) (float64, float64) {
	return frozenGridAt(field, x/float64(w-1), y/float64(h-1))
}

func frozenKernelWeight(t, phase float64) float64 {
	if phase < 0 {
		return 1 // box kernel
	}
	return (1 + math.Cos(math.Pi*t)) * (1 + math.Cos(2*math.Pi*(t-phase)))
}

// frozenConvolve is convolve before PR 20, verbatim.
func frozenConvolve(field *quadtree.Grid, noise *Image, x, y int, cfg Config) float64 {
	w, h := noise.W, noise.H
	var sum, wsum float64
	// Center sample.
	w0 := frozenKernelWeight(0, cfg.Phase)
	sum += w0 * noise.At(x, y)
	wsum += w0
	for dir := -1.0; dir <= 1.0; dir += 2 {
		px := float64(x)
		py := float64(y)
		dist := 0.0
		for step := 1; step <= cfg.L; step++ {
			vx, vy := frozenVecAt(field, w, h, px, py)
			l := math.Hypot(vx, vy)
			if l < 1e-12 {
				break // stagnation point
			}
			px += dir * cfg.StepSize * vx / l
			py += dir * cfg.StepSize * vy / l
			if px < 0 || py < 0 || px > float64(w-1) || py > float64(h-1) {
				break
			}
			dist += cfg.StepSize
			t := dir * dist / (float64(cfg.L) * cfg.StepSize)
			wt := frozenKernelWeight(t, cfg.Phase)
			sum += wt * noise.At(int(px+0.5), int(py+0.5))
			wsum += wt
		}
	}
	if wsum == 0 {
		return noise.At(x, y)
	}
	return sum / wsum
}

// frozenResampleInto is quadtree.Tree.ResampleInto before PR 20: a
// best-first nearest-sample search per grid point, every step. samples is
// the slice the tree was built from.
func frozenResampleInto(t *quadtree.Tree, samples []quadtree.Sample, g *quadtree.Grid, w, h int) {
	for j := 0; j < h; j++ {
		y := float64(j) / float64(h-1)
		for i := 0; i < w; i++ {
			x := float64(i) / float64(w-1)
			si := t.Nearest(x, y)
			g.VX[j*w+i] = samples[si].VX
			g.VY[j*w+i] = samples[si].VY
		}
	}
}

// swirlField is a gw×gh field of vortices with noise on top; stagnant
// zeroes patches of it (both signs of zero, and vectors under the 1e-12
// stagnation threshold), nan plants NaN and infinite components.
func swirlField(rng *rand.Rand, gw, gh int, stagnant, nan bool) *quadtree.Grid {
	g := &quadtree.Grid{W: gw, H: gh, VX: make([]float64, gw*gh), VY: make([]float64, gw*gh)}
	cx, cy := rng.Float64(), rng.Float64()
	for j := 0; j < gh; j++ {
		for i := 0; i < gw; i++ {
			x := float64(i)/float64(gw-1) - cx
			y := float64(j)/float64(gh-1) - cy
			k := j*gw + i
			g.VX[k] = -y + 0.3*math.Sin(9*x) + 0.1*rng.NormFloat64()
			g.VY[k] = x + 0.3*math.Cos(7*y) + 0.1*rng.NormFloat64()
			if stagnant && (i/3+j/3)%3 == 0 {
				g.VX[k], g.VY[k] = []float64{0, math.Copysign(0, -1), 3e-13}[rng.Intn(3)],
					[]float64{0, math.Copysign(0, -1), -4e-13}[rng.Intn(3)]
			}
			if nan && rng.Intn(40) == 0 {
				g.VX[k] = []float64{math.NaN(), math.Inf(1), 1}[rng.Intn(3)]
				g.VY[k] = []float64{math.NaN(), math.Inf(-1), 1}[rng.Intn(3)]
			}
		}
	}
	return g
}

// convolveOrPanic runs one pixel's convolution and reports a panic instead
// of propagating it. A NaN vector makes the streamline position NaN, which
// no bounds test stops; the next field lookup then indexes with int(NaN),
// out of range on amd64. The kernel must do there what the frozen one does,
// panic included.
func convolveOrPanic(conv func(*quadtree.Grid, *Image, int, int, Config) float64,
	field *quadtree.Grid, noise *Image, x, y int, cfg Config) (v float64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return conv(field, noise, x, y, cfg), false
}

// TestConvolveMatchesFrozen: pixel for pixel, on fields with stagnant
// patches and with NaN and infinite vectors, on grids that are neither
// square nor the image's size, for kernel half-lengths 1 and 10, the box
// and the periodic kernel, convolve returns the frozen kernel's bits (or
// panics where it panics); and where nothing panics ComputeWith — serial,
// spawned bands, pooled bands — returns them as float32.
//
// Mutation-checked: starting the second direction from the first one's
// last field evaluation instead of the centre's, reusing the centre
// evaluation for step 2 as well, and a Grid.At clamp that turns NaN into 0
// each fail this test. (One that lets -0 through does not — a streamline
// position is never -0 — and is caught by quadtree's TestGridAtMatchesFrozen.)
func TestConvolveMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	pool := workers.New(3)
	defer pool.Close()
	panics, stagnated := 0, 0
	for _, dim := range []struct{ w, h, gw, gh int }{
		{32, 32, 32, 32}, {40, 24, 17, 29}, {20, 36, 64, 8},
	} {
		noise := &Image{}
		WhiteNoiseInto(noise, dim.w, dim.h, 7)
		for _, kind := range []struct{ stagnant, nan bool }{{false, false}, {true, false}, {true, true}} {
			field := swirlField(rng, dim.gw, dim.gh, kind.stagnant, kind.nan)
			for _, L := range []int{1, 10} {
				for _, phase := range []float64{-1, 0.3} {
					cfg := Config{L: L, StepSize: 0.5, Seed: 7, Phase: phase}
					want := &Image{W: dim.w, H: dim.h, Pix: make([]float32, dim.w*dim.h)}
					panicked := false
					for y := 0; y < dim.h; y++ {
						for x := 0; x < dim.w; x++ {
							wv, wp := convolveOrPanic(frozenConvolve, field, noise, x, y, cfg)
							gv, gp := convolveOrPanic(convolve, field, noise, x, y, cfg)
							if gp != wp {
								t.Fatalf("%+v %+v L=%d phase=%v pixel (%d,%d): panicked %v, frozen panicked %v",
									dim, kind, L, phase, x, y, gp, wp)
							}
							if math.Float64bits(gv) != math.Float64bits(wv) && !(math.IsNaN(gv) && math.IsNaN(wv)) {
								t.Fatalf("%+v %+v L=%d phase=%v pixel (%d,%d) = %v [%#x], frozen %v [%#x]",
									dim, kind, L, phase, x, y, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
							}
							if wp {
								panics++
								panicked = true
							}
							if float32(wv) == noise.Pix[y*dim.w+x] {
								stagnated++
							}
							want.Pix[y*dim.w+x] = float32(wv)
						}
					}
					if panicked {
						continue // a band would take the process down with it
					}
					for _, run := range []struct {
						name    string
						workers int
						scr     *Scratch
					}{{"serial", 1, nil}, {"spawned", 3, nil}, {"pooled", 3, &Scratch{Pool: pool}}} {
						cfg.Workers = run.workers
						got, err := ComputeWith(field, dim.w, dim.h, cfg, run.scr)
						if err != nil {
							t.Fatal(err)
						}
						for p := range want.Pix {
							if math.Float32bits(got.Pix[p]) != math.Float32bits(want.Pix[p]) {
								t.Fatalf("%+v %+v L=%d phase=%v %s: pixel %d = %v, frozen %v",
									dim, kind, L, phase, run.name, p, got.Pix[p], want.Pix[p])
							}
						}
					}
				}
			}
		}
	}
	if panics == 0 || stagnated == 0 {
		t.Fatalf("%d pixels panicked and %d stagnated at the centre: the fields miss a case", panics, stagnated)
	}
}

// TestLICStepSpeedupGate holds the speedup PR 20 exists for: one steady-
// state step of the input rank's underlay — resample the surface samples to
// a 128×128 grid, convolve with the pipeline's box kernel — through the
// remembered resample map and the current convolve must beat the frozen
// per-step searches and the frozen convolve by 1.5x (nominal 1.85x). Like
// the other wall-clock gates it only asserts under REPRO_PERF_ASSERT=1 and
// takes the minimum over interleaved windows.
func TestLICStepSpeedupGate(t *testing.T) {
	if os.Getenv("REPRO_PERF_ASSERT") != "1" {
		t.Skip("set REPRO_PERF_ASSERT=1 to enforce the LIC step speedup gate")
	}
	const size = 128
	samples, tree := licStepSetup(t, 2000, size)
	cfg := Config{L: size / 12, StepSize: 0.5, Seed: 7, Phase: -1, Workers: 1}
	noise := &Image{}
	WhiteNoiseInto(noise, size, size, cfg.Seed)
	var scr Scratch
	var grid quadtree.Grid
	if err := tree.ResampleInto(&grid, size, size); err != nil {
		t.Fatal(err)
	}
	ref := quadtree.Grid{W: size, H: size, VX: make([]float64, size*size), VY: make([]float64, size*size)}
	refOut := make([]float32, size*size)
	timed := func(step func()) func() float64 {
		return func() float64 {
			start := time.Now()
			step()
			return time.Since(start).Seconds()
		}
	}
	var out *Image
	kernel, frozen := math.Inf(1), math.Inf(1)
	stepKernel := timed(func() {
		if err := tree.ResampleInto(&grid, size, size); err != nil {
			t.Fatal(err)
		}
		var err error
		if out, err = ComputeWith(&grid, size, size, cfg, &scr); err != nil {
			t.Fatal(err)
		}
	})
	stepFrozen := timed(func() {
		frozenResampleInto(tree, samples, &ref, size, size)
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				refOut[y*size+x] = float32(frozenConvolve(&ref, noise, x, y, cfg))
			}
		}
	})
	stepKernel()
	stepFrozen()
	for trial := 0; trial < 8; trial++ {
		kernel = math.Min(kernel, stepKernel())
		frozen = math.Min(frozen, stepFrozen())
	}
	for p := range refOut {
		if math.Float32bits(out.Pix[p]) != math.Float32bits(refOut[p]) {
			t.Fatalf("pixel %d = %v, frozen %v: the gate timed two different images", p, out.Pix[p], refOut[p])
		}
	}
	t.Logf("LIC step at %dx%d: kernel %.3gs, frozen %.3gs (%.2fx)", size, size, kernel, frozen, frozen/kernel)
	if frozen < 1.5*kernel {
		t.Errorf("LIC step speedup regressed: kernel %.3gs vs frozen %.3gs (%.2fx, want >= 1.85x nominal / 1.5x gate)",
			kernel, frozen, frozen/kernel)
	}
}
