package lic

// Frozen oracles (the leap_test.go pattern): the per-pixel convolve and the
// per-step resample as they stood before the remembered resample map — the
// field evaluated at the pixel centre once per direction, kernelWeight and
// the kernel position computed for the box kernel too — kept verbatim, and
// the kernels that replaced them held to their bits at tolerance 0. The
// field is evaluated through the live Grid.At, which quadtree's
// TestGridAtMatchesFrozen holds to its own frozen copy. The speedup gate
// times the two against each other.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/quadtree"
	"repro/internal/workers"
)

func frozenVecAt(field *quadtree.Grid, w, h int, x, y float64) (float64, float64) {
	return field.At(x/float64(w-1), y/float64(h-1))
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
			px += dir * stepSize * vx / l
			py += dir * stepSize * vy / l
			if px < 0 || py < 0 || px > float64(w-1) || py > float64(h-1) {
				break
			}
			dist += stepSize
			t := dir * dist / (float64(cfg.L) * stepSize)
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

// laneField is a w×h field flowing along +y, a grid point per pixel, in
// which one lane of a group does what its neighbours do not. With
// "stagnant" column w/2 is zero, so its lane stagnates at the centre while
// the rest run on; with "nan" the one vector (1, +Inf) sits at column w/2
// halfway down, so the lane of that column in the rows around it turns its
// position NaN (y first, x a step later) while the rest run on; with
// "edge" the flow is along +x instead, so at either end of a row the lanes
// leave the image one at a time, the outermost live lane first.
func laneField(w, h int, kind string) *quadtree.Grid {
	g := &quadtree.Grid{W: w, H: h, VX: make([]float64, w*h), VY: make([]float64, w*h)}
	for k := range g.VY {
		g.VY[k] = 1
		switch {
		case kind == "stagnant" && k%w == w/2:
			g.VY[k] = 0
		case kind == "edge":
			g.VX[k], g.VY[k] = 1, 0
		}
	}
	if kind == "nan" {
		g.VX[h/2*w+w/2], g.VY[h/2*w+w/2] = 1, math.Inf(1)
	}
	return g
}

// convolveOrPanic runs one pixel's frozen convolution and reports a panic
// instead of propagating it. A NaN vector makes the streamline position
// NaN, which no bounds test stops; the next field lookup then indexes with
// int(NaN), out of range on amd64. The kernel must do there what the
// frozen one does, panic included.
func convolveOrPanic(field *quadtree.Grid, noise *Image, x, y int, cfg Config) (v float64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return frozenConvolve(field, noise, x, y, cfg), false
}

// rowOrPanic runs row y of out through the lane kernel and reports a panic
// instead of propagating it.
func rowOrPanic(field *quadtree.Grid, noise *Image, out *Image, y int, cfg Config) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	convolveRows(field, noise, out, y, y+1, cfg)
	return false
}

// rowsMatchFrozen convolves the noise image's rows through the lane kernel
// and its pixels through frozenConvolve, and fails t unless each row panics
// exactly when one of its pixels does in frozenConvolve and otherwise
// holds the frozen bits as float32. It returns the frozen image, the number
// of pixels that panicked and the number whose value is their own noise
// texel (a streamline that stagnated at the centre, or no streamline).
func rowsMatchFrozen(t *testing.T, what string, field *quadtree.Grid, noise *Image, cfg Config) (want *Image, panics, stagnated int) {
	t.Helper()
	w, h := noise.W, noise.H
	want = &Image{W: w, H: h, Pix: make([]float32, w*h)}
	got := &Image{W: w, H: h, Pix: make([]float32, w*h)}
	for y := 0; y < h; y++ {
		rowPanicked := false
		for x := 0; x < w; x++ {
			v, p := convolveOrPanic(field, noise, x, y, cfg)
			if p {
				panics++
				rowPanicked = true
			} else if float32(v) == noise.Pix[y*w+x] {
				stagnated++
			}
			want.Pix[y*w+x] = float32(v)
		}
		if p := rowOrPanic(field, noise, got, y, cfg); p != rowPanicked {
			t.Fatalf("%s L=%d phase=%v row %d: panicked %v, frozen panicked %v", what, cfg.L, cfg.Phase, y, p, rowPanicked)
		}
		if rowPanicked {
			continue
		}
		for x := 0; x < w; x++ {
			g, f := got.Pix[y*w+x], want.Pix[y*w+x]
			if math.Float32bits(g) != math.Float32bits(f) && !(g != g && f != f) {
				t.Fatalf("%s L=%d phase=%v pixel (%d,%d) = %v [%#x], frozen %v [%#x]",
					what, cfg.L, cfg.Phase, x, y, g, math.Float32bits(g), f, math.Float32bits(f))
			}
		}
	}
	return want, panics, stagnated
}

// TestConvolveMatchesFrozen: row by row, on fields with stagnant patches
// and with NaN and infinite vectors, on grids that are neither square nor
// the image's size, on rows of 2, lanes−1, lanes, lanes+1 and 2·lanes+1
// pixels besides wider ones, on groups in which exactly one lane
// stagnates, leaves the image or turns NaN, for kernel half-lengths 1, 2
// and 10, the box and the periodic kernel, the lane kernel returns the
// frozen kernel's bits (or panics where one of the row's pixels panics);
// and where nothing panics ComputeWith — serial, spawned bands, pooled
// bands — returns them too.
//
// Mutation-checked: docs/ci.md's oracle ledger lists the mutations of the
// kernel this test kills.
func TestConvolveMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	pool := workers.New(3)
	defer pool.Close()
	panics, stagnated := 0, 0
	for _, dim := range []struct{ w, h, gw, gh int }{
		{32, 32, 32, 32}, {40, 24, 17, 29}, {20, 36, 64, 8},
		{2, 9, 5, 4}, {lanes - 1, 12, 7, 12}, {lanes, 10, 3, 6}, {lanes + 1, 11, 9, 11}, {2*lanes + 1, 8, 6, 13},
	} {
		noise := &Image{}
		WhiteNoiseInto(noise, dim.w, dim.h, 7)
		var names []string
		var fields []*quadtree.Grid
		for _, kind := range []struct{ stagnant, nan bool }{{false, false}, {true, false}, {true, true}} {
			names = append(names, fmt.Sprintf("%+v swirl %+v", dim, kind))
			fields = append(fields, swirlField(rng, dim.gw, dim.gh, kind.stagnant, kind.nan))
		}
		for _, kind := range []string{"stagnant", "nan", "edge"} {
			names = append(names, fmt.Sprintf("%dx%d one lane %s", dim.w, dim.h, kind))
			fields = append(fields, laneField(dim.w, dim.h, kind))
		}
		for f, field := range fields {
			what := names[f]
			for _, L := range []int{1, 2, 10} {
				for _, phase := range []float64{-1, 0.3} {
					cfg := Config{L: L, Seed: 7, Phase: phase}
					want, p, s := rowsMatchFrozen(t, what, field, noise, cfg)
					panics += p
					stagnated += s
					if p > 0 {
						continue // a band would take the process down with it
					}
					for _, run := range []struct {
						name  string
						procs int // GOMAXPROCS, the width of a pool-less run
						scr   *Scratch
					}{{"serial", 1, nil}, {"spawned", 3, nil}, {"pooled", 1, &Scratch{Pool: pool}}} {
						setGOMAXPROCS(t, run.procs)
						got, err := ComputeWith(field, dim.w, dim.h, cfg, run.scr)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want.Pix {
							if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
								t.Fatalf("%s L=%d phase=%v %s: pixel %d = %v, frozen %v",
									what, L, phase, run.name, i, got.Pix[i], want.Pix[i])
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

// FuzzConvolveMatchesFrozen: on a small fuzzed grid, whose components the
// bytes of vals pick (cyclically) from a smooth range and from the values
// a hypot, a clamp or a bounds test can get wrong — zeros of both signs,
// NaN, infinities, subnormals, vectors under the stagnation threshold —
// at any image size, half-length and phase, the lane kernel returns the
// frozen kernel's bits row by row, panic for panic, and where no row
// panics ComputeWith does too.
func FuzzConvolveMatchesFrozen(f *testing.F) {
	f.Add(uint8(6), uint8(6), uint8(15), uint8(4), uint8(9), -1.0, []byte{10, 200, 77, 0xF2, 130, 45, 0xF0, 250})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), 0.3, []byte{0xF3, 40})
	f.Add(uint8(3), uint8(1), uint8(7), uint8(3), uint8(1), -1.0, []byte{120, 0xF5, 160, 0xF1, 90})
	f.Add(uint8(7), uint8(5), uint8(22), uint8(5), uint8(15), 0.75, []byte{0xF4, 0xF8, 3, 240, 0xFB, 121})
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 3e-13, -4e-13, 5e-324,
		-5e-324, 1e300, -1e300, 1e-300, math.MaxFloat64, 1, -1, 1e-12}
	f.Fuzz(func(t *testing.T, gw, gh, w, h, L uint8, phase float64, vals []byte) {
		g := &quadtree.Grid{W: 2 + int(gw%8), H: 2 + int(gh%8)}
		g.VX, g.VY = make([]float64, g.W*g.H), make([]float64, g.W*g.H)
		if len(vals) > 0 {
			for i := range 2 * g.W * g.H {
				b := vals[i%len(vals)]
				v := (float64(b) - 120) / 40
				if b >= 0xF0 {
					v = odd[b&15]
				}
				[][]float64{g.VX, g.VY}[i%2][i/2] = v
			}
		}
		noise := &Image{}
		WhiteNoiseInto(noise, 2+int(w%24), 2+int(h%6), 7)
		cfg := Config{L: 1 + int(L%16), Seed: 7, Phase: phase}
		want, panics, _ := rowsMatchFrozen(t, fmt.Sprintf("%dx%d field", g.W, g.H), g, noise, cfg)
		if panics > 0 {
			return
		}
		got, err := ComputeWith(g, noise.W, noise.H, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Pix {
			if a, b := got.Pix[i], want.Pix[i]; math.Float32bits(a) != math.Float32bits(b) && !(a != a && b != b) {
				t.Fatalf("ComputeWith pixel %d = %v, frozen %v", i, a, b)
			}
		}
	})
}

// TestLICStepSpeedupGate holds the stage to its one reference: one steady-
// state step of the input rank's underlay — resample the surface samples to
// a 128×128 grid, convolve with the pipeline's box kernel — through the
// remembered resample map and the lane kernel must beat frozenResampleInto
// and frozenConvolve by 2x (ten runs on 2 amd64 vCPUs read 2.57x to 3.68x,
// median 2.85x). Like the other wall-clock gates it only asserts under
// REPRO_PERF_ASSERT=1 and takes the minimum over interleaved windows.
func TestLICStepSpeedupGate(t *testing.T) {
	if os.Getenv("REPRO_PERF_ASSERT") != "1" {
		t.Skip("set REPRO_PERF_ASSERT=1 to enforce the LIC step speedup gate")
	}
	const size = 128
	samples, tree := licStepSetup(t, 2000, size)
	cfg := Config{L: size / 12, Seed: 7, Phase: -1}
	noise := &Image{}
	WhiteNoiseInto(noise, size, size, cfg.Seed)
	// A pool of one convolves inline: both sides are single-threaded.
	scr := Scratch{Pool: workers.New(1)}
	defer scr.Pool.Close()
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
	if frozen < 2*kernel {
		t.Errorf("LIC step speedup regressed: kernel %.3gs vs frozen %.3gs (%.2fx, want >= 2.85x nominal / 2x gate)",
			kernel, frozen, frozen/kernel)
	}
}
