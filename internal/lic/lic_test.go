package lic

import (
	"math"
	"testing"

	"repro/internal/img"
	"repro/internal/quadtree"
	"repro/internal/workers"
)

// uniformField returns a constant-direction grid field.
func uniformField(w, h int, vx, vy float64) *quadtree.Grid {
	g := &quadtree.Grid{W: w, H: h, VX: make([]float64, w*h), VY: make([]float64, w*h)}
	for i := range g.VX {
		g.VX[i] = vx
		g.VY[i] = vy
	}
	return g
}

// circularField rotates around the image center.
func circularField(w, h int) *quadtree.Grid {
	g := &quadtree.Grid{W: w, H: h, VX: make([]float64, w*h), VY: make([]float64, w*h)}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			x := float64(i)/float64(w-1) - 0.5
			y := float64(j)/float64(h-1) - 0.5
			g.VX[j*w+i] = -y
			g.VY[j*w+i] = x
		}
	}
	return g
}

// directionalVariance measures pixel variance along x-runs vs y-runs.
func directionalVariance(m *Image) (alongX, alongY float64) {
	for y := 0; y < m.H; y++ {
		for x := 1; x < m.W; x++ {
			d := m.At(x, y) - m.At(x-1, y)
			alongX += d * d
		}
	}
	for x := 0; x < m.W; x++ {
		for y := 1; y < m.H; y++ {
			d := m.At(x, y) - m.At(x, y-1)
			alongY += d * d
		}
	}
	return
}

func TestLICSmoothsAlongFlow(t *testing.T) {
	// Flow along +x: after LIC, variation along x must be much smaller than
	// along y (streaks aligned with the flow).
	field := uniformField(64, 64, 1, 0)
	out, err := ComputeWith(field, 64, 64, Config{L: 12, Seed: 1, Phase: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ax, ay := directionalVariance(out)
	if ax*3 > ay {
		t.Errorf("LIC streaks not aligned with flow: varX=%v varY=%v", ax, ay)
	}
}

func TestLICFlowDirectionRotates(t *testing.T) {
	field := uniformField(64, 64, 0, 1)
	out, err := ComputeWith(field, 64, 64, Config{L: 12, Seed: 1, Phase: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ax, ay := directionalVariance(out)
	if ay*3 > ax {
		t.Errorf("vertical flow: varX=%v varY=%v", ax, ay)
	}
}

func TestLICPreservesMean(t *testing.T) {
	// Convolution with a normalized kernel keeps the mean near 0.5.
	field := circularField(48, 48)
	out, err := ComputeWith(field, 48, 48, Config{L: 8, Seed: 3, Phase: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range out.Pix {
		mean += float64(v)
	}
	mean /= float64(len(out.Pix))
	if math.Abs(mean-0.5) > 0.05 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestLICReducesVarianceVsNoise(t *testing.T) {
	field := circularField(48, 48)
	noise := &Image{}
	WhiteNoiseInto(noise, 48, 48, 3)
	out, _ := ComputeWith(field, 48, 48, Config{L: 10, Seed: 3, Phase: -1}, nil)
	varOf := func(m *Image) float64 {
		var mean, v float64
		for _, p := range m.Pix {
			mean += float64(p)
		}
		mean /= float64(len(m.Pix))
		for _, p := range m.Pix {
			v += (float64(p) - mean) * (float64(p) - mean)
		}
		return v / float64(len(m.Pix))
	}
	if varOf(out) >= varOf(noise)*0.6 {
		t.Errorf("LIC variance %v not well below noise variance %v", varOf(out), varOf(noise))
	}
}

func TestLICDeterministic(t *testing.T) {
	field := circularField(32, 32)
	a, _ := ComputeWith(field, 32, 32, Config{L: 8, Seed: 7}, nil)
	b, _ := ComputeWith(field, 32, 32, Config{L: 8, Seed: 7}, nil)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("LIC not deterministic")
		}
	}
}

func TestLICZeroFieldReturnsNoise(t *testing.T) {
	field := uniformField(16, 16, 0, 0)
	out, err := ComputeWith(field, 16, 16, Config{L: 8, Seed: 2, Phase: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	noise := &Image{}
	WhiteNoiseInto(noise, 16, 16, 2)
	for i := range out.Pix {
		if out.Pix[i] != noise.Pix[i] {
			t.Fatal("stagnant field should return the noise texture")
		}
	}
}

func TestLICPeriodicPhaseChangesImage(t *testing.T) {
	field := uniformField(32, 32, 1, 0.3)
	a, _ := ComputeWith(field, 32, 32, Config{L: 10, Seed: 4, Phase: 0.0}, nil)
	b, _ := ComputeWith(field, 32, 32, Config{L: 10, Seed: 4, Phase: 0.5}, nil)
	var diff float64
	for i := range a.Pix {
		diff += math.Abs(float64(a.Pix[i] - b.Pix[i]))
	}
	if diff == 0 {
		t.Error("animating the kernel phase had no effect")
	}
}

func TestLICParallelMatchesSerial(t *testing.T) {
	field := circularField(64, 64)
	want, err := ComputeWith(field, 64, 64, Config{L: 10, Seed: 9, Phase: -1, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2, 7, 64} {
		got, err := ComputeWith(field, 64, 64, Config{L: 10, Seed: 9, Phase: -1, Workers: k}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Pix {
			if want.Pix[i] != got.Pix[i] {
				t.Fatalf("workers=%d: pixel %d differs", k, i)
			}
		}
	}
}

func TestLICInvalidSize(t *testing.T) {
	if _, err := ComputeWith(uniformField(8, 8, 1, 0), 0, 8, Config{}, nil); err == nil {
		t.Error("zero size accepted")
	}
}

func TestColorize(t *testing.T) {
	field := uniformField(16, 16, 1, 0)
	out, _ := ComputeWith(field, 16, 16, Config{L: 4, Seed: 5, Phase: -1}, nil)
	rgba := out.ColorizeInto(nil, field)
	if rgba.W != 16 || rgba.H != 16 {
		t.Fatal("bad colorize size")
	}
	_, _, _, a := rgba.At(8, 8)
	if a <= 0 || a > 1 {
		t.Errorf("alpha = %v", a)
	}
	plain := out.ColorizeInto(nil, nil)
	_, _, _, a = plain.At(8, 8)
	if a != 1 {
		t.Errorf("unmodulated alpha = %v", a)
	}
}

// --- PR 3: scratch reuse ----------------------------------------------------

// TestComputeWithScratchMatches: frames through a reused scratch must be
// bit-identical to nil-scratch calls, including when the size or seed
// changes mid-loop (noise regeneration) and across changing fields.
func TestComputeWithScratchMatches(t *testing.T) {
	var scr Scratch
	cases := []struct {
		w, h int
		seed int64
		rot  bool
	}{
		{32, 32, 1, false},
		{32, 32, 1, true},  // same noise, new field
		{32, 32, 9, true},  // seed change
		{48, 24, 9, false}, // size change
		{32, 32, 1, false}, // back to the first shape
	}
	for i, tc := range cases {
		field := uniformField(tc.w, tc.h, 1, 0.3)
		if tc.rot {
			field = circularField(tc.w, tc.h)
		}
		cfg := Config{L: 8, Seed: tc.seed, Phase: -1}
		want, err := ComputeWith(field, tc.w, tc.h, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeWith(field, tc.w, tc.h, cfg, &scr)
		if err != nil {
			t.Fatal(err)
		}
		if want.W != got.W || want.H != got.H {
			t.Fatalf("case %d: size mismatch", i)
		}
		for p := range want.Pix {
			if want.Pix[p] != got.Pix[p] {
				t.Fatalf("case %d: pixel %d differs: %v vs %v", i, p, got.Pix[p], want.Pix[p])
			}
		}
	}
}

// TestColorizeIntoMatches: a reused destination must reproduce the nil-
// destination result exactly, including after a size change.
func TestColorizeIntoMatches(t *testing.T) {
	var dst img.Image
	for _, wh := range [][2]int{{24, 16}, {16, 24}, {24, 16}} {
		field := circularField(wh[0], wh[1])
		m, err := ComputeWith(field, wh[0], wh[1], Config{L: 6, Seed: 3, Phase: -1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := m.ColorizeInto(nil, field)
		got := m.ColorizeInto(&dst, field)
		if want.W != got.W || want.H != got.H {
			t.Fatal("size mismatch")
		}
		for p := range want.Pix {
			if want.Pix[p] != got.Pix[p] {
				t.Fatalf("pixel %d differs", p)
			}
		}
	}
}

// licStepBench assembles the full per-timestep surface-LIC pipeline the
// input processors run: update the quadtree's sample values, resample the
// regular grid, convolve, colorize.
func licStepSetup(tb testing.TB, n, size int) ([]quadtree.Sample, *quadtree.Tree) {
	tb.Helper()
	samples := make([]quadtree.Sample, n)
	for i := range samples {
		samples[i] = quadtree.Sample{
			X: float64(i%37) / 36.0, Y: float64((i*13)%41) / 40.0,
			VX: float64(i%7) - 3, VY: float64(i%5) - 2,
		}
	}
	tree, err := quadtree.Build(samples, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return samples, tree
}

// TestLICStepAllocFree is the PR 3 acceptance gate for the surface-LIC
// step: at steady state, value update + quadtree reuse + resample +
// convolution + colorize allocate nothing (serial convolution; the worker
// fan-out allocates its goroutines and is exercised elsewhere).
func TestLICStepAllocFree(t *testing.T) {
	const size = 32
	samples, tree := licStepSetup(t, 300, size)
	var grid quadtree.Grid
	var scr Scratch
	var rgba img.Image
	step := 0
	licStep := func() {
		step++
		for i := range samples {
			samples[i].VX = float64((step + i) % 11)
			samples[i].VY = float64((step * i) % 7)
		}
		if err := tree.Rebuild(samples); err != nil {
			t.Fatal(err)
		}
		if err := tree.ResampleInto(&grid, size, size); err != nil {
			t.Fatal(err)
		}
		im, err := ComputeWith(&grid, size, size, Config{L: size / 12, Seed: 7, Phase: -1, Workers: 1}, &scr)
		if err != nil {
			t.Fatal(err)
		}
		im.ColorizeInto(&rgba, &grid)
	}
	licStep() // warm every buffer
	if avg := testing.AllocsPerRun(15, licStep); avg != 0 {
		t.Errorf("steady-state LIC step allocates %v, want 0", avg)
	}
}

// TestLICStepPooledAllocFree extends the steady-state gate to the parallel
// convolution: with a persistent worker pool on the scratch, the row-band
// fan-out no longer spawns goroutines, so even a multi-worker LIC step is
// allocation-free — and bit-identical to the serial path.
func TestLICStepPooledAllocFree(t *testing.T) {
	const size = 32
	samples, tree := licStepSetup(t, 300, size)
	var grid quadtree.Grid
	if err := tree.ResampleInto(&grid, size, size); err != nil {
		t.Fatal(err)
	}
	cfg := Config{L: size / 12, Seed: 7, Phase: -1}
	serial, err := ComputeWith(&grid, size, size, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scr Scratch
	scr.Pool = workers.New(4)
	defer scr.Pool.Close()
	cfg.Workers = 4
	pooled, err := ComputeWith(&grid, size, size, cfg, &scr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Pix {
		if serial.Pix[i] != pooled.Pix[i] {
			t.Fatalf("pooled convolution differs from serial at pixel %d", i)
		}
	}
	step := 0
	licStep := func() {
		step++
		for i := range samples {
			samples[i].VX = float64((step + i) % 11)
			samples[i].VY = float64((step * i) % 7)
		}
		if err := tree.Rebuild(samples); err != nil {
			t.Fatal(err)
		}
		if err := tree.ResampleInto(&grid, size, size); err != nil {
			t.Fatal(err)
		}
		if _, err := ComputeWith(&grid, size, size, cfg, &scr); err != nil {
			t.Fatal(err)
		}
	}
	licStep() // warm up (binds the band closure)
	if avg := testing.AllocsPerRun(15, licStep); avg != 0 {
		t.Errorf("steady-state pooled LIC step allocates %v, want 0", avg)
	}
}

// BenchmarkLICStep measures one full surface-LIC timestep (128-node
// scatter, 64x64 grid): `scratch` is the steady-state PR 3 path (reused
// tree, grid, noise, output, RGBA), `fresh` rebuilds and reallocates
// everything as the pre-PR-3 pipeline did, and `resample` is the value
// update and the gather through the remembered grid-point map alone.
func BenchmarkLICStep(b *testing.B) {
	const size = 64
	samples, tree := licStepSetup(b, 500, size)
	cfg := Config{L: size / 12, Seed: 7, Phase: -1, Workers: 1}
	b.Run("scratch", func(b *testing.B) {
		var grid quadtree.Grid
		var scr Scratch
		var rgba img.Image
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			samples[0].VX = float64(i)
			if err := tree.Rebuild(samples); err != nil {
				b.Fatal(err)
			}
			if err := tree.ResampleInto(&grid, size, size); err != nil {
				b.Fatal(err)
			}
			im, err := ComputeWith(&grid, size, size, cfg, &scr)
			if err != nil {
				b.Fatal(err)
			}
			im.ColorizeInto(&rgba, &grid)
		}
	})
	b.Run("resample", func(b *testing.B) {
		var grid quadtree.Grid
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			samples[0].VX = float64(i)
			if err := tree.Rebuild(samples); err != nil {
				b.Fatal(err)
			}
			if err := tree.ResampleInto(&grid, size, size); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			samples[0].VX = float64(i)
			fresh, err := quadtree.Build(samples, 8)
			if err != nil {
				b.Fatal(err)
			}
			grid, err := fresh.Resample(size, size)
			if err != nil {
				b.Fatal(err)
			}
			im, err := ComputeWith(grid, size, size, cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			im.ColorizeInto(nil, grid)
		}
	})
}
