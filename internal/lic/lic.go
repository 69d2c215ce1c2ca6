// Package lic implements Line Integral Convolution (Cabral & Leedom) for
// the ground-surface vector-field visualization of the paper's Section 4.3:
// a white-noise texture is convolved along streamlines of the 2D velocity
// field, yielding the flow-structure images of Figures 13 and 14.
package lic

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/img"
	"repro/internal/pool"
	"repro/internal/quadtree"
	"repro/internal/workers"
)

// Config controls the LIC computation.
type Config struct {
	// L is the half-length of the convolution kernel in pixels (default 10).
	L int
	// StepSize is the streamline integration step in pixels (default 0.5).
	StepSize float64
	// Seed makes the white-noise texture reproducible.
	Seed int64
	// Periodic phase in [0,1) animates the kernel (flow direction cue);
	// negative disables the periodic filter and uses a box kernel.
	Phase float64
	// Workers bounds the row-parallel convolution: 0 = runtime.NumCPU(),
	// 1 = serial. Every pixel is convolved independently, so the output is
	// identical for any value.
	Workers int
}

// Scratch holds the cross-frame buffers of an animation loop: the
// white-noise input texture (regenerated only when the size or seed
// changes — the pipeline reuses one seed, so at steady state it is
// computed once) and the output image. A scratch serves one frame at a
// time; the image ComputeWith returns points into it and is valid until
// the next call.
type Scratch struct {
	noise     Image
	noiseSeed int64
	noiseOK   bool
	out       Image

	// Pool, when set, dispatches the row-band convolution fan-out on a
	// persistent worker pool instead of spawning goroutines every frame,
	// so a steady-state parallel frame allocates nothing. Like the
	// scratch, the pool must belong to one rank.
	Pool *workers.Pool

	// band is the per-frame state of the prebound band closure.
	band   bandJob
	bandFn func(int)
}

// bandJob carries one frame's convolution arguments to the band closure
// without capturing them in a fresh one.
type bandJob struct {
	field      *quadtree.Grid
	noise, out *Image
	cfg        Config
	rows, h    int
}

// noiseFor returns the cached noise texture, regenerating it on a size or
// seed change.
func (s *Scratch) noiseFor(w, h int, seed int64) *Image {
	if !s.noiseOK || s.noise.W != w || s.noise.H != h || s.noiseSeed != seed {
		WhiteNoiseInto(&s.noise, w, h, seed)
		s.noiseSeed, s.noiseOK = seed, true
	}
	return &s.noise
}

// ComputeWith returns a w×h grayscale LIC image of the vector field. The
// noise texture, the output image and the row-band closure come from scr,
// and the bands dispatch on scr.Pool (nil spawns per call), so a
// steady-state frame loop allocates nothing with Workers: 1 or with a pool.
// The returned image points into scr and is valid until the next call; a
// nil scr is a private scratch, dropped on return, so the image is the
// caller's. Output is bit-identical for any scr/pool/Workers combination.
//
// Precondition: every vector of field is finite. It is not checked: a NaN
// or Inf component makes a streamline position NaN, which passes every
// bounds comparison and panics the next Grid.At on an int(NaN) index. The
// pipeline meets it by decoding surface records through
// quake.DecodeStepInto, which rejects non-finite words as pfs.ErrCorrupt
// (docs/faults.md); a caller with its own field must check it itself.
//
//repro:allocfree
func ComputeWith(field *quadtree.Grid, w, h int, cfg Config, scr *Scratch) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("lic: invalid size %dx%d", w, h)
	}
	if scr == nil {
		scr = &Scratch{} //repro:allow allocfree: a nil scratch is a private scratch
	}
	if cfg.L <= 0 {
		cfg.L = 10
	}
	if cfg.StepSize <= 0 {
		cfg.StepSize = 0.5
	}
	noise := scr.noiseFor(w, h, cfg.Seed)
	out := &scr.out
	out.W, out.H = w, h
	out.Pix = pool.Grow(out.Pix, w*h) //repro:allow allocfree: amortized scratch growth
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > h {
		workers = h
	}
	// One band per worker; the band closure is created once per scratch and
	// reads its arguments from the scratch. Workers: 1 is one band, run
	// inline by the pool.
	rows := (h + workers - 1) / workers
	scr.band = bandJob{field: field, noise: noise, out: out, cfg: cfg, rows: rows, h: h}
	if scr.bandFn == nil {
		scr.bandFn = func(i int) { //repro:allow allocfree: band closure prebound once per scratch
			b := &scr.band
			lo := i * b.rows
			hi := lo + b.rows
			if hi > b.h {
				hi = b.h
			}
			convolveRows(b.field, b.noise, b.out, lo, hi, b.cfg)
		}
	}
	scr.Pool.Run(workers, (h+rows-1)/rows, scr.bandFn)
	scr.band = bandJob{} // do not pin the caller's field across frames
	return out, nil
}

// convolveRows fills rows [yLo, yHi) of out; field and noise are only read.
func convolveRows(field *quadtree.Grid, noise *Image, out *Image, yLo, yHi int, cfg Config) {
	for y := yLo; y < yHi; y++ {
		for x := 0; x < out.W; x++ {
			out.Pix[y*out.W+x] = float32(convolve(field, noise, x, y, cfg))
		}
	}
}

// Image is a grayscale float image.
type Image struct {
	W, H int
	Pix  []float32
}

// At returns the pixel value with clamping at the borders.
func (m *Image) At(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= m.W {
		x = m.W - 1
	}
	if y >= m.H {
		y = m.H - 1
	}
	return float64(m.Pix[y*m.W+x])
}

// WhiteNoiseInto fills m with a reproducible w×h white-noise texture in
// [0,1], reusing its pixel buffer.
func WhiteNoiseInto(m *Image, w, h int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m.W, m.H = w, h
	m.Pix = pool.Grow(m.Pix, w*h)
	for i := range m.Pix {
		m.Pix[i] = rng.Float32()
	}
}

// vecAt samples the field at pixel coordinates.
func vecAt(field *quadtree.Grid, w, h int, x, y float64) (float64, float64) {
	return field.At(x/float64(w-1), y/float64(h-1))
}

// kernelWeight evaluates the periodic filter at normalized kernel position
// t in [-1, 1]: a Hanning-windowed ripple whose phase, animated, shifts
// along the streamline and gives the impression of flow direction. (A
// negative Config.Phase selects the box kernel, weight 1 everywhere, which
// convolve adds up without calling this.)
func kernelWeight(t, phase float64) float64 {
	return (1 + math.Cos(math.Pi*t)) * (1 + math.Cos(2*math.Pi*(t-phase)))
}

// convolve traces the streamline through pixel (x,y) forward and backward
// and convolves the noise texture along it. Both directions leave from the
// pixel centre, so the field is evaluated there once.
func convolve(field *quadtree.Grid, noise *Image, x, y int, cfg Config) float64 {
	w, h := noise.W, noise.H
	box := cfg.Phase < 0
	// Center sample.
	w0 := 1.0
	if !box {
		w0 = kernelWeight(0, cfg.Phase)
	}
	sum := w0 * noise.At(x, y)
	wsum := w0
	cvx, cvy := vecAt(field, w, h, float64(x), float64(y))
	cl := math.Hypot(cvx, cvy)
	for dir := -1.0; dir <= 1.0; dir += 2 {
		px := float64(x)
		py := float64(y)
		dist := 0.0
		vx, vy, l := cvx, cvy, cl
		for step := 1; step <= cfg.L; step++ {
			if step > 1 {
				vx, vy = vecAt(field, w, h, px, py)
				l = math.Hypot(vx, vy)
			}
			if l < 1e-12 {
				break // stagnation point
			}
			px += dir * cfg.StepSize * vx / l
			py += dir * cfg.StepSize * vy / l
			if px < 0 || py < 0 || px > float64(w-1) || py > float64(h-1) {
				break
			}
			// At, not a direct index: a NaN vector makes px NaN, which
			// passes every comparison above, and At clamps whatever int(NaN)
			// is on this platform.
			n := noise.At(int(px+0.5), int(py+0.5))
			if box {
				sum += n
				wsum++
				continue
			}
			dist += cfg.StepSize
			t := dir * dist / (float64(cfg.L) * cfg.StepSize)
			wt := kernelWeight(t, cfg.Phase)
			sum += wt * n
			wsum += wt
		}
	}
	if wsum == 0 {
		return noise.At(x, y)
	}
	return sum / wsum
}

// ColorizeInto maps the LIC gray texture onto an RGBA image for compositing
// with the volume rendering at the output processors, modulated by the x
// component of mag: opacity and brightness run from 0.25 where mag.VX is 0
// to 1 where |mag.VX| is largest. mag.VY is not read (whether it should be
// is an open question in ROADMAP.md). A nil mag leaves the texture opaque
// and unmodulated. It writes into out, reusing its pixel buffer (resized as
// needed; every pixel is overwritten); a nil out allocates the image.
func (m *Image) ColorizeInto(out *img.Image, mag *quadtree.Grid) *img.Image {
	if out == nil {
		out = &img.Image{}
	}
	n := 4 * m.W * m.H
	if cap(out.Pix) < n {
		out.Pix = make([]float32, n)
	}
	out.Pix = out.Pix[:n]
	out.W, out.H = m.W, m.H
	var maxMag float64
	if mag != nil {
		for _, v := range mag.VX {
			if math.Abs(v) > maxMag {
				maxMag = math.Abs(v)
			}
		}
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			g := float32(m.At(x, y))
			a := float32(1.0)
			if mag != nil && maxMag > 0 {
				v, _ := mag.At(float64(x)/float64(m.W-1), float64(y)/float64(m.H-1))
				a = float32(0.25 + 0.75*math.Abs(v)/maxMag)
			}
			out.Set(x, y, g*a, g*a, g*a, a)
		}
	}
	return out
}
