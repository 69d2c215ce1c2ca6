// Package lic implements Line Integral Convolution (Cabral & Leedom) for
// the ground-surface vector-field visualization of the paper's Section 4.3:
// a white-noise texture is convolved along streamlines of the 2D velocity
// field, yielding the flow-structure images of Figures 13 and 14.
//
// The convolution traces the streamlines of a group of adjacent pixels of
// a row together (convolveLanes), each stage of an integration step run
// over the group before the next, so the divide-and-square-root chains of
// neighbouring pixels overlap; the field is interpolated through
// quadtree's Grid.AtBatch. ComputeWith refuses images and fields narrower
// or shorter than two pixels with an error, and its finite-field
// precondition holds per row band: a non-finite vector panics the band
// whose streamline meets it.
package lic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/img"
	"repro/internal/pool"
	"repro/internal/quadtree"
	"repro/internal/workers"
)

// Config controls the LIC computation.
type Config struct {
	// L is the half-length of the convolution kernel in pixels (default 10).
	L int
	// Seed makes the white-noise texture reproducible.
	Seed int64
	// Periodic phase in [0,1) animates the kernel (flow direction cue);
	// negative disables the periodic filter and uses a box kernel.
	Phase float64
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
	// so a steady-state parallel frame allocates nothing, and its size is
	// the convolution's width. Like the scratch, the pool must belong to
	// one rank.
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
// noise texture, the output image and the row-band closure come from scr.
// The convolution runs one row band per worker of scr.Pool, or without a
// pool on workers.Width(1) goroutines spawned per call; so a steady-state
// frame loop allocates nothing with a pool or at GOMAXPROCS=1, where the
// one band runs inline. The returned image points into scr and is valid
// until the next call; a nil scr is a private scratch, dropped on return,
// so the image is the caller's. Output is bit-identical for any scr, pool
// and width. It returns an error, before any band starts, for w or h
// below 2, for a field whose W or H is below 2, and for one whose VX or VY
// does not hold W·H values.
//
// Precondition: every vector of field is finite. It is not checked: a NaN
// or Inf component makes a streamline position NaN, which passes every
// bounds comparison and panics the next field lookup on an int(NaN)
// index. The panic is its row band's: it takes down the goroutine running
// the band, which without a pool is a spawned one, so the process. The
// pipeline meets it by decoding surface records through
// quake.DecodeStepInto, which rejects non-finite words as pfs.ErrCorrupt
// (docs/faults.md); a caller with its own field must check it itself.
//
//repro:allocfree
func ComputeWith(field *quadtree.Grid, w, h int, cfg Config, scr *Scratch) (*Image, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("lic: invalid size %dx%d", w, h)
	}
	if field.W < 2 || field.H < 2 || len(field.VX) != field.W*field.H || len(field.VY) != field.W*field.H {
		return nil, fmt.Errorf("lic: invalid %dx%d field of %d,%d vectors", field.W, field.H, len(field.VX), len(field.VY))
	}
	if scr == nil {
		scr = &Scratch{} //repro:allow allocfree: a nil scratch is a private scratch
	}
	if cfg.L <= 0 {
		cfg.L = 10
	}
	noise := scr.noiseFor(w, h, cfg.Seed)
	out := &scr.out
	out.W, out.H = w, h
	out.Pix = pool.Grow(out.Pix, w*h) //repro:allow allocfree: amortized scratch growth
	workers := min(scr.Pool.Size(), h)
	// One band per worker; the band closure is created once per scratch and
	// reads its arguments from the scratch. Width 1 is one band, run inline
	// by the pool.
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
		row := out.Pix[y*out.W : (y+1)*out.W]
		for x := 0; x < out.W; x += lanes {
			convolveLanes(field, noise, row, x, y, cfg)
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

// kernelWeight evaluates the periodic filter at normalized kernel position
// t in [-1, 1]: a Hanning-windowed ripple whose phase, animated, shifts
// along the streamline and gives the impression of flow direction. (A
// negative Config.Phase selects the box kernel, weight 1 everywhere, which
// convolveLanes uses without calling this.)
func kernelWeight(t, phase float64) float64 {
	return (1 + math.Cos(math.Pi*t)) * (1 + math.Cos(2*math.Pi*(t-phase)))
}

// stepSize is the streamline integration step in pixels.
const stepSize = 0.5

// lanes is the number of adjacent pixels whose streamlines convolveLanes
// advances together. Each sample's position depends on the previous one
// through five divisions and a square root, so a single streamline keeps
// the processor waiting on that chain; running each stage over a group of
// independent chains before the next stage fills the wait. Of 4, 8 and 16
// lanes, 8 measured fastest (amd64, BenchmarkLICStep/scratch128).
const lanes = 8

// convolveLanes traces the streamlines through pixels x0 … x0+lanes−1 of
// row y forward and backward, convolves the noise texture along them and
// writes row[x0:]; lanes past the row's end start dead. Both directions
// leave from the pixel centre, so the field is evaluated there once. Each
// pixel's arithmetic is the single-streamline kernel's, operation for
// operation (frozenConvolve in the tests), so the grouping moves no bit.
//
// In each step every stage runs over the live lanes before the next
// starts: the coordinate divides, the interpolation (Grid.AtBatch), the
// hypot, then the advance, bounds test and noise fetch, which compacts the
// live list. A live lane at step s has gone s steps of stepSize, so one
// kernel weight per step serves all of them.
func convolveLanes(field *quadtree.Grid, noise *Image, row []float32, x0, y int, cfg Config) {
	w, h := noise.W, noise.H
	sx, sy := float64(w-1), float64(h-1)
	n := min(lanes, w-x0)
	var (
		// Indexed by lane.
		px, py, sum, wsum, cvx, cvy, cl [lanes]float64
		// Indexed by slot: slot j holds lane live[j].
		ux, uy, vx, vy, l [lanes]float64
		live              [lanes]int
	)
	for k := range n {
		ux[k], uy[k] = float64(x0+k)/sx, float64(y)/sy
	}
	field.AtBatch(ux[:n], uy[:n], cvx[:n], cvy[:n])
	hypots(cvx[:n], cvy[:n], cl[:n])
	w0 := 1.0
	if cfg.Phase >= 0 {
		w0 = kernelWeight(0, cfg.Phase)
	}
	for k := range n {
		sum[k] = w0 * noise.At(x0+k, y)
		wsum[k] = w0
	}
	for dir := -1.0; dir <= 1.0; dir += 2 {
		m := n
		for k := range n {
			live[k] = k
			px[k], py[k] = float64(x0+k), float64(y)
		}
		vx, vy, l = cvx, cvy, cl
		dist := 0.0
		for step := 1; step <= cfg.L && m > 0; step++ {
			if step > 1 {
				for j, k := range live[:m] {
					ux[j], uy[j] = px[k]/sx, py[k]/sy
				}
				field.AtBatch(ux[:m], uy[:m], vx[:m], vy[:m])
				hypots(vx[:m], vy[:m], l[:m])
			}
			dist += stepSize
			wt := 1.0
			if cfg.Phase >= 0 {
				wt = kernelWeight(dir*dist/(float64(cfg.L)*stepSize), cfg.Phase)
			}
			alive := 0
			for j, k := range live[:m] {
				if l[j] < 1e-12 {
					continue // stagnation point
				}
				px[k] += dir * stepSize * vx[j] / l[j]
				py[k] += dir * stepSize * vy[j] / l[j]
				if px[k] < 0 || py[k] < 0 || px[k] > sx || py[k] > sy {
					continue
				}
				// At, not a direct index: a NaN vector makes px NaN, which
				// passes every comparison above, and At clamps whatever
				// int(NaN) is on this platform.
				sum[k] += wt * noise.At(int(px[k]+0.5), int(py[k]+0.5))
				wsum[k] += wt
				live[alive] = k
				alive++
			}
			m = alive
		}
	}
	for k := range n {
		if wsum[k] == 0 {
			row[x0+k] = float32(noise.At(x0+k, y))
		} else {
			row[x0+k] = float32(sum[k] / wsum[k])
		}
	}
}

// hypots sets l[i] to math.Hypot(vx[i], vy[i]), bit for bit, for every
// i < len(l); vx and vy must be at least as long. On amd64 math.Hypot is
// an assembly routine, a call per sample the compiler cannot inline. The
// body is math's portable hypot, so 1+q*q is fused exactly where math's is
// (arm64, say) and unfused like the amd64 assembly at the default GOAMD64;
// at GOAMD64=v3 TestHypotsMatchesMathHypot would report the fused form.
func hypots(vx, vy, l []float64) {
	vx, vy = vx[:len(l)], vy[:len(l)]
	for i := range l {
		p, q := math.Abs(vx[i]), math.Abs(vy[i])
		switch {
		case p > math.MaxFloat64 || q > math.MaxFloat64:
			l[i] = math.Inf(1)
		case p != p || q != q:
			l[i] = math.NaN()
		default:
			if p < q {
				p, q = q, p
			}
			if p == 0 {
				l[i] = 0
				continue
			}
			q /= p
			l[i] = p * math.Sqrt(1+q*q)
		}
	}
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
