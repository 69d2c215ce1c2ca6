package render

import "math"

// sampler is the per-worker, allocation-free sampling state of the ray
// caster. It caches the current cell's bounds, corner values and the
// corner differences the analytic gradient needs, so consecutive samples
// along a ray — and across adjacent pixels of a scanline, since one
// sampler serves a whole row band — skip the octree point location while
// the ray stays inside one cell.
type sampler struct {
	bd   *BlockData
	cell int     // cached cell index, -1 before the first hit
	min  Vec3    // min corner of the cached cell
	inv  float64 // 1 / cell size
	v    [8]float64
	// Corner differences of the cached cell, the coefficients of the
	// analytic trilinear gradient (one entry per edge along the axis).
	dx, dy, dz [4]float64
	// empty is set when the cached cell lies in an all-empty octree region
	// of the block's empty-region table; rlo/rhi are that region's box.
	empty    bool
	rlo, rhi Vec3
}

func (s *sampler) reset(bd *BlockData) {
	s.bd = bd
	s.cell = -1
}

// setCell loads the per-cell cache for cell ci.
func (s *sampler) setCell(ci int) {
	s.cell = ci
	c := s.bd.Cells[ci]
	min, _ := c.Bounds()
	s.min = Vec3{min[0], min[1], min[2]}
	s.inv = 1 / c.Size()
	vv := &s.bd.Vals[ci]
	for k := 0; k < 8; k++ {
		s.v[k] = float64(vv[k])
	}
	s.dx = [4]float64{s.v[1] - s.v[0], s.v[3] - s.v[2], s.v[5] - s.v[4], s.v[7] - s.v[6]}
	s.dy = [4]float64{s.v[2] - s.v[0], s.v[3] - s.v[1], s.v[6] - s.v[4], s.v[7] - s.v[5]}
	s.dz = [4]float64{s.v[4] - s.v[0], s.v[5] - s.v[1], s.v[6] - s.v[2], s.v[7] - s.v[3]}
	s.empty = false
	if ci < len(s.bd.region) {
		if lvl := s.bd.region[ci]; lvl != notEmpty {
			s.empty = true
			s.rlo, s.rhi = c.AncestorAt(lvl).Bounds()
		}
	}
}

// locate positions the sampler at the cell containing p; ok is false when
// p falls outside the block. A failed locate keeps the previous cell
// cached — the ray may re-enter it past a concavity.
func (s *sampler) locate(p Vec3) bool {
	if s.cell >= 0 && s.bd.Cells[s.cell].ContainsPoint(p) {
		return true
	}
	ci := s.bd.find(p)
	if ci < 0 {
		return false
	}
	s.setCell(ci)
	return true
}

// inRegion is Cell.ContainsPoint for the cached empty region: min-inclusive,
// max-exclusive, the domain boundary at 1.0 included.
func (s *sampler) inRegion(p Vec3) bool {
	for i := 0; i < 3; i++ {
		if hi := s.rhi[i]; hi >= 1.0 {
			if p[i] < s.rlo[i] || p[i] > 1.0 {
				return false
			}
		} else if p[i] < s.rlo[i] || p[i] >= hi {
			return false
		}
	}
	return true
}

// leapMargin, in steps, is how far short of the computed region exit a
// leap stops, so that rounding in the exit almost never puts the last
// leapt sample outside the region (which only costs the leap, see leap).
const leapMargin = 1e-6

// leap advances the ray-marching parameter through the cached empty
// region. t is a sample of castRay's sequence and p its point, located in
// the cached cell; ok reports whether p lies in the region (it need not:
// find clamps a point that rounding put outside the domain into the
// boundary cell), and then the result is the last sample of the sequence
// known to lie in the region — t itself when nothing can be skipped —
// reached by the same repeated t += step the marching loop does, so the
// loop continues on the identical sequence.
//
// Every sample in between contributes nothing, exactly: IEEE rounding is
// monotone, so each coordinate of rayAt(o, d, t) is monotone along the
// sequence, and with the first and the last leapt sample inside the
// region's box (inRegion) all of them are. Such a point is located either
// in no cell or in a cell of the region, none of whose corners is > 0; the
// trilinear a + x*(b-a) with x in [0,1] of values that are not > 0 is not
// > 0 at any stage (it is <= 0, or NaN once a NaN is involved), TFLUT.Lookup
// of such a value is entry 0, and the table is only built when entry 0 has
// density <= 0 — the sample is skipped. The slab-test exit below is only a
// candidate: the last sample is checked with the exact predicate and a
// failed check gives the leap up.
//
//repro:allocfree
func (s *sampler) leap(o, d, p Vec3, t, t1, step float64) (last float64, ok bool) {
	if !s.inRegion(p) {
		return t, false
	}
	end := math.Inf(1)
	for i := 0; i < 3; i++ {
		var e float64
		switch {
		case d[i] > 0:
			e = (s.rhi[i] - o[i]) / d[i]
		case d[i] < 0:
			e = (s.rlo[i] - o[i]) / d[i]
		default:
			continue
		}
		if e < end {
			end = e
		}
	}
	if end -= leapMargin * step; !(end < t1) {
		end = t1
	}
	last = t
	for next := last + step; next < end; next = last + step {
		last = next
	}
	if last != t && !s.inRegion(rayAt(o, d, last)) {
		return t, true
	}
	return last, true
}

// rayAt is the point at parameter t of the ray from o along d.
func rayAt(o, d Vec3, t float64) Vec3 {
	return Vec3{o[0] + t*d[0], o[1] + t*d[1], o[2] + t*d[2]}
}

// sample interpolates the scalar field at p (trilinear over the cached
// corners, same arithmetic as BlockData.Sample).
func (s *sampler) sample(p Vec3) (float64, bool) {
	if !s.locate(p) {
		return 0, false
	}
	x := (p[0] - s.min[0]) * s.inv
	y := (p[1] - s.min[1]) * s.inv
	z := (p[2] - s.min[2]) * s.inv
	c00 := s.v[0] + x*(s.v[1]-s.v[0])
	c10 := s.v[2] + x*(s.v[3]-s.v[2])
	c01 := s.v[4] + x*(s.v[5]-s.v[4])
	c11 := s.v[6] + x*(s.v[7]-s.v[6])
	c0 := c00 + y*(c10-c00)
	c1 := c01 + y*(c11-c01)
	return c0 + z*(c1-c0), true
}

// gradient returns the exact gradient of the trilinear interpolant at p in
// the cached cell (valid after a successful sample). Unlike the
// central-difference BlockData.Gradient it needs no further point
// locations or field samples.
func (s *sampler) gradient(p Vec3) Vec3 {
	x := (p[0] - s.min[0]) * s.inv
	y := (p[1] - s.min[1]) * s.inv
	z := (p[2] - s.min[2]) * s.inv
	mx, my, mz := 1-x, 1-y, 1-z
	return Vec3{
		(s.dx[0]*my*mz + s.dx[1]*y*mz + s.dx[2]*my*z + s.dx[3]*y*z) * s.inv,
		(s.dy[0]*mx*mz + s.dy[1]*x*mz + s.dy[2]*mx*z + s.dy[3]*x*z) * s.inv,
		(s.dz[0]*mx*my + s.dz[1]*x*my + s.dz[2]*mx*y + s.dz[3]*x*y) * s.inv,
	}
}
